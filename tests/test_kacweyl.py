from fractions import Fraction

import pytest

from affchar.charring import first_discrepancy
from affchar.fock import LatticeCoset, lattice_character
from affchar.kacweyl import (AffineDominantWeight, _alternating_layers,
                             weyl_kac_character)
from affchar.rootsys import (DEFAULT_ORBIT_CAP, OrbitCapExceeded, RootSystem,
                             build_root_system, coweight, weight)
from conftest import SMALL_TYPES, alternating_layers_oracle


def test_top_layer_is_highest_weight_line_for_basic():
    rs = build_root_system("A", 2)
    chi = weyl_kac_character(rs, AffineDominantWeight(1, weight([0, 0])), 0)
    assert list(chi.terms()) == [(weight([0, 0]), Fraction(0), 1)]


def test_a1_basic_representation_table():
    rs = build_root_system("A", 1)
    chi = weyl_kac_character(rs, AffineDominantWeight(1, weight([0])), 3)
    zero = weight([0])
    assert [chi.coeff(zero, Fraction(d)) for d in range(4)] == [1, 1, 2, 3]
    assert sum(chi.layer(Fraction(1)).values()) == 3


def test_top_layer_is_finite_irreducible():
    for t, l in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(t, l)
        for om in rs.minuscule_reps().values():
            nu = rs.iota(om)
            chi = weyl_kac_character(rs, AffineDominantWeight(1, nu), 2)
            assert chi.layer(Fraction(0)) == rs.finite_weyl_character(nu)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_nonnegative_and_weyl_invariant(t, l):
    rs = build_root_system(t, l)
    chi = weyl_kac_character(rs, AffineDominantWeight(1, weight([0] * l)), 3)
    assert all(c > 0 for _, _, c in chi.terms())
    assert chi.is_weyl_invariant()
    assert chi.truncated and chi.depth == 3


def test_integrability_bound_enforced():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        weyl_kac_character(rs, AffineDominantWeight(1, rs.highest_root), 2)
    # level 2 admits the highest root as finite part
    chi = weyl_kac_character(rs, AffineDominantWeight(2, rs.highest_root), 1)
    assert chi.layer(Fraction(0)) == rs.finite_weyl_character(rs.highest_root)


def test_rejects_bad_levels_and_depth():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        weyl_kac_character(rs, AffineDominantWeight(0, weight([0])), 2)
    with pytest.raises(ValueError):
        weyl_kac_character(rs, AffineDominantWeight(1, weight([0])), -2)


def test_element_cap_raises():
    rs = build_root_system("D", 4)
    with pytest.raises(OrbitCapExceeded):
        weyl_kac_character(rs, AffineDominantWeight(1, weight([0] * 4)), 8,
                           cap=50)


def test_coset_supports_disjoint_mod_root_lattice():
    rs = build_root_system("A", 3)
    reps = sorted(rs.minuscule_reps().items())
    chars = []
    for _, om in reps:
        chi = weyl_kac_character(rs, AffineDominantWeight(1, rs.iota(om)), 2)
        chars.append({w for w, _, _ in chi.terms()})
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            for wi in list(chars[i])[:5]:
                for wj in list(chars[j])[:5]:
                    diff = wi - wj
                    assert any(c.denominator != 1 for c in diff.coords)


@pytest.mark.parametrize("l,node,depth", [(6, 1, 4), (7, 7, 3), (8, 0, 2)],
                         ids=["E6", "E7", "E8"])
def test_e_type_lattice_identity(l, node, depth):
    # the E-type cases of the lattice identity; node 0 is the trivial coset
    rs = build_root_system("E", l)
    om = rs.fundamental_coweight(node) if node else coweight([0] * l)
    lhs = weyl_kac_character(rs, AffineDominantWeight(1, rs.iota(om)), depth)
    rhs = lattice_character(LatticeCoset(rs, om), depth)
    assert first_discrepancy(lhs, rhs) is None


def test_level_two_exploratory_surface():
    rs = build_root_system("A", 1)
    chi = weyl_kac_character(rs, AffineDominantWeight(2, weight([0])), 3)
    assert chi.coeff(weight([0]), Fraction(0)) == 1
    assert all(c > 0 for _, _, c in chi.terms())
    assert chi.is_weyl_invariant()
    assert chi.level == 2


@pytest.mark.parametrize("t,l,depth", [("A", 2, 4), ("B", 3, 3), ("C", 2, 4),
                                       ("G", 2, 4), ("D", 4, 3)])
@pytest.mark.parametrize("level", [1, 2])
def test_translation_layers_match_weyl_group_oracle(t, l, depth, level):
    # the numerator re-indexed over translations alone has the J-layers of the
    # full W x (coroot lattice) sum, for the denominator and each numerator
    rs = build_root_system(t, l)
    hv = rs.dual_coxeter
    rho = rs.rho_weight
    cases = [(hv, rho)]
    for coeffs in [[0] * l] + [[int(i == j) for j in range(l)] for i in range(l)]:
        nu = rs.weight_from_fundamental(coeffs)
        if rs.pair(rs.highest_root_coroot, nu) <= level:
            cases.append((level + hv, nu + rho))
    for khat, shifted in cases:
        got = _alternating_layers(rs, khat, shifted, depth, DEFAULT_ORBIT_CAP)
        assert got == alternating_layers_oracle(rs, khat, shifted, depth)


def test_finite_data_is_per_instance():
    # a root system built directly, freed and replaced, must not hand its
    # cached irreducibles to a later instance (ids of freed objects recur)
    hw = AffineDominantWeight(1, weight([0, 0]))
    want = weyl_kac_character(build_root_system("G", 2), hw, 2).to_text()
    for _ in range(5):
        weyl_kac_character(RootSystem("A", 2), hw, 2)
        assert weyl_kac_character(RootSystem("G", 2), hw, 2).to_text() == want
    a, b = RootSystem("A", 2), RootSystem("A", 2)
    a.finite_weyl_character(a.rho_weight)
    assert a._irrep_cache and not b._irrep_cache

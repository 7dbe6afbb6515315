from fractions import Fraction

import pytest

from affchar.charring import QCharacter, chars_agree
from affchar.fock import (LatticeCoset, lattice_character,
                          minimal_coset_norm_half, multipartition_counts)
from affchar.rootsys import OrbitCapExceeded, build_root_system, coweight, weight
from conftest import (brute_multipartition_count, coset_points_up_to,
                      fock_character)


@pytest.mark.parametrize("colors,depth", [(1, 8), (2, 6), (4, 5)])
def test_multipartition_counts_against_brute_force(colors, depth):
    got = multipartition_counts(colors, depth)
    assert got == [brute_multipartition_count(colors, d) for d in range(depth + 1)]


def test_fock_a1_zero():
    rs = build_root_system("A", 1)
    chi = fock_character(rs, coweight([0]), 1, 3)
    zero = weight([0])
    assert [chi.coeff(zero, Fraction(d)) for d in range(4)] == [1, 1, 2, 3]
    assert chi.truncated
    assert len({w.coords for w, _, _ in chi.terms()}) == 1


def test_fock_single_weight_support():
    rs = build_root_system("C", 2)
    lam = rs.fundamental_coweight(2)
    for k in (1, 2):
        chi = fock_character(rs, lam, k, 4)
        weights = {w for w, _, _ in chi.terms()}
        assert weights == {k * rs.iota(lam)}


def test_fock_offset_a1_alpha():
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    chi = fock_character(rs, alpha, 1, 3)
    assert chi.min_q() == 1  # (alpha,alpha)/2
    chi0 = fock_character(rs, rs.fundamental_coweight(1), 1, 3)
    assert chi0.min_q() == Fraction(1, 4)


def test_lattice_coset_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        LatticeCoset(rs, coweight([Fraction(1, 5), 0]))
    LatticeCoset(rs, rs.fundamental_coweight(1))  # fine


def test_lattice_coset_replace_checks_the_shift():
    rs = build_root_system("A", 2)
    coset = LatticeCoset(rs, rs.fundamental_coweight(1))
    assert coset._replace(shift=rs.fundamental_coweight(2)).shift == rs.fundamental_coweight(2)
    with pytest.raises(ValueError):
        coset._replace(shift=coweight([Fraction(1, 5), 0]))


def test_coset_point_enumeration_a1():
    rs = build_root_system("A", 1)
    pts = coset_points_up_to(rs, coweight([0]), Fraction(4))
    assert sorted(int(p.coords[0]) for p in pts) == [-2, -1, 0, 1, 2]
    assert minimal_coset_norm_half(rs, rs.fundamental_coweight(1)) == Fraction(1, 4)


def test_coset_enumeration_cap():
    rs = build_root_system("D", 4)
    with pytest.raises(OrbitCapExceeded):
        coset_points_up_to(rs, coweight([0, 0, 0, 0]), Fraction(8), cap=5)


def test_lattice_a1_coset_zero_table():
    rs = build_root_system("A", 1)
    chi = lattice_character(LatticeCoset(rs, coweight([0])), 3)
    zero, alpha = weight([0]), rs.simple_root(1)
    expected = {
        (zero, 0): 1,
        (-alpha, 1): 1, (zero, 1): 1, (alpha, 1): 1,
        (-alpha, 2): 1, (zero, 2): 2, (alpha, 2): 1,
        (-alpha, 3): 2, (zero, 3): 3, (alpha, 3): 2,
    }
    assert {(w, int(q)): c for w, q, c in chi.terms()} == expected


def test_lattice_a1_nonzero_coset_pairs():
    rs = build_root_system("A", 1)
    om = rs.fundamental_coweight(1)
    chi = lattice_character(LatticeCoset(rs, om), 3)
    # every layer is symmetric under negation: half-integer weights in pairs
    for d in range(4):
        layer = chi.layer(Fraction(d))
        assert layer
        assert {(-w): c for w, c in layer.items()} == layer
    assert chi.coeff(rs.iota(om), Fraction(0)) == 1
    assert chi.max_q() == 3


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_lattice_depth1_dimension_is_dim_g(t, l):
    rs = build_root_system(t, l)
    chi = lattice_character(LatticeCoset(rs, coweight([0] * l)), 1)
    assert sum(chi.layer(Fraction(1)).values()) == l + 2 * len(rs.positive_roots)


@pytest.mark.parametrize("t,l", [("A", 2), ("D", 4), ("C", 2)])
def test_lattice_weyl_invariant(t, l):
    rs = build_root_system(t, l)
    for om in rs.minuscule_reps().values():
        chi = lattice_character(LatticeCoset(rs, om), 3)
        assert chi.is_weyl_invariant()


@pytest.mark.parametrize("t,l", [("A", 1), ("A", 2), ("C", 2)])
def test_lattice_equals_theta_times_partition_series(t, l):
    # direct cross-check in the character ring: (sum over lattice points of
    # e^(iota x) q^((x,x)/2)) * prod (1-q^n)^-rank, truncated
    rs = build_root_system(t, l)
    depth = Fraction(4)
    zero = coweight([0] * l)
    theta_terms = []
    for pt in coset_points_up_to(rs, zero, depth):
        theta_terms.append((rs.iota(pt), rs.coform(pt, pt) / 2, 1))
    theta = QCharacter(rs, 1, theta_terms, depth=depth, truncated=True)
    heis_terms = [(weight([0] * l), Fraction(d), c)
                  for d, c in enumerate(multipartition_counts(l, 4))]
    heis = QCharacter(rs, 0, heis_terms, depth=depth, truncated=True)
    prod = theta.mul(heis)
    direct = lattice_character(LatticeCoset(rs, zero), depth)
    assert chars_agree(prod, direct)


def _fock_tower_sum(coset, depth):
    # reference: the sum of fock_character towers over coset_points_up_to,
    # normalized to start at q^0 and truncated at the normalized depth
    rs = coset.rs
    bound = depth + minimal_coset_norm_half(rs, coset.shift)
    acc = QCharacter(rs, 1, [], depth=bound, truncated=True)
    for pt in coset_points_up_to(rs, coset.shift, bound):
        acc = acc + fock_character(rs, pt, 1, bound)
    return acc.normalized()


@pytest.mark.parametrize("t,l,zero_coset_only", [
    ("A", 1, False), ("A", 2, False), ("A", 3, False), ("D", 4, False),
    ("C", 2, True), ("G", 2, True)])
def test_lattice_character_is_the_sum_of_fock_towers(t, l, zero_coset_only):
    rs = build_root_system(t, l)
    reps = rs.minuscule_reps()
    shifts = [coweight([0] * l)] if zero_coset_only else list(reps.values())
    assert zero_coset_only or len(shifts) == rs.pi1_order
    for shift in shifts:
        coset = LatticeCoset(rs, shift)
        for depth in (0, 3, 6):
            chi = lattice_character(coset, depth)
            assert chi.truncated and chi.depth == depth
            assert chi._terms == _fock_tower_sum(coset, depth)._terms


def test_lattice_rejects_negative_depth():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        lattice_character(LatticeCoset(rs, coweight([0])), -1)

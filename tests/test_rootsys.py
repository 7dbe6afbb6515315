from fractions import Fraction

import pytest

from affchar.charring import QCharacter
from affchar.rootsys import (Coweight, OrbitCapExceeded, Weight,
                             build_root_system, coweight, weight)
from conftest import (SMALL_TYPES, box_lattice_points, root_system_reference,
                      weyl_character_oracle, weyl_dimension)

ALL_TYPES = SMALL_TYPES + [("F", 4), ("E", 6), ("E", 7), ("E", 8), ("D", 5),
                           ("B", 2), ("C", 3), ("A", 4)]

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("A", 6): 21,
    ("B", 2): 4, ("B", 3): 9, ("C", 2): 4, ("C", 3): 9,
    ("D", 4): 12, ("D", 5): 20, ("G", 2): 6, ("F", 4): 24,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
}


@pytest.mark.parametrize("t,l", ALL_TYPES)
def test_cartan_invariants(t, l):
    rs = build_root_system(t, l)
    a = rs.cartan
    for i in range(l):
        assert a[i][i] == 2
        for j in range(l):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)


@pytest.mark.parametrize("t,l", ALL_TYPES)
def test_positive_roots_and_norms(t, l):
    rs = build_root_system(t, l)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[(t, l)]
    assert len(rs.positive_roots) == len(rs.positive_coroots)
    assert rs.root_norm(rs.highest_root) == 2
    if rs.is_simply_laced():
        assert all(rs.root_norm(r) == 2 for r in rs.positive_roots)
    for r in rs.positive_roots:
        assert rs.pair(rs.coroot_of(r), r) == 2


@pytest.mark.parametrize("bad", [("H", 3), ("A", 0), ("B", 1), ("D", 2),
                                 ("E", 5), ("E", 9), ("F", 3), ("G", 3)])
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        build_root_system(*bad)


def test_a1_data():
    rs = build_root_system("A", 1)
    assert rs.cartan == ((2,),)
    assert len(rs.positive_roots) == 1
    assert rs.highest_root == rs.simple_root(1)


def test_d4_highest_root():
    rs = build_root_system("D", 4)
    assert len(rs.positive_roots) == 4 * 3
    assert rs.highest_root == weight([1, 2, 1, 1])


def test_e6_root_membership():
    # Bourbaki labels (chain 1-3-4-5-6, node 2 on node 4); the combination with
    # coefficient multiset {0,1,1,1,2,2} supported away from one chain end is
    # the first simple root of the A5 Levi used in the E6 stratum analysis
    rs = build_root_system("E", 6)
    beta = weight([1, 1, 2, 2, 1, 0])
    assert beta in rs.positive_roots
    assert rs.highest_root == weight([1, 2, 2, 3, 2, 1])


@pytest.mark.parametrize("t,l", ALL_TYPES)
def test_fundamental_dual_bases(t, l):
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            assert rs.pair(rs.fundamental_coweight(i), rs.simple_root(j)) == \
                (1 if i == j else 0)
            assert rs.pair(rs.simple_coroot(j), rs.fundamental_weight(i)) == \
                (1 if i == j else 0)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_reflection_permutes_other_positive_roots(t, l):
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        others = [r for r in rs.positive_roots if r != rs.simple_root(i)]
        images = {rs.reflect_weight(i, r) for r in others}
        assert images == set(others)
        assert rs.reflect_weight(i, rs.simple_root(i)) == -rs.simple_root(i)


@pytest.mark.parametrize("t,l", SMALL_TYPES + [("E", 6)])
def test_cartan_row_pairings_match_pair(t, l, rng):
    # references written with pair and the simple (co)roots, on random
    # rational points, most of them off the weight and coweight lattices
    rs = build_root_system(t, l)
    for _ in range(6):
        wt = weight([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(l)])
        co = coweight([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(l)])
        other = weight([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(l)])
        assert rs.weight_fundamental_coords(wt) == tuple(
            rs.pair(rs.simple_coroot(i), wt) for i in range(1, l + 1))
        assert rs.coweight_fundamental_coords(co) == tuple(
            rs.pair(co, rs.simple_root(i)) for i in range(1, l + 1))
        for i in range(1, l + 1):
            assert rs.reflect_weight(i, wt) == \
                wt - rs.pair(rs.simple_coroot(i), wt) * rs.simple_root(i)
            assert rs.reflect_coweight(i, co) == \
                co - rs.pair(co, rs.simple_root(i)) * rs.simple_coroot(i)
        assert rs.form(wt, other) == sum(
            rs.root_norm_halves[i] * rs.cartan[i][j] * wt.coords[i] * other.coords[j]
            for i in range(l) for j in range(l))
        assert rs.form(wt, other) == rs.form(other, wt)


def test_weights_and_coweights_are_distinct_types():
    c = (Fraction(1), Fraction(-2))
    assert Weight(c) != Coweight(c)
    assert len({Weight(c), Coweight(c), Weight(c)}) == 2
    assert isinstance(Weight(c) + Weight(c), Weight)
    assert isinstance(-Coweight(c), Coweight) and isinstance(3 * Coweight(c), Coweight)


@pytest.mark.parametrize("t,l", SMALL_TYPES + [("E", 6)])
def test_weight_key_round_trip(t, l, rng):
    rs = build_root_system(t, l)
    for _ in range(6):
        wt = rs.weight_from_fundamental([rng.randint(-4, 4) for _ in range(l)])
        key = rs.weight_key(wt)
        assert all(type(k) is int for k in key)
        assert rs.key_weight(key) == wt
        assert rs.weight_key(rs.key_weight(key)) == key
    off = Fraction(1, 2 * rs.weight_denominator)
    with pytest.raises(ValueError, match="not in the supported lattice"):
        rs.weight_key(weight([off] + [0] * (l - 1)))


# -- iota ------------------------------------------------------------------


def test_iota_zero_and_linearity():
    rs = build_root_system("C", 2)
    zero = coweight([0, 0])
    assert rs.iota(zero).is_zero()
    a, b = rs.simple_coroot(1), rs.fundamental_coweight(2)
    assert rs.iota(a + 3 * b) == rs.iota(a) + 3 * rs.iota(b)


@pytest.mark.parametrize("t,l", [("A", 2), ("A", 3), ("D", 4), ("E", 6)])
def test_iota_identity_simply_laced(t, l):
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        assert rs.iota(rs.simple_coroot(i)).coords == rs.simple_coroot(i).coords
        assert rs.iota(rs.fundamental_coweight(i)) == rs.fundamental_weight(i)


def test_iota_a3_omega2():
    rs = build_root_system("A", 3)
    img = rs.iota(rs.fundamental_coweight(2))
    assert rs.weight_fundamental_coords(img) == (0, 1, 0)


def test_iota_bijection_roundtrip():
    for t, l in SMALL_TYPES:
        rs = build_root_system(t, l)
        for i in range(1, l + 1):
            om = rs.fundamental_coweight(i)
            assert rs.iota_inv(rs.iota(om)) == om


def test_iota_on_scaled_coroots():
    # iota(alpha-coroot) = 2 * root / (root, root)
    for t, l in SMALL_TYPES:
        rs = build_root_system(t, l)
        for r in rs.positive_roots:
            co = rs.coroot_of(r)
            assert rs.iota(co) == (Fraction(2) / rs.root_norm(r)) * r


# -- dominance ----------------------------------------------------------------


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_zero_below_theta_coroot(t, l):
    rs = build_root_system(t, l)
    zero = coweight([0] * l)
    assert rs.dominance_leq(zero, rs.highest_root_coroot)


def test_dominance_basics():
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    zero = coweight([0])
    assert not rs.dominance_leq(alpha, zero)
    rs2 = build_root_system("A", 2)
    assert rs2.highest_root_coroot.coords == (1, 1)
    assert rs2.dominance_leq(coweight([0, 0]), rs2.highest_root_coroot)
    # different fundamental-group cosets are incomparable
    assert not rs2.dominance_leq(rs2.fundamental_coweight(1), rs2.highest_root_coroot)


# -- orbits ------------------------------------------------------------------


def test_weyl_orbit_examples():
    rs = build_root_system("A", 1)
    zero = coweight([0])
    assert rs.weyl_orbit(zero) == frozenset([zero])
    alpha = rs.simple_coroot(1)
    assert rs.weyl_orbit(alpha) == frozenset([alpha, -alpha])
    rs3 = build_root_system("A", 3)
    assert len(rs3.weyl_orbit(rs3.fundamental_coweight(2))) == 6


def test_weyl_orbit_cap():
    rs = build_root_system("D", 4)
    with pytest.raises(OrbitCapExceeded):
        rs.weyl_orbit(rs.rho_coweight, cap=10)


def test_dominant_part_is_orbit_invariant(rng):
    for t, l in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(t, l)
        for _ in range(10):
            lam = coweight([rng.randint(-2, 2) for _ in range(l)])
            dom = rs.dominant_part(lam)
            for other in list(rs.weyl_orbit(lam))[:8]:
                assert rs.dominant_part(other) == dom
            assert rs.is_dominant_coweight(dom)


# -- minuscule classification ---------------------------------------------------


def test_minuscule_reps_examples():
    rs2 = build_root_system("A", 2)
    reps = set(rs2.minuscule_reps().values())
    assert reps == {coweight([0, 0]), rs2.fundamental_coweight(1),
                    rs2.fundamental_coweight(2)}
    rs4 = build_root_system("D", 4)
    reps4 = set(rs4.minuscule_reps().values())
    assert reps4 == {coweight([0, 0, 0, 0]), rs4.fundamental_coweight(1),
                     rs4.fundamental_coweight(3), rs4.fundamental_coweight(4)}
    rs7 = build_root_system("E", 7)
    reps7 = set(rs7.minuscule_reps().values())
    assert reps7 == {coweight([0] * 7), rs7.fundamental_coweight(7)}


@pytest.mark.parametrize("t,l", SMALL_TYPES + [("E", 6), ("E", 7), ("F", 4)])
def test_minuscule_pairing_bound_and_coset_cover(t, l):
    rs = build_root_system(t, l)
    reps = rs.minuscule_reps()
    assert len(reps) == rs.pi1_order
    assert set(reps) == set(rs.pi1_coset_keys)
    for key, om in reps.items():
        assert rs.coset_key(om) == key
        assert rs.is_dominant_coweight(om)
        for alpha in rs.positive_roots:
            assert rs.pair(om, alpha) <= 1


# -- finite characters -----------------------------------------------------------


def test_finite_character_a1():
    rs = build_root_system("A", 1)
    om = rs.fundamental_weight(1)
    ch = rs.finite_weyl_character(om)
    assert ch == {om: 1, -om: 1}


def test_finite_character_a3_vector():
    rs = build_root_system("A", 3)
    ch = rs.finite_weyl_character(rs.fundamental_weight(1))
    assert sum(ch.values()) == 4
    assert sum(ch.values()) == weyl_dimension(rs, rs.fundamental_weight(1))


def test_finite_character_d4_adjoint_dominant_support():
    rs = build_root_system("D", 4)
    om2 = rs.fundamental_weight(2)
    ch = rs.finite_weyl_character(om2)
    dominant = {w for w in ch if rs.is_dominant_weight(w)}
    zero = Weight((Fraction(0),) * 4)
    assert dominant == {om2, zero}
    assert ch[om2] == 1 and ch[zero] == 4


def test_finite_character_rejects_bad_highest_weight():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        rs.finite_weyl_character(-rs.fundamental_weight(1))
    with pytest.raises(ValueError):
        rs.finite_weyl_character(Weight((Fraction(1, 2), Fraction(0))))


@pytest.mark.parametrize("t,l,coeffs", [
    ("A", 2, (1, 1)), ("A", 2, (2, 0)), ("A", 3, (0, 1, 0)),
    ("C", 2, (1, 0)), ("C", 2, (0, 2)), ("G", 2, (1, 0)), ("G", 2, (0, 1)),
    ("D", 4, (1, 0, 0, 0)), ("D", 4, (0, 1, 0, 0)), ("A", 1, (3,)),
    ("B", 3, (1, 0, 0)), ("B", 3, (0, 1, 0)), ("B", 3, (0, 0, 1)),
])
def test_freudenthal_matches_weyl_formula_oracle(t, l, coeffs):
    rs = build_root_system(t, l)
    nu = rs.weight_from_fundamental(coeffs)
    got = rs.finite_weyl_character(nu)
    assert got == weyl_character_oracle(rs, nu)
    assert sum(got.values()) == weyl_dimension(rs, nu)
    assert got[nu] == 1


@pytest.mark.parametrize("t,l,coeffs", [("A", 2, (1, 1)), ("D", 4, (0, 1, 0, 0)),
                                        ("C", 2, (2, 0))])
def test_finite_character_weyl_invariance(t, l, coeffs):
    rs = build_root_system(t, l)
    nu = rs.weight_from_fundamental(coeffs)
    ch = rs.finite_weyl_character(nu)
    for i in range(1, l + 1):
        assert {rs.reflect_weight(i, w): m for w, m in ch.items()} == ch


@pytest.mark.parametrize("t,l", [("F", 4), ("E", 6)])
def test_fundamental_characters_of_large_types(t, l):
    # weyl_character_oracle cannot reach F4 or E6: its long division is
    # quadratic in a numerator of |W| = 1152 or 51840 terms.  Check the
    # fundamental irreducibles against the product formula, Weyl invariance
    # and the zero-weight multiplicities known for small modules.
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        nu = rs.fundamental_weight(i)
        ch = rs.finite_weyl_character(nu)
        assert sum(ch.values()) == weyl_dimension(rs, nu)
        assert ch[nu] == 1 and min(ch.values()) > 0
        for j in range(1, l + 1):
            assert {rs.reflect_weight(j, w): m for w, m in ch.items()} == ch
    zero = Weight((Fraction(0),) * l)
    assert rs.finite_weyl_character(rs.highest_root)[zero] == l
    if t == "F":
        assert rs.finite_weyl_character(rs.fundamental_weight(4))[zero] == 2
    else:
        for i in (1, 6):
            ch = rs.finite_weyl_character(rs.fundamental_weight(i))
            assert len(ch) == 27 and set(ch.values()) == {1}


@pytest.mark.parametrize("coeffs", [[1], [1, 0, 5]])
def test_fundamental_coordinates_reject_wrong_length(coeffs):
    rs = build_root_system("A", 2)
    for convert in (rs.weight_from_fundamental, rs.coweight_from_fundamental):
        with pytest.raises(ValueError, match="expected 2 fundamental coefficients"):
            convert(coeffs)
    line = "w=(%s) q=0/1 coeff=1" % ",".join(map(str, coeffs))
    with pytest.raises(ValueError, match="expected 2"):
        QCharacter.from_text(rs, 1, line)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_lattice_points_match_box_reference(t, l):
    rs = build_root_system(t, l)
    for key in rs.pi1_coset_keys:
        shift = Coweight(key)
        for bound in (0, Fraction(1, 2), 2, 9):
            got = sorted(rs.lattice_points(shift, bound))
            assert got == box_lattice_points(rs, shift, bound)
        assert rs.lattice_points(shift, Fraction(-1, 3)) == []


@pytest.mark.parametrize("t,l", [("A", 6), ("D", 4), ("E", 6), ("E", 7), ("E", 8)])
def test_lattice_points_of_norm_two_are_the_roots(t, l):
    # simply laced: the nonzero coroot-lattice vectors of norm <= 2 are the
    # coroots, one per root; the coordinate box of the reference enumerator
    # holds 1.8e8 points for E8
    rs = build_root_system(t, l)
    pts = rs.lattice_points(coweight([0] * l), 1)
    assert len(pts) == 1 + 2 * POSITIVE_ROOT_COUNTS[(t, l)]
    assert {p for p, norm in pts if norm} == {
        tuple(s * c for c in co.coords) for co in rs.positive_coroots for s in (1, -1)}


REFERENCE_TYPES = ([("A", l) for l in range(1, 9)] + [("B", l) for l in range(2, 7)]
                   + [("C", l) for l in range(2, 7)] + [("D", l) for l in range(3, 8)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("t,l", REFERENCE_TYPES)
def test_construction_matches_fraction_reference(t, l):
    # the integer construction gives every attribute the Fraction one gives,
    # down to the repr (Fraction coordinates, order of tuples and dicts)
    rs = build_root_system(t, l)
    ref = root_system_reference(rs)
    assert {k: repr(getattr(rs, k)) for k in ref} == {k: repr(v) for k, v in ref.items()}


def test_weight_record_semantics():
    # Weight/Coweight keep the frozen-record behaviour characters rely on:
    # the hash and repr of a one-field record, equality only within a class
    w = weight([1, Fraction(-1, 2)])
    assert hash(w) == hash((w.coords,))
    assert repr(w) == "Weight(coords=(Fraction(1, 1), Fraction(-1, 2)))"
    assert w == Weight(w.coords) and w != Coweight(w.coords) and w != w.coords
    with pytest.raises(AttributeError):
        w.coords = (0, 0)
    with pytest.raises(AttributeError):
        del w.coords
    assert {w: 1} == {weight([1, Fraction(-1, 2)]): 1}

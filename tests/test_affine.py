from fractions import Fraction

import pytest

from affchar.affine import (AffineCoroot, AffineRoot, AffineWeight,
                            affine_coroot, curve_data, dominant_coweights_below,
                            fixed_point_support, fixed_point_weight, node_table)
from affchar.rootsys import OrbitCapExceeded, build_root_system, coweight, weight
from conftest import (SMALL_TYPES, dominant_coweights_below_reference, node_pairing,
                      reflect_affine_weight)


# -- affine coroots -----------------------------------------------------------


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_affine_coroot_n0_is_finite_coroot(t, l):
    rs = build_root_system(t, l)
    for alpha in rs.positive_roots:
        ac = affine_coroot(rs, AffineRoot(0, alpha))
        assert ac.k_coeff == 0 and ac.finite == rs.coroot_of(alpha)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_alpha0_coroot_is_k_minus_theta(t, l):
    rs = build_root_system(t, l)
    ac = affine_coroot(rs, AffineRoot(1, -rs.highest_root))
    assert ac == AffineCoroot(Fraction(1), -rs.highest_root_coroot)


@pytest.mark.parametrize("t,l", [("A", 2), ("A", 3), ("D", 4)])
def test_simply_laced_coroot_is_nk_plus_alpha(t, l):
    rs = build_root_system(t, l)
    for alpha in rs.positive_roots:
        for n in (0, 1, 3):
            ac = affine_coroot(rs, AffineRoot(n, alpha))
            assert ac == AffineCoroot(Fraction(n), rs.coroot_of(alpha))


def test_affine_coroot_rejects_imaginary():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        affine_coroot(rs, AffineRoot(1, weight([0])))


@pytest.mark.parametrize("t,l", [("A", 2), ("C", 2), ("G", 2), ("D", 4)])
def test_affine_coroot_reflection_equivariance(t, l):
    # mirrors the induction proving the coroot formula: finite nodes act on the
    # finite parts, the affine node acts through K - theta
    rs = build_root_system(t, l)
    theta, theta_co = rs.highest_root, rs.highest_root_coroot
    roots = list(rs.positive_roots) + [-a for a in rs.positive_roots]
    for alpha in roots:
        for n in (0, 1, 2):
            psi = AffineRoot(n, alpha)
            ac = affine_coroot(rs, psi)
            for i in range(1, l + 1):
                lhs = affine_coroot(rs, AffineRoot(n, rs.reflect_weight(i, alpha)))
                assert lhs == AffineCoroot(ac.k_coeff,
                                           rs.reflect_coweight(i, ac.finite))
            m = rs.pair(theta_co, alpha)
            refl = AffineRoot(n + int(m), alpha - m * theta)
            if not refl.finite.is_zero():
                mm = rs.pair(ac.finite, theta)
                want = AffineCoroot(ac.k_coeff + mm, ac.finite - mm * theta_co)
                assert affine_coroot(rs, refl) == want


# -- fixed point weights --------------------------------------------------------


def test_fixed_point_weight_zero():
    rs = build_root_system("C", 2)
    for k in (1, 3):
        aw = fixed_point_weight(rs, coweight([0, 0]), k)
        assert aw == AffineWeight(k, weight([0, 0]), Fraction(0))


def test_fixed_point_weight_a1_alpha():
    rs = build_root_system("A", 1)
    aw = fixed_point_weight(rs, rs.simple_coroot(1), 1)
    assert aw == AffineWeight(1, weight([-1]), Fraction(-1))


def test_fixed_point_weight_d4_omega1():
    rs = build_root_system("D", 4)
    aw = fixed_point_weight(rs, rs.fundamental_coweight(1), 1)
    assert aw.level == 1
    assert aw.finite == -rs.fundamental_weight(1)
    assert aw.delta_deg == Fraction(-1, 2)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_fixed_point_weight_alpha0_pairing(t, l):
    # level bookkeeping: the pairing against K - theta is k + k*(mu, theta)
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        mu = rs.fundamental_coweight(i)
        for k in (1, 2):
            aw = fixed_point_weight(rs, mu, k)
            assert node_pairing(rs, aw, 0) == \
                k + k * rs.pair(rs.highest_root_coroot, rs.iota(mu))


@pytest.mark.parametrize("t,l", SMALL_TYPES + [("E", 6)])
def test_node_table_matches_fraction_reference(t, l, rng):
    # the integer node table against the Fraction pairing and reflection of
    # AffineWeights, on random weights at levels 1-3 and every node
    rs = build_root_system(t, l)
    nodes = node_table(rs)
    assert len(nodes) == l + 1

    def key_of(aw):
        q = -aw.delta_deg * rs.q_denominator
        assert q.denominator == 1
        return (int(q),) + rs.weight_key(aw.finite)

    for _ in range(30):
        fin = rs.weight_from_fundamental([rng.randint(-3, 3) for _ in range(l)])
        deg = Fraction(rng.randint(-30, 30), rs.q_denominator)
        for k in (1, 2, 3):
            aw = AffineWeight(k, fin, deg)
            key = key_of(aw)
            for i, node in enumerate(nodes):
                m = node.pairing(key, k)
                assert m == node_pairing(rs, aw, i)
                assert tuple(a + m * d for a, d in zip(key, node.step)) == \
                    key_of(reflect_affine_weight(rs, i, aw))


# -- invariant curves -------------------------------------------------------------


def test_curve_data_a1_examples():
    rs = build_root_system("A", 1)
    alpha_co = rs.simple_coroot(1)
    alpha = rs.simple_root(1)
    cd = curve_data(rs, alpha_co, AffineRoot(0, alpha))
    assert cd.degree == 2
    assert cd.endpoints == (alpha_co, -alpha_co)
    cd = curve_data(rs, alpha_co, AffineRoot(1, alpha))
    assert cd.degree == 1
    assert cd.endpoints == (alpha_co, coweight([0]))


def test_curve_degenerate_rejected():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        curve_data(rs, rs.simple_coroot(1), AffineRoot(2, rs.simple_root(1)))
    with pytest.raises(ValueError):
        curve_data(rs, coweight([0]), AffineRoot(0, rs.simple_root(1)))


@pytest.mark.parametrize("t,l", [("A", 2), ("C", 2), ("D", 4), ("G", 2)])
def test_curve_long_root_unit_pairing_degree_one(t, l):
    rs = build_root_system(t, l)
    for i in range(1, l + 1):
        lam = rs.fundamental_coweight(i)
        for alpha in rs.positive_roots:
            if rs.root_norm(alpha) == 2 and rs.pair(lam, alpha) == 1:
                assert curve_data(rs, lam, AffineRoot(0, alpha)).degree == 1


@pytest.mark.parametrize("t,l", [("A", 2), ("C", 2)])
def test_curve_endpoints_in_fixed_support(t, l):
    rs = build_root_system(t, l)
    lam = rs.highest_root_coroot
    support = fixed_point_support(rs, lam)
    for alpha in rs.positive_roots:
        top = int(rs.pair(lam, alpha))
        for n in range(top):
            cd = curve_data(rs, lam, AffineRoot(n, alpha))
            a, b = cd.endpoints
            assert a in support and b in support
            assert a - b == (top - n) * rs.coroot_of(alpha)


# -- fixed point support --------------------------------------------------------------


def test_support_minuscule_is_single_orbit():
    rs = build_root_system("D", 4)
    om = rs.fundamental_coweight(1)
    assert fixed_point_support(rs, om) == rs.weyl_orbit(om)


def test_support_a1_alpha():
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    assert fixed_point_support(rs, alpha) == \
        frozenset([alpha, coweight([0]), -alpha])


def test_support_a2_theta_seven_points():
    rs = build_root_system("A", 2)
    assert len(fixed_point_support(rs, rs.highest_root_coroot)) == 7


def test_support_monotone():
    rs = build_root_system("A", 2)
    theta = rs.highest_root_coroot
    small = fixed_point_support(rs, theta)
    big = fixed_point_support(rs, 2 * theta)
    assert small <= big
    assert rs.dominance_leq(theta, 2 * theta)


def test_dominant_below_stays_in_coset():
    rs = build_root_system("A", 3)
    lam = 2 * rs.fundamental_coweight(2)
    below = dominant_coweights_below(rs, lam)
    key = rs.coset_key(lam)
    assert all(rs.coset_key(mu) == key for mu in below)
    assert all(rs.dominance_leq(mu, lam) for mu in below)


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_dominant_below_matches_fraction_reference(t, l):
    # the integer label walk returns the Fraction walk's list, reprs included
    rs = build_root_system(t, l)
    lams = [rs.coweight_from_fundamental([(i + j) % 3 for j in range(l)])
            for i in range(3)]
    lams.append(rs.coweight_from_fundamental([Fraction(1, 2)] + [1] * (l - 1)))
    for lam in lams:
        assert repr(dominant_coweights_below(rs, lam)) == \
            repr(dominant_coweights_below_reference(rs, lam))


def test_dominant_below_honours_cap():
    rs = build_root_system("A", 2)
    lam = rs.coweight_from_fundamental([3, 3])
    below = dominant_coweights_below(rs, lam)
    assert dominant_coweights_below(rs, lam, cap=len(below)) == below
    with pytest.raises(OrbitCapExceeded):
        dominant_coweights_below(rs, lam, cap=len(below) - 1)

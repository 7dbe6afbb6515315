import itertools
import random
from fractions import Fraction

import pytest

from affchar.affine import dominant_coweights_below, fixed_point_weight
from affchar.charring import QCharacter, TruncatedCharacterError, chars_agree
from affchar.demazure import (TensorCheck, boundary_dimension_check,
                              demazure_character, finite_support,
                              fixed_support_image, restriction_domination_check,
                              smooth_locus_profile, tensor_product_check)
from affchar.kacweyl import AffineDominantWeight, weyl_kac_character
from affchar.rootsys import build_root_system, coweight, weight
from affchar.cli import identity_check_suite
from conftest import (SMALL_TYPES, demazure_character_from_word, mul_reference,
                      node_pairing, reflect_affine_weight)


def test_unit_character_for_zero():
    rs = build_root_system("D", 4)
    dc = demazure_character(rs, coweight([0, 0, 0, 0]), 1)
    assert dc.char.total() == 1
    assert dc.word == ()
    assert list(dc.char.terms()) == [(weight([0, 0, 0, 0]), Fraction(0), 1)]


def test_rejects_bad_inputs():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        demazure_character(rs, rs.highest_root_coroot, 0)
    with pytest.raises(ValueError, match=r"pairing vector \(-1, -1\)$"):
        demazure_character(rs, -rs.highest_root_coroot, 1)
    with pytest.raises(ValueError):
        demazure_character(rs, coweight([Fraction(1, 3), 0]), 1)


def test_hand_oracle_a1_alpha():
    # worked by hand: raising (Lambda - root - delta) hits nodes 1 then 0, so
    # the character is D1 D0 e^Lambda: layer q^0 = {0}, layer q^1 the full
    # root string {root, 0, -root}; dimension 4, weight-0 multiplicity 2
    rs = build_root_system("A", 1)
    alpha_co = rs.simple_coroot(1)
    dc = demazure_character(rs, alpha_co, 1)
    alpha = rs.simple_root(1)
    expected = {
        (weight([0]), Fraction(0)): 1,
        (alpha, Fraction(1)): 1,
        (weight([0]), Fraction(1)): 1,
        (-alpha, Fraction(1)): 1,
    }
    assert {(w, q): c for w, q, c in dc.char.terms()} == expected
    assert dc.char.total() == 4
    assert len(dc.word) == 2
    q1 = dc.char.specialize_q1()
    assert q1.get(weight([0]), 0) == 2
    assert q1.get(rs.iota(alpha_co), 0) == 1


def test_minuscule_a1_adjoint():
    rs = build_root_system("A", 1)
    om = rs.fundamental_coweight(1)
    dc = demazure_character(rs, om, 1)
    assert dc.char.max_q() == 0
    assert dc.char.layer(Fraction(0)) == rs.finite_weyl_character(rs.iota(om))
    assert dc.char.total() == 2


@pytest.mark.parametrize("t,l,coeffs,k", [
    ("A", 1, [2], 1), ("A", 2, [1, 1], 1), ("A", 2, [2, 1], 1),
    ("C", 2, [1, 0], 1), ("D", 4, [0, 1, 0, 0], 1), ("A", 1, [2], 2),
])
def test_base_weight_and_invariants(t, l, coeffs, k):
    rs = build_root_system(t, l)
    lam = rs.coweight_from_fundamental(coeffs)
    dc = demazure_character(rs, lam, k)
    # base weight: affine-dominant raising output at level k whose finite part
    # is k times the minuscule weight of the coset of -lam
    assert dc.base_weight.level == k
    minus_key = rs.coset_key(-lam)
    om = rs.minuscule_reps()[minus_key]
    assert dc.base_weight.finite == k * rs.iota(om)
    for i in range(0, l + 1):
        assert node_pairing(rs, dc.base_weight, i) >= 0
    # q^0 layer is the irreducible with highest weight k * (minuscule of coset(lam))
    om_plus = rs.minuscule_reps()[rs.coset_key(lam)]
    assert dc.char.layer(Fraction(0)) == \
        rs.finite_weyl_character(k * rs.iota(om_plus))
    # extreme weight k*iota(lam) at the deepest layer with multiplicity 1
    assert dc.char.coeff(k * rs.iota(lam), dc.char.max_q()) == 1
    # Weyl invariance and nonnegativity along the reduced-word application
    assert dc.char.is_weyl_invariant()
    assert all(c > 0 for _, _, c in dc.char.terms())
    # q-span matches the norm drop between lam and its coset minuscule
    span = Fraction(k) * (rs.coform(lam, lam) - rs.coform(om_plus, om_plus)) / 2
    assert dc.char.max_q() == span


@pytest.mark.parametrize("t,l", [("A", 2), ("C", 2), ("D", 4)])
def test_word_independence(t, l, rng):
    rs = build_root_system(t, l)
    for _ in range(4):
        coeffs = [rng.randint(0, 2) for _ in range(l)]
        lam = rs.coweight_from_fundamental(coeffs)
        dc = demazure_character(rs, lam, 1)
        mu = fixed_point_weight(rs, lam, 1)
        word_rev = []
        guard = 0
        while True:
            guard += 1
            assert guard < 10**5
            neg = [i for i in range(l + 1) if node_pairing(rs, mu, i) < 0]
            if not neg:
                break
            i = rng.choice(neg)
            word_rev.append(i)
            mu = reflect_affine_weight(rs, i, mu)
        other = demazure_character_from_word(rs, lam, 1, tuple(reversed(word_rev)))
        assert other == dc.char


@pytest.mark.parametrize("t,l", SMALL_TYPES)
def test_raising_word_length_is_translation_length(t, l):
    # the raising word is a reduced word of the translation t_lam, whose
    # length is <lam, 2 rho> = sum of <lam, alpha> over the positive roots;
    # the coefficients run off the coroot lattice too
    # levels 2 and 3 only up to the fundamental coweights: beyond them the
    # B3, D4 and G2 characters take seconds each
    levels = {0: (1, 2, 3), 1: (1, 2, 3), 2: (1,)}
    rs = build_root_system(t, l)
    for coeffs in itertools.product(range(3), repeat=l):
        lam = rs.coweight_from_fundamental(coeffs)
        length = sum(rs.pair(lam, a) for a in rs.positive_roots)
        for k in levels.get(sum(coeffs), ()):
            assert len(demazure_character(rs, lam, k).word) == length


def test_finite_multiplicity_guards():
    rs = build_root_system("A", 1)
    dc = demazure_character(rs, rs.simple_coroot(1), 1, depth=Fraction(1, 2))
    assert dc.char.truncated
    with pytest.raises(TruncatedCharacterError):
        dc.char.specialize_q1()


def test_extreme_orbit_multiplicity_one():
    rs = build_root_system("A", 2)
    lam = 2 * rs.fundamental_coweight(1)
    q1 = demazure_character(rs, lam, 1).char.specialize_q1()
    for w in rs.weyl_orbit(lam):
        assert q1.get(rs.iota(w), 0) == 1


# -- tensor factorization -------------------------------------------------------


def test_tensor_unit_factor():
    rs = build_root_system("A", 2)
    res = tensor_product_check(rs, coweight([0, 0]), rs.highest_root_coroot, 1)
    assert res.holds


def test_tensor_a1_dimensions():
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    res = tensor_product_check(rs, alpha, alpha, 1)
    assert res.holds
    assert sum(res.lhs.values()) == 16


def test_tensor_c2_theta():
    rs = build_root_system("C", 2)
    th = rs.highest_root_coroot
    assert tensor_product_check(rs, th, th, 1).holds


# -- restriction domination ------------------------------------------------------


def test_domination_examples():
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    assert restriction_domination_check(rs, alpha, alpha, 1)
    assert restriction_domination_check(rs, alpha, coweight([0]), 1)
    rs2 = build_root_system("A", 2)
    th = rs2.highest_root_coroot
    assert restriction_domination_check(rs2, 2 * th, th, 1)
    with pytest.raises(ValueError):
        restriction_domination_check(rs2, th, rs2.fundamental_coweight(1), 1)


# -- fixed support and smooth locus ------------------------------------------------


@pytest.mark.parametrize("t,l,coeffs", [
    ("A", 2, [1, 1]), ("A", 2, [2, 0]), ("A", 3, [0, 2, 0]), ("D", 4, [1, 0, 0, 0]),
])
def test_support_matches_fixed_locus(t, l, coeffs):
    rs = build_root_system(t, l)
    lam = rs.coweight_from_fundamental(coeffs)
    dc = demazure_character(rs, lam, 1)
    assert finite_support(dc) == fixed_support_image(rs, lam)


def test_smooth_profile_a2():
    rs = build_root_system("A", 2)
    lam = 2 * rs.fundamental_coweight(1)
    profile = smooth_locus_profile(rs, lam)
    below = dominant_coweights_below(rs, lam)
    assert set(profile) == set(below)
    for mu, mult in profile.items():
        assert (mult == 1) == (mu == lam)


# -- the q = 1 checks against the graded character -----------------------------------


def _graded_q1(rs, lam, k):
    return demazure_character(rs, lam, k).char.specialize_q1()


def _graded_check(rs, check, params):
    """The result of a battery check's demazure function, computed from the
    graded characters summed over q, with the tuple-key product."""
    k = params.get("level", 1)
    lam = rs.coweight_from_fundamental(params["lam"])
    if check == "smooth-locus":
        q1 = _graded_q1(rs, lam, k)
        return {mu: q1.get(rs.iota(mu), 0) for mu in dominant_coweights_below(rs, lam)}
    mu = rs.coweight_from_fundamental(params["mu"])
    if check == "domination":
        big, small = _graded_q1(rs, lam, k), _graded_q1(rs, mu, k)
        return all(big.get(w, 0) >= c for w, c in small.items())
    a, b = (demazure_character(rs, x, k).char.at_q1() for x in (lam, mu))
    lhs = _graded_q1(rs, lam + mu, k)
    rhs = mul_reference(a, b).specialize_q1()
    return TensorCheck(lhs == rhs, lhs, rhs)


_Q1_CHECKS = {
    "tensor": lambda rs, p, lam, k: tensor_product_check(
        rs, lam, rs.coweight_from_fundamental(p["mu"]), k),
    "smooth-locus": lambda rs, p, lam, k: smooth_locus_profile(rs, lam, k),
    "domination": lambda rs, p, lam, k: restriction_domination_check(
        rs, lam, rs.coweight_from_fundamental(p["mu"]), k),
}


@pytest.mark.parametrize("check,params", [
    (c, p) for c, p, _ in identity_check_suite() if c in _Q1_CHECKS],
    ids=lambda x: x if isinstance(x, str) else "%s%d-%s" % (
        x["type"], x["rank"], ",".join(map(str, x["lam"] + x.get("mu", [])))))
def test_q1_checks_match_the_graded_reference(check, params):
    # tensor, smooth-locus and domination read the q = 1 kernel; on the
    # battery's lambda lists they give what the graded characters give
    rs = build_root_system(params["type"], params["rank"])
    lam = rs.coweight_from_fundamental(params["lam"])
    k = params.get("level", 1)
    assert _Q1_CHECKS[check](rs, params, lam, k) == _graded_check(rs, check, params)
    assert demazure_character(rs, lam, k, at_q1=True).char == \
        demazure_character(rs, lam, k).char.at_q1()


def test_tensor_returns_one_map_when_both_sides_agree():
    rs = build_root_system("A", 2)
    th = rs.highest_root_coroot
    res = tensor_product_check(rs, th, th, 1)
    assert res.holds and res.lhs is res.rhs


def test_tensor_returns_both_maps_when_the_sides_differ(monkeypatch):
    # a product scaled by 2 stands in for a failing factorization
    rs = build_root_system("A", 1)
    alpha = rs.simple_coroot(1)
    mul = QCharacter.mul
    monkeypatch.setattr(QCharacter, "mul", lambda a, b: mul(a, b).scale(2))
    res = tensor_product_check(rs, alpha, alpha, 1)
    assert not res.holds
    assert res.rhs == {w: 2 * c for w, c in res.lhs.items()}


def test_q1_character_takes_no_depth():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        demazure_character(rs, rs.simple_coroot(1), 1, depth=2, at_q1=True)


# -- stabilization -----------------------------------------------------------------


def test_stabilization_a1_small():
    rs = build_root_system("A", 1)
    target = weyl_kac_character(rs, AffineDominantWeight(1, weight([0])), 3)
    theta = rs.highest_root_coroot
    ch4 = demazure_character(rs, 4 * theta, 1).char.truncate(3)
    assert chars_agree(ch4, target)


def test_stabilization_nonzero_coset():
    # pins the sign conventions across all three engines: the omega_1-coset
    # tower converges to the irreducible with highest finite weight iota(omega_1)
    rs = build_root_system("A", 2)
    om = rs.fundamental_coweight(1)
    target = weyl_kac_character(rs, AffineDominantWeight(1, rs.iota(om)), 3)
    theta = rs.highest_root_coroot
    for n in (3, 4):
        cur = demazure_character(rs, om + n * theta, 1).char.truncate(3)
        assert chars_agree(cur, target)
    rs4 = build_root_system("D", 4)
    om3 = rs4.fundamental_coweight(3)
    target4 = weyl_kac_character(rs4, AffineDominantWeight(1, rs4.iota(om3)), 2)
    cur4 = demazure_character(
        rs4, om3 + 3 * rs4.highest_root_coroot, 1).char.truncate(2)
    assert chars_agree(cur4, target4)


@pytest.mark.slow
def test_boundary_dimension_check_d5():
    rs = build_root_system("D", 5)
    # interpretation-dependent reading of the boundary stratum index
    assert boundary_dimension_check(rs, 3)


def test_boundary_check_guards():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        boundary_dimension_check(rs, 2)


def test_affine_weight_record_repr_and_hash():
    rs = build_root_system("A", 2)
    base = demazure_character(rs, rs.fundamental_coweight(1), 1).base_weight
    assert repr(base) == (
        "AffineWeight(level=1, finite=Weight(coords=(Fraction(1, 3), "
        "Fraction(2, 3))), delta_deg=Fraction(-1, 3))")
    assert hash(base) == hash((base.level, base.finite, base.delta_deg))

"""Acceptance battery: every identity the package exists to verify, exercised
at the agreed parameter ranges with exact integer equality (tolerance 0).
Each criterion prints one PASS/FAIL line (run with -s to see them live)."""

import random
from fractions import Fraction

import pytest

from affchar.affine import (AffineRoot, affine_coroot, curve_data,
                            dominant_coweights_below, fixed_point_weight)
from affchar.charring import chars_agree, first_discrepancy
from affchar.demazure import (demazure_character, finite_support,
                              fixed_support_image, tensor_product_check)
from affchar.fock import LatticeCoset, lattice_character
from affchar.kacweyl import AffineDominantWeight, weyl_kac_character
from affchar.rootsys import build_root_system, coweight, weight
from conftest import (affine_bond_order, demazure_character_from_word,
                      node_pairing, random_qcharacter, reflect_affine_weight)

FKS_TYPES = [("A", 1), ("A", 2), ("A", 3), ("D", 4)]
BATTERY_TYPES = [("A", 2), ("A", 3), ("D", 4)]


def _report(number, name, ok):
    print("ACCEPTANCE %2d %-18s: %s" % (number, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (number, name)


def _small_dominant(rank, total):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], total)
    return sorted(out)


_battery_cache = {}


def _battery_character(t, l, coeffs):
    key = (t, l, coeffs)
    if key not in _battery_cache:
        rs = build_root_system(t, l)
        lam = rs.coweight_from_fundamental(coeffs)
        _battery_cache[key] = (lam, demazure_character(rs, lam, 1))
    return _battery_cache[key]


def test_criterion_01_fks_identity():
    ok = True
    for t, l in FKS_TYPES:
        rs = build_root_system(t, l)
        for _, om in sorted(rs.minuscule_reps().items()):
            lhs = weyl_kac_character(rs, AffineDominantWeight(1, rs.iota(om)), 8)
            rhs = lattice_character(LatticeCoset(rs, om), 8)
            ok = ok and first_discrepancy(lhs, rhs) is None
    _report(1, "fks-identity", ok)


def test_criterion_02_non_simply_laced_control():
    ok = True
    for t, l in [("C", 2), ("G", 2)]:
        rs = build_root_system(t, l)
        lhs = weyl_kac_character(rs, AffineDominantWeight(1, weight([0] * l)), 8)
        rhs = lattice_character(LatticeCoset(rs, coweight([0] * l)), 8)
        fd = first_discrepancy(lhs, rhs)
        ok = ok and fd is not None
        if fd is not None:
            _, q, a, b = fd
            # derived from the two oracles: both comparisons first split at q=1
            ok = ok and a > b and q == 1
    _report(2, "negative-control", ok)


def test_criterion_03_tensor_multiplicativity():
    cases = []
    for t, l in [("A", 1), ("A", 2), ("D", 4), ("C", 2)]:
        rs = build_root_system(t, l)
        th = rs.highest_root_coroot if (t, l) != ("A", 1) else rs.simple_coroot(1)
        cases.append((rs, th, th, 1))
    rs1 = build_root_system("A", 1)
    cases.append((rs1, rs1.simple_coroot(1), rs1.simple_coroot(1), 2))
    ok = True
    for rs, lam, mu, k in cases:
        res = tensor_product_check(rs, lam, mu, k)
        ok = ok and res.holds
    _report(3, "tensor-product", ok)


def test_criterion_04_hand_oracle_a1():
    rs = build_root_system("A", 1)
    alpha_co, alpha = rs.simple_coroot(1), rs.simple_root(1)
    dc = demazure_character(rs, alpha_co, 1)
    hand = {
        (weight([0]), Fraction(0)): 1,
        (alpha, Fraction(1)): 1,
        (weight([0]), Fraction(1)): 1,
        (-alpha, Fraction(1)): 1,
    }
    got = {(w, q): c for w, q, c in dc.char.terms()}
    ok = (got == hand and dc.char.total() == 4
          and dc.char.specialize_q1().get(weight([0]), 0) == 2)
    _report(4, "hand-oracle-a1", ok)


def test_criterion_05_fixed_point_support():
    ok = True
    for t, l in BATTERY_TYPES:
        rs = build_root_system(t, l)
        for coeffs in _small_dominant(l, 3):
            lam, dc = _battery_character(t, l, coeffs)
            ok = ok and finite_support(dc) == fixed_support_image(rs, lam)
    _report(5, "fixed-support", ok)


def test_criterion_06_smooth_locus():
    ok = True
    for t, l in BATTERY_TYPES:
        if t == "A" or t == "D":
            rs = build_root_system(t, l)
            for coeffs in _small_dominant(l, 3):
                lam, dc = _battery_character(t, l, coeffs)
                q1 = dc.char.specialize_q1()
                for mu in dominant_coweights_below(rs, lam):
                    mult = q1.get(rs.iota(mu), 0)
                    ok = ok and ((mult == 1) == (mu == lam)) and mult >= 1
    # E-type spot checks: the non-minuscule, non-adjoint fundamental strata
    # known to satisfy the criterion
    for t, l, node in [("E", 6, 3), ("E", 6, 5), ("E", 7, 2), ("E", 7, 6),
                       ("E", 8, 1)]:
        rse = build_root_system(t, l)
        lam = rse.fundamental_coweight(node)
        q1 = demazure_character(rse, lam, 1).char.specialize_q1()
        below = dominant_coweights_below(rse, lam)
        ok = ok and len(below) >= 2
        for mu in below:
            mult = q1.get(rse.iota(mu), 0)
            ok = ok and ((mult == 1) == (mu == lam)) and mult >= 1
    _report(6, "smooth-locus", ok)


def test_criterion_07_borel_weil_stabilization():
    ok = True
    for t, l in [("A", 1), ("A", 2)]:
        rs = build_root_system(t, l)
        target = weyl_kac_character(rs, AffineDominantWeight(1, weight([0] * l)), 3)
        theta = rs.highest_root_coroot
        prev = None
        for n in range(1, 7):
            cur = demazure_character(rs, n * theta, 1).char.truncate(3)
            if prev is not None:
                for w, q, c in prev.terms():
                    ok = ok and cur.coeff(w, q) >= c
            if n >= 4:
                ok = ok and chars_agree(cur, target)
            prev = cur
    _report(7, "borel-weil-limit", ok)


def test_criterion_08_minuscule_layer():
    ok = True
    for t, l in BATTERY_TYPES + [("E", 6)]:
        rs = build_root_system(t, l)
        for _, om in sorted(rs.minuscule_reps().items()):
            if om.is_zero():
                continue
            dc = demazure_character(rs, om, 1)
            single_layer = dc.char.max_q() == 0
            matches = dc.char.layer(Fraction(0)) == \
                rs.finite_weyl_character(rs.iota(om))
            dim_ok = dc.char.total() == len(rs.weyl_orbit(om))
            ok = ok and single_layer and matches and dim_ok
    _report(8, "minuscule-layer", ok)


def test_criterion_09_formula_spot_checks():
    ok = True
    for t, l in FKS_TYPES + [("C", 2), ("G", 2)]:
        rs = build_root_system(t, l)
        a0 = affine_coroot(rs, AffineRoot(1, -rs.highest_root))
        ok = ok and a0.k_coeff == 1 and a0.finite == -rs.highest_root_coroot
    rs = build_root_system("A", 1)
    cd = curve_data(rs, rs.simple_coroot(1), AffineRoot(0, rs.simple_root(1)))
    ok = ok and cd.degree == 2
    for t, l in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(t, l)
        for i in range(1, l + 1):
            lam = rs.fundamental_coweight(i)
            for alpha in rs.positive_roots:
                if rs.root_norm(alpha) == 2 and rs.pair(lam, alpha) == 1:
                    ok = ok and curve_data(rs, lam,
                                           AffineRoot(0, alpha)).degree == 1
    _report(9, "formula-spot-checks", ok)


def test_criterion_10_operator_property_suite():
    ok = True
    rnd = random.Random(771)
    for t, l in [("A", 2), ("C", 2), ("D", 4)]:
        rs = build_root_system(t, l)
        nodes = list(range(l + 1))
        pairs = [(i, j) for i in nodes for j in nodes if i < j
                 and affine_bond_order(rs, i, j) in (2, 3)]
        for _ in range(100):
            chi = random_qcharacter(rs, rnd, level=rnd.randint(1, 2),
                                    nterms=5, span=2, qspan=3)
            i = rnd.choice(nodes)
            di = chi.demazure(i)
            ok = ok and di.demazure(i) == di
            i, j = pairs[rnd.randrange(len(pairs))]
            if affine_bond_order(rs, i, j) == 2:
                ok = ok and chi.demazure(i).demazure(j) == \
                    chi.demazure(j).demazure(i)
            else:
                ok = ok and chi.demazure(i).demazure(j).demazure(i) == \
                    chi.demazure(j).demazure(i).demazure(j)
    # Demazure word independence on 20 random dominant coweights
    picks = 0
    while picks < 20:
        t, l = [("A", 2), ("C", 2), ("D", 4)][picks % 3]
        rs = build_root_system(t, l)
        coeffs = [rnd.randint(0, 2) for _ in range(l)]
        if not any(coeffs):
            continue
        picks += 1
        lam = rs.coweight_from_fundamental(coeffs)
        dc = demazure_character(rs, lam, 1)
        mu = fixed_point_weight(rs, lam, 1)
        word_rev = []
        while True:
            neg = [i for i in range(l + 1) if node_pairing(rs, mu, i) < 0]
            if not neg:
                break
            i = rnd.choice(neg)
            word_rev.append(i)
            mu = reflect_affine_weight(rs, i, mu)
        other = demazure_character_from_word(rs, lam, 1,
                                             tuple(reversed(word_rev)))
        ok = ok and other == dc.char
    _report(10, "operator-properties", ok)

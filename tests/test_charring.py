import random
from fractions import Fraction

import pytest

from affchar.charring import (QCharacter, TruncatedCharacterError, chars_agree,
                              first_discrepancy)
from affchar.rootsys import Weight, build_root_system, weight
from conftest import random_qcharacter


def single(rs, w, q=0, level=0, coeff=1, depth=None):
    return QCharacter(rs, level, [(w, Fraction(q), coeff)], depth=depth)


# -- ring structure ----------------------------------------------------------


def test_mul_unit():
    rs = build_root_system("A", 2)
    a = single(rs, rs.simple_root(1), q=2, level=1, coeff=3)
    assert a.mul(QCharacter.unit(rs)) == a


def test_mul_truncation_example():
    rs = build_root_system("A", 1)
    om = rs.fundamental_weight(1)
    a = QCharacter(rs, 0, [(om, Fraction(0), 1), (-om, Fraction(1), 1)], depth=1)
    sq = a.mul(a)
    assert sq.truncated
    assert sq.coeff(2 * om, Fraction(0)) == 1
    assert sq.coeff(weight([0]), Fraction(1)) == 2
    assert len(sq) == 2  # the q^2 term is gone


def test_mul_mass_bound(rng):
    rs = build_root_system("A", 2)
    for _ in range(5):
        a = random_qcharacter(rs, rng, depth=6)
        b = random_qcharacter(rs, rng, depth=6)
        prod = a.mul(b)
        assert sum(abs(c) for _, _, c in prod.terms()) <= \
            sum(abs(c) for _, _, c in a.terms()) * sum(abs(c) for _, _, c in b.terms())


def test_mul_depth_mismatch_rejected():
    rs = build_root_system("A", 1)
    a = single(rs, rs.simple_root(1), depth=2)
    b = single(rs, rs.simple_root(1), depth=3)
    with pytest.raises(ValueError):
        a.mul(b)


def test_mul_levels_add_commutative_associative(rng):
    rs = build_root_system("C", 2)
    a = random_qcharacter(rs, rng, level=1)
    b = random_qcharacter(rs, rng, level=2)
    c = random_qcharacter(rs, rng, level=1)
    ab = a.mul(b)
    assert ab.level == 3
    assert ab == b.mul(a)
    assert ab.mul(c) == a.mul(b.mul(c))
    # distributivity over addition
    assert (a + a.scale(2)).mul(b) == a.mul(b) + a.mul(b).scale(2)


# -- Demazure operators ----------------------------------------------------------


def test_demazure_single_term_branches():
    rs = build_root_system("A", 1)
    # pairing 0: fixed
    chi = single(rs, weight([0]))
    assert chi.demazure(1) == chi
    # pairing 2: full string of length 3
    chi = single(rs, rs.simple_root(1))
    out = chi.demazure(1)
    assert {(w, q): c for w, q, c in out.terms()} == {
        (rs.simple_root(1), 0): 1, (weight([0]), 0): 1, (-rs.simple_root(1), 0): 1}
    # pairing -1: zero
    chi = single(rs, -rs.fundamental_weight(1))
    assert chi.demazure(1).is_zero()
    # pairing -2: minus the interior of the upward string
    chi = single(rs, -rs.simple_root(1))
    out = chi.demazure(1)
    assert {(w, q): c for w, q, c in out.terms()} == {(weight([0]), 0): -1}


def test_demazure_affine_node_moves_q():
    rs = build_root_system("A", 1)
    chi = single(rs, weight([0]), level=1)
    out = chi.demazure(0)
    assert out.coeff(weight([0]), Fraction(0)) == 1
    assert out.coeff(rs.highest_root, Fraction(1)) == 1
    assert out.level == 1


from conftest import affine_bond_order as _affine_bond_order


@pytest.mark.parametrize("t,l", [("A", 2), ("C", 2), ("D", 4)])
def test_demazure_idempotent_and_braid(t, l, rng):
    rs = build_root_system(t, l)
    nodes = range(0, l + 1)
    for _ in range(8):
        chi = random_qcharacter(rs, rng, level=rng.randint(1, 2))
        for i in nodes:
            di = chi.demazure(i)
            assert di.demazure(i) == di
            assert di.level == chi.level
        for i in nodes:
            for j in nodes:
                if i >= j:
                    continue
                m = _affine_bond_order(rs, i, j)
                if m == 2:
                    assert chi.demazure(i).demazure(j) == \
                        chi.demazure(j).demazure(i)
                elif m == 3:
                    assert chi.demazure(i).demazure(j).demazure(i) == \
                        chi.demazure(j).demazure(i).demazure(j)


def test_demazure_truncated_and_exact_paths_agree(rng):
    rs = build_root_system("C", 2)
    for _ in range(6):
        chi = random_qcharacter(rs, rng, level=1, qspan=3)
        big = Fraction(50)
        trunc = QCharacter(rs, 1, list(chi.terms()), depth=big, truncated=True)
        for i in (0, 1, 2):
            a = chi.demazure(i)
            b = trunc.demazure(i)
            assert {k: v for k, v in a._terms.items()} == \
                {k: v for k, v in b._terms.items()}


def test_demazure_bad_node():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        single(rs, weight([0, 0])).demazure(3)


# -- specialization and symmetry ----------------------------------------------------


def test_specialize_single_term():
    rs = build_root_system("A", 2)
    chi = single(rs, rs.simple_root(1), q=3, coeff=5)
    assert chi.specialize_q1() == {rs.simple_root(1): 5}


def test_specialize_truncated_guard():
    rs = build_root_system("A", 1)
    chi = QCharacter(rs, 0, [(weight([0]), Fraction(0), 1)], depth=1,
                     truncated=True)
    with pytest.raises(TruncatedCharacterError):
        chi.specialize_q1()
    assert chi.specialize_q1(allow_truncated=True) == {weight([0]): 1}


def _weight_dict_mul(a, b):
    # reference product in the finite group ring, on Weight-keyed dicts
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def test_specialize_is_ring_homomorphism(rng):
    rs = build_root_system("A", 2)
    a = random_qcharacter(rs, rng)
    b = random_qcharacter(rs, rng)
    lhs = a.mul(b).specialize_q1()
    rhs = _weight_dict_mul(a.specialize_q1(), b.specialize_q1())
    assert lhs == rhs
    assert a.at_q1().mul(b.at_q1()).specialize_q1() == rhs


def test_weyl_invariance_examples():
    rs = build_root_system("A", 1)
    assert QCharacter.unit(rs).is_weyl_invariant()
    assert not single(rs, rs.fundamental_weight(1)).is_weyl_invariant()
    rs2 = build_root_system("A", 2)
    ch = rs2.finite_weyl_character(rs2.fundamental_weight(1))
    emb = QCharacter(rs2, 0, [(w, Fraction(0), m) for w, m in ch.items()])
    assert emb.is_weyl_invariant()


def test_weyl_invariance_off_the_weight_lattice():
    # key (1, 0) is (1/3, 0) in simple-root coordinates: no weight of A2
    rs = build_root_system("A", 2)
    chi = QCharacter._raw(rs, 0, {(0, 1, 0): 1}, None, False)
    assert chi.is_weyl_invariant() is False


# -- serialization -----------------------------------------------------------------


def test_serialization_format_and_roundtrip():
    rs = build_root_system("A", 1)
    chi = QCharacter(rs, 1, [
        (rs.fundamental_weight(1), Fraction(1, 4), 2),
        (weight([0]), Fraction(0), 1),
    ])
    text = chi.to_text()
    assert text == "w=(0) q=0/1 coeff=1\nw=(1) q=1/4 coeff=2\n"
    back = QCharacter.from_text(rs, 1, text)
    assert back == chi
    assert back.to_text() == text


def test_serialization_byte_stable(rng):
    rs = build_root_system("C", 2)
    chi = random_qcharacter(rs, rng)
    assert chi.to_text() == QCharacter.from_text(rs, chi.level, chi.to_text()).to_text()


# -- housekeeping -------------------------------------------------------------------


def test_no_zero_coefficients_stored(rng):
    rs = build_root_system("A", 2)
    a = random_qcharacter(rs, rng)
    b = a.scale(-1)
    assert (a + b).is_zero()
    assert len((a + b)._terms) == 0


def test_terms_canonical_order(rng):
    rs = build_root_system("A", 2)
    chi = random_qcharacter(rs, rng, nterms=10)
    seq = list(chi.terms())
    keys = [(q, w.coords) for w, q, _ in seq]
    assert keys == sorted(keys)


def test_common_depth_comparison():
    rs = build_root_system("A", 1)
    full = QCharacter(rs, 1, [(weight([0]), Fraction(0), 1),
                              (weight([0]), Fraction(2), 7)])
    trunc = QCharacter(rs, 1, [(weight([0]), Fraction(0), 1)], depth=1,
                       truncated=True)
    assert chars_agree(full, trunc)
    other = QCharacter(rs, 1, [(weight([0]), Fraction(0), 2)], depth=1,
                       truncated=True)
    fd = first_discrepancy(full, other)
    assert fd == (weight([0]), Fraction(0), 1, 2)

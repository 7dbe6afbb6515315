import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affchar.affine import Packing
from affchar.charring import (QCharacter, TruncatedCharacterError, chars_agree,
                              first_discrepancy)
from affchar.demazure import demazure_character
from affchar.rootsys import OrbitCapExceeded, Weight, build_root_system, weight
from conftest import demazure_reference, random_qcharacter


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


# -- the packed kernel against the tuple-key reference ---------------------------

KERNEL_TYPES = [("A", 2), ("C", 2), ("G", 2), ("D", 4)]
BIG = 2**70


def _apply_reference(chi, word):
    for i in word:
        chi = demazure_reference(chi, i)
    return chi


def _same(a, b):
    return ((a._terms, a.truncated, a.depth, a.level)
            == (b._terms, b.truncated, b.depth, b.level))


def _silent(rs, nodes, big):
    """Fundamental coordinates of magnitude ``big`` that pair to 0 with every
    node in ``nodes``, so the word's strings stay short; zero when no such
    vector has free nodes to live on."""
    free = [i for i in range(1, rs.rank + 1) if i not in nodes]
    z = [0] * rs.rank
    if 0 not in nodes:
        for i in free:
            z[i - 1] = big
    elif len(free) >= 2:
        # the theta-coroot coordinates c: sum_i c_i z_i is minus field 0
        c = rs.highest_root_coroot.coords
        a, b = free[:2]
        z[a - 1], z[b - 1] = c[b - 1] * big, -c[a - 1] * big
    return z


@st.composite
def kernel_cases(draw):
    t, l = draw(st.sampled_from(KERNEL_TYPES))
    rs = build_root_system(t, l)
    word = draw(st.lists(st.integers(0, l), min_size=1, max_size=5))
    if draw(st.booleans()):
        word.insert(draw(st.integers(0, len(word))), 0)
    level = draw(st.integers(0, 2))
    z = _silent(rs, set(word), draw(st.sampled_from([0, BIG, 3 * BIG + 1, 2**90])))
    qbig = draw(st.sampled_from([0, BIG, -BIG, 2**100]))
    qden = rs.q_denominator
    terms = []
    for fund, q, coeff in draw(st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=l, max_size=l),
                      st.integers(0, 4 * qden), st.integers(-3, 3).filter(bool)),
            min_size=1, max_size=4)):
        wt = rs.weight_from_fundamental([a + b for a, b in zip(fund, z)])
        terms.append((wt, Fraction(qbig + q, qden), coeff))
    depth = draw(st.one_of(st.none(), st.integers(0, 8 * qden)))
    if depth is not None:
        depth = Fraction(qbig + depth, qden)
    return QCharacter(rs, level, terms, depth=depth), tuple(word)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_packed_kernel_matches_reference(case):
    # terms and the truncated flag agree with the reference applied node by
    # node, on A2, C2, G2 and D4 at levels 0-2, with and without a depth, and
    # with weights and q-exponents at 2**70 and beyond
    chi, word = case
    assert _same(chi.demazure(*word), _apply_reference(chi, word))


@pytest.mark.parametrize("t,l,lam", [("A", 1, [12]), ("A", 2, [6, 6]),
                                     ("G", 2, [1, 2])])
def test_packed_kernel_widens_before_a_field_could_wrap(t, l, lam, monkeypatch):
    # a raising word starts from a seed with small fields, so the strings
    # that follow outgrow the first width: the terms are packed again wider
    # and still match the reference
    rs = build_root_system(t, l)
    dc = demazure_character(rs, rs.coweight_from_fundamental(lam), 1)
    seed = QCharacter(rs, 1, [(dc.base_weight.finite, -dc.base_weight.delta_deg, 1)])
    widths = []
    pack = Packing.pack

    def recording(self, terms, level):
        out = pack(self, terms, level)
        widths.append(out[1])
        return out

    monkeypatch.setattr(Packing, "pack", recording)
    assert _same(seed.demazure(*dc.word), _apply_reference(seed, dc.word))
    assert len(widths) >= 2 and widths == sorted(widths)


@pytest.mark.parametrize("t,l", KERNEL_TYPES)
def test_off_lattice_key_raises_on_both_sides(t, l):
    # a unit key step off the weight lattice pairs non-integrally with some
    # node; both the kernel and the reference raise ValueError there
    rs = build_root_system(t, l)
    found = 0
    for c in range(l):
        key = (0,) + tuple(int(j == c) for j in range(l))
        chi = QCharacter._raw(rs, 1, {key: 1}, None, False)
        for i in range(1, l + 1):
            if rs.cartan[i - 1][c] % rs.weight_denominator:
                found += 1
                with pytest.raises(ValueError):
                    demazure_reference(chi, i)
                with pytest.raises(ValueError):
                    chi.demazure(i, *range(l + 1))
    # every integer key of G2 is a weight (its weight denominator is 1)
    assert (found == 0) == (rs.weight_denominator == 1)


def test_demazure_word_is_nodes_in_order(rng):
    rs = build_root_system("C", 2)
    chi = random_qcharacter(rs, rng, level=1)
    assert chi.demazure(0, 1, 2) == chi.demazure(0).demazure(1).demazure(2)
    assert chi.demazure() == chi


def test_demazure_cap_bounds_kept_terms():
    rs = build_root_system("A", 2)
    chi = single(rs, 2 * rs.fundamental_weight(1), level=0)
    assert len(chi.demazure(1, 2, 1, cap=6)) == 6
    with pytest.raises(OrbitCapExceeded):
        chi.demazure(1, 2, 1, cap=5)


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

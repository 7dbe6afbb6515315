import math
import random
from fractions import Fraction

import pytest

from affchar.charring import QCharacter, _wkey
from affchar.kacweyl import _coroot_lattice_points
from affchar.rootsys import Coweight, Weight, build_root_system

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]


def weyl_character_oracle(rs, nu):
    """Independent finite character oracle: alternating sum over the full Weyl
    group divided by prod (1 - e^-alpha) through naive term-by-term long
    division.  Deliberately separate from the production Freudenthal path."""
    rho = rs.rho_weight
    f = {}
    for mat, sign in rs.weyl_elements():
        w = rs.apply_matrix_weight(mat, nu + rho) - rho
        f[w] = f.get(w, 0) + sign
    f = {k: v for k, v in f.items() if v}
    for alpha in rs.positive_roots:
        f = _naive_divide(rs, f, alpha)
    return f


def _naive_divide(rs, f, alpha):
    quotient = {}
    work = dict(f)
    guard = 0
    while work:
        guard += 1
        assert guard < 10**6, "long division diverged (dividend not divisible?)"
        w = max(work, key=lambda x: (rs.form(x, alpha), x.coords))
        c = work.pop(w)
        quotient[w] = quotient.get(w, 0) + c
        down = w - alpha
        v = work.get(down, 0) + c
        if v:
            work[down] = v
        elif down in work:
            del work[down]
    return {k: v for k, v in quotient.items() if v}


def alternating_layers_oracle(rs, khat, shifted, n_layers):
    """J-layers of sum_(beta,u) det(u) e^(u(shifted) - khat*iota(beta)) summed
    over the whole affine Weyl group W x (coroot lattice), q-layers
    0..n_layers.  Every term is reduced to the strictly dominant chamber and
    the counts, which carry a factor |W|, are divided by |W|.  Deliberately
    separate from the production translation-only sum; the two share only the
    coroot-lattice enumerator."""
    cs = rs.form(shifted, shifted)
    # q <= n_layers forces |khat*beta - u(shifted)|^2 <= cs + 2*khat*n_layers
    s_hi = math.isqrt(math.ceil(cs)) + math.isqrt(math.ceil(cs + 2 * khat * n_layers)) + 2
    t_hi = Fraction(s_hi * s_hi, khat * khat) + 1
    images = [(rs.apply_matrix_weight(mat, shifted), sign)
              for mat, sign in rs.weyl_elements()]
    raw = [dict() for _ in range(n_layers + 1)]
    for combo, _ in _coroot_lattice_points(rs, t_hi / 2, 10**7):
        beta = Coweight(tuple(Fraction(c) for c in combo))
        shift = khat * rs.iota(beta)
        base = Fraction(khat) * rs.coform(beta, beta) / 2
        for image, sign in images:
            q = base - rs.pair(beta, image)
            assert q.denominator == 1 and q >= 0, "bad grading"
            if q <= n_layers:
                key = _wkey(rs, image - shift)
                raw[int(q)][key] = raw[int(q)].get(key, 0) + sign
    order = len(rs.weyl_elements())
    out = []
    for layer in raw:
        acc = {}
        for key, c in layer.items():
            red, sign = _reduce_strict(rs, key)
            if sign:
                acc[red] = acc.get(red, 0) + sign * c
        for red, c in acc.items():
            assert c % order == 0, "layer is not Weyl anti-invariant"
        out.append({red: c // order for red, c in acc.items() if c})
    return out


def _reduce_strict(rs, key):
    wden = rs.weight_denominator
    key = list(key)
    sign = 1
    while True:
        pairs = [sum(row[j] * key[j] for j in range(rs.rank)) for row in rs.cartan]
        if 0 in pairs:
            return None, 0
        i = next((i for i, p in enumerate(pairs) if p < 0), None)
        if i is None:
            return tuple(key), sign
        key[i] -= pairs[i]
        sign = -sign


def brute_multipartition_count(colors, total):
    """Count colour-labelled partition tuples of given total size by direct
    recursion on restricted partition numbers."""

    def restricted(n, maxpart):
        if n == 0:
            return 1
        if maxpart == 0:
            return 0
        if maxpart > n:
            maxpart = n
        return restricted(n - maxpart, maxpart) + restricted(n, maxpart - 1)

    def rec(remaining, color):
        if color == 1:
            return restricted(remaining, remaining)
        return sum(restricted(d, d) * rec(remaining - d, color - 1)
                   for d in range(remaining + 1))

    return rec(total, colors) if colors else int(total == 0)


def random_qcharacter(rs, rnd, level=1, nterms=6, span=3, qspan=4, depth=None):
    terms = []
    for _ in range(nterms):
        coords = tuple(Fraction(rnd.randint(-span, span)) for _ in range(rs.rank))
        q = Fraction(rnd.randint(0, qspan))
        terms.append((Weight(coords), q, rnd.randint(-3, 3)))
    return QCharacter(rs, level, terms, depth=depth)


def affine_bond_order(rs, i, j):
    """Coxeter exponent of the affine Dynkin bond i-j from the Cartan integers;
    the central part of the node-0 coroot and the delta part of the node-0 root
    pair to zero, so only finite parts enter."""

    def fin_co(a):
        return -rs.highest_root_coroot if a == 0 else rs.simple_coroot(a)

    def fin_wt(a):
        return -rs.highest_root if a == 0 else rs.simple_root(a)

    prod = rs.pair(fin_co(i), fin_wt(j)) * rs.pair(fin_co(j), fin_wt(i))
    return {0: 2, 1: 3, 2: 4, 3: 6}[int(prod)]


@pytest.fixture
def rng():
    return random.Random(20240817)

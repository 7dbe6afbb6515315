import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from affchar.charring import QCharacter
from affchar.rootsys import Coweight, Weight, build_root_system, coweight

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]


def weyl_character_oracle(rs, nu):
    """Independent finite character oracle: alternating sum over the full Weyl
    group divided by prod (1 - e^-alpha) through naive term-by-term long
    division.  Deliberately separate from the production path
    (``RootSystem.irreducible_keys``, Demazure operators on scaled keys)."""
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
    # the leading term is the largest (form with alpha, coordinates); a heap of
    # negated priorities yields it, and entries of keys that have left work
    # are skipped
    quotient = {}
    work = dict(f)
    heap = []

    def push(w):
        heapq.heappush(heap, (-rs.form(w, alpha), tuple(-c for c in w.coords)))

    for w in work:
        push(w)
    guard = 0
    while work:
        guard += 1
        assert guard < 10**6, "long division diverged (dividend not divisible?)"
        w = Weight(tuple(-c for c in heapq.heappop(heap)[1]))
        if w not in work:
            continue
        c = work.pop(w)
        quotient[w] = quotient.get(w, 0) + c
        down = w - alpha
        v = work.get(down, 0) + c
        if not v:
            work.pop(down, None)
            continue
        if down not in work:
            push(down)
        work[down] = v
    return {k: v for k, v in quotient.items() if v}


def box_lattice_points(rs, shift, bound):
    """Reference lattice enumerator: every point x of shift + (coroot lattice)
    in a coordinate box, kept when (x,x) <= 2*bound, as sorted
    (coordinates, (x,x)) pairs.  The box comes from Cauchy-Schwarz,
    |x_i| = |(x, iota^-1(omega_i))| <= sqrt(2*bound*(omega_i, omega_i)), and
    the form is the Gram matrix of rs.coform on the simple coroots, applied to
    s*x in integers (s clears the shift's denominators); nothing is shared
    with the pruned production enumerator."""
    two_b = 2 * Fraction(bound)
    if two_b < 0:
        return []
    l = rs.rank
    gram = [[int(rs.coform(rs.simple_coroot(i), rs.simple_coroot(j)))
             for j in range(1, l + 1)] for i in range(1, l + 1)]
    s = math.lcm(*(c.denominator for c in shift.coords))
    ranges = []
    for c, om in zip(shift.coords, rs.fundamental_weights):
        r = math.isqrt(math.ceil(two_b * rs.form(om, om))) + 1
        ranges.append(range(math.floor(-r - c), math.ceil(r - c) + 1))
    out = []
    for ns in itertools.product(*ranges):
        y = [int(s * c) + s * n for c, n in zip(shift.coords, ns)]
        norm = Fraction(sum(y[i] * gram[i][j] * y[j]
                            for i in range(l) for j in range(l)), s * s)
        if norm <= two_b:
            out.append((tuple(Fraction(v, s) for v in y), norm))
    return sorted(out)


def alternating_layers_oracle(rs, khat, shifted, n_layers):
    """J-layers of sum_(beta,u) det(u) e^(u(shifted) - khat*iota(beta)) summed
    over the whole affine Weyl group W x (coroot lattice), q-layers
    0..n_layers.  Every term is reduced to the strictly dominant chamber and
    the counts, which carry a factor |W|, are divided by |W|.  Deliberately
    separate from the production translation-only sum, down to the
    coroot-lattice enumerator (``box_lattice_points``)."""
    cs = rs.form(shifted, shifted)
    # q <= n_layers forces |khat*beta - u(shifted)|^2 <= cs + 2*khat*n_layers
    s_hi = math.isqrt(math.ceil(cs)) + math.isqrt(math.ceil(cs + 2 * khat * n_layers)) + 2
    t_hi = Fraction(s_hi * s_hi, khat * khat) + 1
    images = [(rs.apply_matrix_weight(mat, shifted), sign)
              for mat, sign in rs.weyl_elements()]
    raw = [dict() for _ in range(n_layers + 1)]
    for coords, _ in box_lattice_points(rs, coweight([0] * rs.rank), t_hi / 2):
        beta = Coweight(coords)
        shift = khat * rs.iota(beta)
        base = Fraction(khat) * rs.coform(beta, beta) / 2
        for image, sign in images:
            q = base - rs.pair(beta, image)
            assert q.denominator == 1 and q >= 0, "bad grading"
            if q <= n_layers:
                key = rs.weight_key(image - shift)
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

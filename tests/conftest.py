import functools
import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from affchar.affine import AffineWeight, fixed_point_weight, node_table
from affchar.charring import QCharacter
from affchar.fock import multipartition_counts
from affchar.rootsys import (DEFAULT_ORBIT_CAP, Coweight, Weight, build_root_system,
                             coweight)

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]


@functools.lru_cache(maxsize=None)
def weyl_elements(rs):
    """All Weyl elements of rs as sorted (integer matrix on simple-root
    coordinates, sign) pairs, generated by closure under the simple
    reflections r -> r - <alpha_i-check, r> alpha_i (Cartan row i)."""
    l = rs.rank
    ident = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    gens = [tuple(tuple(int(r == j) - int(r == i) * rs.cartan[i][j] for j in range(l))
                  for r in range(l)) for i in range(l)]
    seen = {ident: 1}
    queue = [ident]
    while queue:
        m = queue.pop()
        for g in gens:
            gm = tuple(tuple(sum(g[r][k] * m[k][c] for k in range(l))
                             for c in range(l)) for r in range(l))
            if gm not in seen:
                seen[gm] = -seen[m]
                queue.append(gm)
    return tuple(sorted(seen.items()))


def apply_matrix_weight(mat, wt):
    return Weight(tuple(sum(a * c for a, c in zip(row, wt.coords)) for row in mat))


def fock_character(rs, lam, k, depth):
    """Reference level-k Fock tower over lam, truncated at absolute q-exponent
    ``depth``: every state has the finite weight k*iota(lam), the tower starts
    at q-offset k*(lam,lam)/2 and its graded multiplicities count
    rank-coloured multipartitions.  The result is always flagged truncated."""
    if k < 1:
        raise ValueError("level must be a positive integer")
    depth = Fraction(depth)
    offset = Fraction(k) * rs.coform(lam, lam) / 2
    wt = k * rs.iota(lam)
    span = depth - offset
    terms = []
    if span >= 0:
        counts = multipartition_counts(rs.rank, int(span))
        terms = [(wt, offset + d, c) for d, c in enumerate(counts)]
    return QCharacter(rs, k, terms, depth=depth, truncated=True)


def coset_points_up_to(rs, shift, bound, cap=DEFAULT_ORBIT_CAP):
    """All lattice points shift + (coroot lattice) with (x,x)/2 <= bound, in
    coordinate order; a Coweight view of ``RootSystem.lattice_points``."""
    return sorted((Coweight(tuple(Fraction(c) for c in coords))
                   for coords, _ in rs.lattice_points(shift, bound, cap)),
                  key=lambda c: c.coords)


def weyl_dimension(rs, nu):
    """Dimension of the irreducible with highest weight nu (product formula)."""
    rho = rs.rho_weight
    num = Fraction(1)
    for alpha in rs.positive_roots:
        num *= rs.form(nu + rho, alpha) / rs.form(rho, alpha)
    if num.denominator != 1:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return int(num)


def weyl_character_oracle(rs, nu):
    """Independent finite character oracle: alternating sum over the full Weyl
    group divided by prod (1 - e^-alpha) through naive term-by-term long
    division.  Deliberately separate from the production path
    (``RootSystem.irreducible_keys``, Demazure operators on scaled keys)."""
    rho = rs.rho_weight
    f = {}
    for mat, sign in weyl_elements(rs):
        w = apply_matrix_weight(mat, nu + rho) - rho
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
    images = [(apply_matrix_weight(mat, shifted), sign)
              for mat, sign in weyl_elements(rs)]
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
    order = len(weyl_elements(rs))
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


def node_pairing(rs, aw, i):
    """Reference <aw, alpha_i-check> for node i in 0..rank in Fraction
    arithmetic on AffineWeights, using the level at the affine node;
    independent of the integer node table of ``affchar.affine``."""
    if i == 0:
        return aw.level - rs.pair(rs.highest_root_coroot, aw.finite)
    return rs.pair(rs.simple_coroot(i), aw.finite)


def reflect_affine_weight(rs, i, aw):
    """Reference simple affine reflection s_i of an AffineWeight."""
    m = node_pairing(rs, aw, i)
    if i == 0:
        # subtract m * (delta - theta-root)
        return AffineWeight(aw.level, aw.finite + m * rs.highest_root,
                            aw.delta_deg - m)
    return AffineWeight(aw.level, rs.reflect_weight(i, aw.finite), aw.delta_deg)


def demazure_character_from_word(rs, lam, k, word):
    """Apply a caller-supplied raising word from the base weight of lam, the
    weights raised by the Fraction reference above; used to test that the
    character does not depend on the choice of word."""
    mu = fixed_point_weight(rs, lam, k)
    for i in reversed(tuple(word)):
        if node_pairing(rs, mu, i) >= 0:
            raise ValueError("word is not a valid raising sequence for lam")
        mu = reflect_affine_weight(rs, i, mu)
    if any(node_pairing(rs, mu, i) < 0 for i in range(rs.rank + 1)):
        raise ValueError("word does not raise the extreme weight to dominance")
    chi = QCharacter(rs, k, [(mu.finite, -mu.delta_deg, 1)]).demazure(*word)
    # section-space side, as demazure_character reports it
    return QCharacter(rs, k, [(-w, q, c) for w, q, c in chi.normalized().terms()])


def demazure_reference(chi, i):
    """Reference isobaric operator of node i on tuple keys, one node per
    call: every term's string is built key by key from the node table's
    pairing and step, independent of the packed kernel of
    ``QCharacter.demazure``.  On a term of pairing m it writes the full string
    down to the reflected weight for m >= 0, nothing for m = -1 and minus the
    interior of the upward string for m <= -2; zeros are dropped as they
    arise and terms beyond the depth after the node."""
    rs = chi.rs
    if not 0 <= i <= rs.rank:
        raise ValueError("node index %d out of range" % i)
    node = node_table(rs)[i]
    out = {}
    for key, c in chi._terms.items():
        m = node.pairing(key, chi.level)
        if m >= 0:
            rng, sign = range(0, m + 1), 1
        elif m == -1:
            continue
        else:
            rng, sign = range(-1, m, -1), -1
        for j in rng:
            k2 = tuple(a + j * d for a, d in zip(key, node.step))
            nv = out.get(k2, 0) + sign * c
            if nv:
                out[k2] = nv
            elif k2 in out:
                del out[k2]
    dropped = False
    if chi.depth is not None:
        bound = chi.depth * rs.q_denominator
        before = len(out)
        out = {k: v for k, v in out.items() if k[0] <= bound}
        dropped = len(out) < before
    return QCharacter._raw(rs, chi.level, out, chi.depth, chi.truncated or dropped)


def mul_reference(a, b):
    """Reference convolution product on tuple keys, pair by pair: depths must
    agree, levels add, and a pair beyond the depth sets the truncated flag
    even if its product term cancels; independent of the packed product of
    ``QCharacter.mul``."""
    a._check_compat(b)
    bound = None if a.depth is None else int(a.depth * a.rs.q_denominator)
    out = {}
    dropped = False
    for k1, v1 in a._terms.items():
        for k2, v2 in b._terms.items():
            q = k1[0] + k2[0]
            if bound is not None and q > bound:
                dropped = True
                continue
            key = (q,) + tuple(x + y for x, y in zip(k1[1:], k2[1:]))
            nv = out.get(key, 0) + v1 * v2
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return QCharacter._raw(a.rs, a.level + b.level, out, a.depth,
                           a.truncated or b.truncated or dropped)


def dominant_coweights_below_reference(rs, lam):
    """Reference walk over the dominant mu <= lam in Fraction Coweights: a
    step subtracts a positive coroot, sorted by height, then coordinates."""
    out = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for co in frontier:
            for beta in rs.positive_coroots:
                co2 = co - beta
                if co2 not in out and rs.is_dominant_coweight(co2):
                    out.add(co2)
                    nxt.append(co2)
        frontier = nxt
    return sorted(out, key=lambda c: (-sum(c.coords), c.coords))


def root_system_reference(rs):
    """Reference construction of rs in Fraction arithmetic, keyed by attribute
    name: the reflection closure on Fraction tuples, the fundamental data from
    the inverse Cartan matrix, pi_1 by closure of the coset keys,
    q_denominator from the l^2 pairings (omega_i-check, omega_j-check) through
    ``coform``, and the longest word by lowering rho-coweight through ``pair``
    and ``reflect_coweight``."""
    l = rs.rank

    def reflect(vec, i, line):
        m = sum(a * c for a, c in zip(line, vec) if a and c)
        return vec[:i] + (vec[i] - m,) + vec[i + 1:]

    unit = [tuple(Fraction(int(j == i)) for j in range(l)) for i in range(l)]
    seen = dict(zip(unit, unit))
    queue = list(seen.items())
    while queue:
        root, coroot = queue.pop()
        for i in range(l):
            r2 = reflect(root, i, rs.cartan[i])
            if r2 not in seen:
                seen[r2] = reflect(coroot, i, [row[i] for row in rs.cartan])
                queue.append((r2, seen[r2]))
    pos = sorted(r for r in seen if all(c >= 0 for c in r))
    out = {"_coroot_of": {Weight(r): Coweight(seen[r]) for r in pos}}
    out["positive_roots"] = tuple(sorted(out["_coroot_of"], key=lambda w: w.coords))
    out["positive_coroots"] = tuple(out["_coroot_of"][r] for r in out["positive_roots"])
    theta = max(out["positive_roots"], key=lambda w: (sum(w.coords), w.coords))
    out["highest_root"] = theta
    out["highest_root_coroot"] = out["_coroot_of"][theta]
    inv = rs._cartan_inv
    fw = tuple(Weight(tuple(inv[j][i] for j in range(l))) for i in range(l))
    fcw = tuple(Coweight(tuple(inv[i][j] for j in range(l))) for i in range(l))
    out["fundamental_weights"], out["fundamental_coweights"] = fw, fcw
    out["rho_weight"] = Weight(tuple(sum(col) for col in zip(*(w.coords for w in fw))))
    out["rho_coweight"] = Coweight(tuple(sum(col) for col in zip(*(c.coords for c in fcw))))
    out["dual_coxeter"] = 1 + int(sum(out["highest_root_coroot"].coords))
    keys = {tuple(Fraction(0) for _ in range(l))}
    gens = [tuple(x % 1 for x in c.coords) for c in fcw]
    while True:
        more = {tuple((x + y) % 1 for x, y in zip(a, g)) for a in keys for g in gens}
        if more <= keys:
            break
        keys |= more
    out["pi1_order"], out["pi1_coset_keys"] = len(keys), tuple(sorted(keys))
    out["weight_denominator"] = math.lcm(
        *(c.denominator for w in fw + tuple(rs.iota(c) for c in fcw) for c in w.coords))
    out["q_denominator"] = math.lcm(
        *((rs.coform(a, b) / 2).denominator for a in fcw for b in fcw))
    cur, word = out["rho_coweight"], []
    while True:
        i = next((i for i in range(1, l + 1) if rs.pair(cur, rs.simple_root(i)) > 0), None)
        if i is None:
            break
        cur = rs.reflect_coweight(i, cur)
        word.append(i)
    out["longest_word"] = tuple(word)
    return out


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

"""Finite crystallographic root systems with exact rational arithmetic.

Conventions: roots (checked symbols in the classical literature) live on the
weight side and coroots on the coweight side.  The invariant form on the
weight side is normalized so long roots have squared length 2; the map
``iota`` sends a coroot a to 2*(root of a)/(root norm).  Dynkin diagrams are
labelled following Bourbaki (Plates I-IX); for the E series the chain is
1-3-4-5-6(-7-8) with node 2 attached to node 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

_VALID_RANKS = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 3,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}

DEFAULT_ORBIT_CAP = 10**6


class OrbitCapExceeded(RuntimeError):
    """A Weyl-orbit or lattice enumeration grew past its configured cap."""


def _frac_tuple(coords) -> tuple:
    return tuple(Fraction(c) for c in coords)


def _dot(ints, coords):
    # pairing of an integer Cartan row or column with exact coordinates; an
    # int when the coordinates are ints or the pairing has no nonzero term
    return sum(a * c for a, c in zip(ints, coords) if a and c)


@dataclass(frozen=True)
class _Coords:
    """Exact coordinate vector; the arithmetic keeps the concrete subclass."""

    coords: tuple

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords))

    def __mul__(self, c):
        c = Fraction(c)
        return type(self)(tuple(c * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


class Weight(_Coords):
    """Vector on the root side, stored in simple-root coordinates."""


class Coweight(_Coords):
    """Vector on the coroot side, stored in simple-coroot coordinates."""


def weight(coords) -> Weight:
    return Weight(_frac_tuple(coords))


def coweight(coords) -> Coweight:
    return Coweight(_frac_tuple(coords))


def _invert_matrix(mat):
    # Gauss-Jordan over Fraction; mat is square and invertible here.
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _cartan_matrix(type_label: str, rank: int):
    """Entries cartan[i][j] = <alpha_i, alpha-check_j> (coroot i on root j), 0-based."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if type_label in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if type_label == "B" and rank >= 2:
            # last root short: coroot of the long neighbour pairs to -1, short coroot to -2
            a[rank - 1][rank - 2] = -2
        if type_label == "C" and rank >= 2:
            a[rank - 2][rank - 1] = -2
    elif type_label == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif type_label == "E":
        # Bourbaki: chain 1-3-4-5-...-rank, node 2 attached to node 4
        chain = [0] + list(range(2, rank))
        for x, y in zip(chain, chain[1:]):
            bond(x, y)
        bond(1, 3)
    elif type_label == "F":
        bond(0, 1)
        bond(1, 2)
        bond(2, 3)
        a[2][1] = -2  # roots 3,4 short
    elif type_label == "G":
        a[0][1] = -3  # root 1 short
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


class RootSystem:
    """Cartan datum of a simple type, with roots generated by reflection closure.

    Stores simple roots/coroots, the full set of positive roots with their
    coroots, the normalized invariant form, fundamental (co)weights, the
    highest root and its coroot, the fundamental group of the adjoint form
    and the longest Weyl element.
    """

    def __init__(self, type_label: str, rank: int):
        type_label = str(type_label).upper()
        if type_label not in _VALID_RANKS:
            raise ValueError("unknown simple type %r (expected one of A-G)" % type_label)
        if not isinstance(rank, int) or not _VALID_RANKS[type_label](rank):
            raise ValueError("invalid rank %r for type %s" % (rank, type_label))
        self.type_label = type_label
        self.rank = rank
        self.cartan = _cartan_matrix(type_label, rank)
        self._cartan_cols = tuple(zip(*self.cartan))
        self._cartan_inv = _invert_matrix(self.cartan)
        self.root_norm_halves = self._symmetrize()  # d_i = (root_i, root_i)*/2
        self._generate_roots()
        self._build_fundamental()
        self._build_pi1()
        self._build_scalings()
        self.longest_word = self._longest_element_word()
        self._irrep_cache = {}

    # -- construction ---------------------------------------------------

    def _symmetrize(self):
        # propagate d over the Dynkin graph so that d_i * A[i][j] = d_j * A[j][i],
        # then rescale so max d = 1 (long roots get squared length 2)
        l = self.rank
        d = [None] * l
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(l):
                if i != j and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(self.cartan[i][j], self.cartan[j][i])
                    todo.append(j)
        top = max(d)
        d = tuple(x / top for x in d)
        for i in range(l):
            for j in range(l):
                if d[i] * self.cartan[i][j] != d[j] * self.cartan[j][i]:
                    raise ArithmeticError("Cartan matrix is not symmetrizable")
        return d

    def _generate_roots(self):
        l = self.rank
        simple_pairs = []
        for i in range(l):
            root = tuple(Fraction(int(j == i)) for j in range(l))
            coroot = tuple(Fraction(int(j == i)) for j in range(l))
            simple_pairs.append((root, coroot))
        seen = dict(simple_pairs)
        queue = list(simple_pairs)
        while queue:
            root, coroot = queue.pop()
            for i in range(l):
                r2 = self._reflect_root_coords(i, root)
                if r2 not in seen:
                    c2 = self._reflect_coroot_coords(i, coroot)
                    seen[r2] = c2
                    queue.append((r2, c2))
        pos = sorted(r for r in seen if all(c >= 0 for c in r))
        if 2 * len(pos) != len(seen):
            raise RuntimeError("root closure is not split by positivity")
        self._coroot_of = {Weight(r): Coweight(seen[r]) for r in pos}
        self.positive_roots = tuple(sorted(self._coroot_of, key=lambda w: w.coords))
        self.positive_coroots = tuple(self._coroot_of[r] for r in self.positive_roots)
        by_height = max(self.positive_roots, key=lambda w: (sum(w.coords), w.coords))
        if sum(1 for w in self.positive_roots
               if sum(w.coords) == sum(by_height.coords)) != 1:
            raise RuntimeError("highest root is not unique")
        self.highest_root = by_height
        self.highest_root_coroot = self._coroot_of[by_height]
        if self.root_norm(self.highest_root) != 2:
            raise ArithmeticError("highest root does not have squared length 2")

    def _reflect_root_coords(self, i, r):
        # s_i on the weight side (0-based i): subtract <alpha_i-check, r> alpha_i,
        # the pairing being the dot product of r with Cartan row i
        m = _dot(self.cartan[i], r)
        return r[:i] + (r[i] - m,) + r[i + 1:]

    def _reflect_coroot_coords(self, i, c):
        # subtract <c, alpha_i> alpha_i-check, a dot product with Cartan column i
        m = _dot(self._cartan_cols[i], c)
        return c[:i] + (c[i] - m,) + c[i + 1:]

    def _build_fundamental(self):
        l = self.rank
        inv = self._cartan_inv
        # fundamental weight i: column i of A^-1 in simple-root coordinates
        self.fundamental_weights = tuple(
            Weight(tuple(inv[j][i] for j in range(l))) for i in range(l))
        # fundamental coweight i: row i of A^-1 in simple-coroot coordinates
        self.fundamental_coweights = tuple(
            Coweight(tuple(inv[i][j] for j in range(l))) for i in range(l))
        self.rho_weight = Weight(tuple(sum(col) for col in zip(
            *(w.coords for w in self.fundamental_weights))))
        self.rho_coweight = Coweight(tuple(sum(col) for col in zip(
            *(c.coords for c in self.fundamental_coweights))))
        # dual Coxeter number: 1 + height of the highest root's coroot
        self.dual_coxeter = 1 + int(sum(self.highest_root_coroot.coords))

    def _build_pi1(self):
        # pi_1 of the adjoint form = coweight lattice / coroot lattice; cosets
        # generated by the fundamental coweights taken mod 1 in coroot coordinates
        keys = {self.coset_key(Coweight(tuple(Fraction(0) for _ in range(self.rank))))}
        frontier = [self.coset_key(c) for c in self.fundamental_coweights]
        changed = True
        while changed:
            changed = False
            for a in list(keys):
                for g in frontier:
                    s = tuple((x + y) % 1 for x, y in zip(a, g))
                    if s not in keys:
                        keys.add(s)
                        changed = True
        self.pi1_order = len(keys)
        self.pi1_coset_keys = tuple(sorted(keys))

    def _build_scalings(self):
        weights = self.fundamental_weights + tuple(
            self.iota(c) for c in self.fundamental_coweights)
        self.weight_denominator = math.lcm(
            *(c.denominator for w in weights for c in w.coords))
        self.q_denominator = math.lcm(
            *((self.coform(c, c2) / 2).denominator
              for c in self.fundamental_coweights for c2 in self.fundamental_coweights))

    def _longest_element_word(self):
        # lower rho-coweight to the antidominant chamber, recording reflections
        cur = self.rho_coweight
        word = []
        while True:
            for i in range(1, self.rank + 1):
                if self.pair(cur, self.simple_root(i)) > 0:
                    cur = self.reflect_coweight(i, cur)
                    word.append(i)
                    break
            else:
                return tuple(word)

    # -- basic data access ----------------------------------------------

    def simple_root(self, i: int) -> Weight:
        """Simple root for node i (1-based, Bourbaki labels)."""
        return Weight(tuple(Fraction(int(j == i - 1)) for j in range(self.rank)))

    def simple_coroot(self, i: int) -> Coweight:
        return Coweight(tuple(Fraction(int(j == i - 1)) for j in range(self.rank)))

    def fundamental_weight(self, i: int) -> Weight:
        return self.fundamental_weights[i - 1]

    def fundamental_coweight(self, i: int) -> Coweight:
        return self.fundamental_coweights[i - 1]

    def is_simply_laced(self) -> bool:
        return all(d == 1 for d in self.root_norm_halves)

    # -- pairings and forms ----------------------------------------------

    def pair(self, co: Coweight, wt: Weight) -> Fraction:
        """Natural pairing <coweight, weight>."""
        l = self.rank
        return sum((co.coords[i] * self.cartan[i][j] * wt.coords[j]
                    for i in range(l) for j in range(l)
                    if wt.coords[j] and co.coords[i]), Fraction(0))

    def form(self, a: Weight, b: Weight) -> Fraction:
        """Normalized invariant form on the weight side, long roots of norm 2."""
        return self.pair(self.iota_inv(a), b)

    def coform(self, a: Coweight, b: Coweight) -> Fraction:
        """Induced form on the coweight side: (a, b) = <a, iota(b)>."""
        return self.pair(a, self.iota(b))

    def root_norm(self, r: Weight) -> Fraction:
        return self.form(r, r)

    def iota(self, co: Coweight) -> Weight:
        """Form isomorphism coweights -> weights; diag(1/d_i) in the simple bases."""
        return Weight(tuple(c / d for c, d in zip(co.coords, self.root_norm_halves)))

    def iota_inv(self, wt: Weight) -> Coweight:
        return Coweight(tuple(c * d for c, d in zip(wt.coords, self.root_norm_halves)))

    def coroot_of(self, r: Weight) -> Coweight:
        """Coroot of a (positive or negative) root."""
        if r in self._coroot_of:
            return self._coroot_of[r]
        if -r in self._coroot_of:
            return -self._coroot_of[-r]
        raise ValueError("%r is not a root of %s%d" % (r, self.type_label, self.rank))

    # -- coordinates ------------------------------------------------------

    def _combine(self, coeffs, basis) -> tuple:
        coeffs = _frac_tuple(coeffs)
        if len(coeffs) != self.rank:
            raise ValueError("expected %d fundamental coefficients for %s%d, got %d"
                             % (self.rank, self.type_label, self.rank, len(coeffs)))
        return tuple(sum(c * b.coords[j] for c, b in zip(coeffs, basis))
                     for j in range(self.rank))

    def weight_from_fundamental(self, coeffs) -> Weight:
        return Weight(self._combine(coeffs, self.fundamental_weights))

    def coweight_from_fundamental(self, coeffs) -> Coweight:
        return Coweight(self._combine(coeffs, self.fundamental_coweights))

    def weight_fundamental_coords(self, wt: Weight) -> tuple:
        """Values of the simple coroots on wt: dot products with the Cartan rows."""
        return tuple(_dot(row, wt.coords) for row in self.cartan)

    def coweight_fundamental_coords(self, co: Coweight) -> tuple:
        """Values of co on the simple roots: dot products with the Cartan columns."""
        return tuple(_dot(col, co.coords) for col in self._cartan_cols)

    def weight_key(self, wt: Weight) -> tuple:
        """Scaled integer key of wt: its coordinates times weight_denominator,
        the form every character stores its weights in."""
        den = self.weight_denominator
        out = []
        for c in wt.coords:
            v = c * den
            if v.denominator != 1:
                raise ValueError("weight %r is not in the supported lattice" % (wt,))
            out.append(int(v))
        return tuple(out)

    def key_weight(self, key) -> Weight:
        """The Weight of a scaled integer key; inverse of ``weight_key``."""
        den = self.weight_denominator
        return Weight(tuple(Fraction(c, den) for c in key))

    # -- reflections, dominance, orbits ------------------------------------

    def reflect_weight(self, i: int, wt: Weight) -> Weight:
        return Weight(self._reflect_root_coords(i - 1, wt.coords))

    def reflect_coweight(self, i: int, co: Coweight) -> Coweight:
        return Coweight(self._reflect_coroot_coords(i - 1, co.coords))

    def is_dominant_coweight(self, co: Coweight) -> bool:
        return all(c >= 0 for c in self.coweight_fundamental_coords(co))

    def is_dominant_weight(self, wt: Weight) -> bool:
        return all(c >= 0 for c in self.weight_fundamental_coords(wt))

    def in_coweight_lattice(self, co: Coweight) -> bool:
        return all(c.denominator == 1 for c in self.coweight_fundamental_coords(co))

    def dominance_leq(self, mu: Coweight, lam: Coweight) -> bool:
        """mu <= lam iff lam - mu is a nonnegative integer sum of simple coroots."""
        for c in (lam - mu).coords:
            if c.denominator != 1 or c < 0:
                return False
        return True

    def dominant_part(self, co: Coweight) -> Coweight:
        cur = co
        while True:
            fc = self.coweight_fundamental_coords(cur)
            for i in range(self.rank):
                if fc[i] < 0:
                    cur = self.reflect_coweight(i + 1, cur)
                    break
            else:
                return cur

    def weyl_orbit(self, co: Coweight, cap: int = DEFAULT_ORBIT_CAP) -> frozenset:
        # walk the orbit of s*co in integers, s clearing the denominators
        s = math.lcm(*(c.denominator for c in co.coords))
        start = tuple(int(c * s) for c in co.coords)
        seen = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for i in range(self.rank):
                nxt = self._reflect_coroot_coords(i, cur)
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(
                            "Weyl orbit exceeds cap of %d elements" % cap)
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(Coweight(tuple(Fraction(y, s) for y in ys)) for ys in seen)

    # -- fundamental group -------------------------------------------------

    def coset_key(self, co: Coweight) -> tuple:
        """Class of co in (coweight lattice)/(coroot lattice), as coordinates mod 1."""
        return tuple(c % 1 for c in co.coords)

    def minuscule_reps(self) -> dict:
        """One minuscule coweight per fundamental-group coset (0 for the trivial one).

        A dominant coweight is minuscule iff it pairs to at most 1 with every
        positive root, i.e. iff its mark in the highest root is 1.
        """
        zero = Coweight(tuple(Fraction(0) for _ in range(self.rank)))
        reps = {self.coset_key(zero): zero}
        theta_marks = self.highest_root.coords
        for i in range(1, self.rank + 1):
            if theta_marks[i - 1] == 1:
                om = self.fundamental_coweight(i)
                key = self.coset_key(om)
                if key in reps:
                    raise RuntimeError("two minuscule coweights in one coset")
                reps[key] = om
        if len(reps) != self.pi1_order:
            raise RuntimeError("minuscule coweights do not exhaust pi1")
        return reps

    # -- lattice points ------------------------------------------------------

    @cached_property
    def _coroot_ldl(self):
        """Exact LDL^T of the coroot Gram matrix G = L D L^T, in integers:
        (m, e, diag, low) with e*m^2*(x,x) = sum_k diag[k] * t_k^2 and
        t_k = m*x_k + sum of c*x_i over the pairs (i, c) in low[k], i > k."""
        l = self.rank
        gram = [[self.coform(self.simple_coroot(i), self.simple_coroot(j))
                 for j in range(1, l + 1)] for i in range(1, l + 1)]
        low = [[Fraction(0)] * l for _ in range(l)]
        diag = []
        for j in range(l):
            diag.append(gram[j][j] - sum(low[j][k] ** 2 * diag[k] for k in range(j)))
            for i in range(j + 1, l):
                low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] * diag[k]
                                              for k in range(j))) / diag[j]
        m = math.lcm(*(x.denominator for row in low for x in row))
        e = math.lcm(*(x.denominator for x in diag))
        return (m, e, tuple(int(e * x) for x in diag),
                tuple(tuple((i, int(m * low[i][k])) for i in range(k + 1, l) if low[i][k])
                      for k in range(l)))

    def lattice_points(self, shift: Coweight, bound, cap: int = DEFAULT_ORBIT_CAP):
        """Points x of shift + (coroot lattice) with (x,x) <= 2*bound, as
        (simple-coroot coordinates, (x,x)) pairs.

        Fincke-Pohst enumeration on the integer LDL^T of ``_coroot_ldl``
        (cached on this instance): the coordinates are fixed from the last to
        the first, each over exactly the values the remaining norm allows, so
        every completed point is kept.  Coordinates are ints when the shift
        lies in the coroot lattice and Fractions otherwise; (x,x) is a
        Fraction.  Raises OrbitCapExceeded once more than ``cap`` candidate
        coordinate values have been scanned.
        """
        m, e, diag, low = self._coroot_ldl
        s = math.lcm(*(c.denominator for c in shift.coords))
        y0 = [int(c * s) for c in shift.coords]
        unit = e * m * m * s * s
        top = math.floor(2 * Fraction(bound) * unit)
        if top < 0:
            return []
        step = m * s
        y = list(y0)
        out = []
        scanned = 0

        def descend(k, room):
            # y[k+1:] are fixed; s*t_k = base + step*n at y[k] = y0[k] + s*n
            nonlocal scanned
            if k < 0:
                coords = tuple(y) if s == 1 else tuple(Fraction(v, s) for v in y)
                out.append((coords, Fraction(top - room, unit)))
                return
            base = m * y0[k] + sum(c * y[i] for i, c in low[k])
            h = math.isqrt(room // diag[k])
            for n in range(-((h + base) // step), (h - base) // step + 1):
                scanned += 1
                if scanned > cap:
                    raise OrbitCapExceeded(
                        "lattice point enumeration exceeds cap of %d" % cap)
                t = base + step * n
                y[k] = y0[k] + s * n
                descend(k - 1, room - diag[k] * t * t)

        descend(self.rank - 1, top)
        return out

    # -- finite irreducible characters --------------------------------------

    def reduce_strict(self, key):
        """Reflect a scaled weight key (coordinates times weight_denominator)
        into the strictly dominant chamber; returns (key, det of the Weyl
        element used), or (None, 0) when the key lies on a wall."""
        wden = self.weight_denominator
        rows = self.cartan
        l = self.rank
        key = list(key)
        sign = 1
        moved = True
        while moved:
            moved = False
            for i in range(l):
                row = rows[i]
                p = sum(row[j] * key[j] for j in range(l) if key[j])
                if p == 0:
                    return None, 0
                if p < 0:
                    m, r = divmod(p, wden)
                    if r:
                        raise ArithmeticError(
                            "weight key pairs non-integrally with a simple coroot")
                    key[i] -= m * wden
                    sign = -sign
                    moved = True
        return tuple(key), sign

    def irreducible_keys(self, nu_key) -> dict:
        """Weight multiplicities, by scaled key, of the irreducible with
        dominant highest weight nu_key, cached on this instance.

        Demazure character formula: ch V(nu) = D_{w0} e^nu, the isobaric
        Demazure operators applied along a reduced word of the longest element.
        """
        mults = self._irrep_cache.get(nu_key)
        if mults is None:
            from .charring import QCharacter
            chi = QCharacter._raw(self, 0, {(0,) + tuple(nu_key): 1}, None, False)
            chi = chi.demazure(*reversed(self.longest_word))
            mults = {key[1:]: m for key, m in chi._terms.items()}
            self._irrep_cache[nu_key] = mults
        return mults

    def finite_weyl_character(self, nu: Weight) -> dict:
        """Weight multiplicities of the irreducible with highest weight nu.

        A Weight-keyed view of ``irreducible_keys``, the Demazure character
        formula on scaled integer keys.
        """
        fc = self.weight_fundamental_coords(nu)
        if any(c < 0 or c.denominator != 1 for c in fc):
            raise ValueError("highest weight must be dominant integral, got %r" % (fc,))
        mults = self.irreducible_keys(self.weight_key(nu))
        return {self.key_weight(key): m for key, m in mults.items()}


@lru_cache(maxsize=None)
def _build_cached(type_label: str, rank: int) -> RootSystem:
    return RootSystem(type_label, rank)


def build_root_system(type_label, rank) -> RootSystem:
    """Construct (and cache) the root system of the given simple type; repeated
    calls return the same instance, so characters built over it stay compatible."""
    return _build_cached(str(type_label).upper(), rank)

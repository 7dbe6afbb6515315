"""Untwisted affine root data built over a finite root system.

Real affine roots are n*delta + alpha with alpha a finite root; affine
coroots are c*K + a with a a finite coroot.  Affine weights are level*Lambda
+ finite + d*delta triples.  The affine Weyl group is the semidirect product
of the finite Weyl group with the coroot lattice, acting on the coweight
space by y -> w(y) + translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootsys import Coweight, OrbitCapExceeded, RootSystem, Weight


@dataclass(frozen=True)
class AffineRoot:
    """n*delta + finite; real iff the finite part is nonzero."""

    n: int
    finite: Weight

    def is_real(self) -> bool:
        return not self.finite.is_zero()

    def is_positive(self) -> bool:
        if self.n != 0:
            return self.n > 0
        return any(c > 0 for c in self.finite.coords)


@dataclass(frozen=True)
class AffineCoroot:
    k_coeff: Fraction
    finite: Coweight


@dataclass(frozen=True)
class AffineWeight:
    """level*Lambda + finite + delta_deg*delta."""

    level: int
    finite: Weight
    delta_deg: Fraction


def affine_pair(rs: RootSystem, aw: AffineWeight, ac: AffineCoroot) -> Fraction:
    """<aw, ac> = level * k_coeff + <finite coroot, finite weight>."""
    return aw.level * ac.k_coeff + rs.pair(ac.finite, aw.finite)


def simple_affine_coroot(rs: RootSystem, i: int) -> AffineCoroot:
    """Coroot of the i-th simple affine root; node 0 gives K - theta."""
    if i == 0:
        return AffineCoroot(Fraction(1), -rs.highest_root_coroot)
    return AffineCoroot(Fraction(0), rs.simple_coroot(i))


def node_pairing(rs: RootSystem, aw: AffineWeight, i: int) -> Fraction:
    """<aw, alpha_i> for node i in 0..rank, using the level at the affine node."""
    if i == 0:
        return aw.level - rs.pair(rs.highest_root_coroot, aw.finite)
    return rs.simple_pairing(i, aw.finite)


def reflect_affine_weight(rs: RootSystem, i: int, aw: AffineWeight) -> AffineWeight:
    m = node_pairing(rs, aw, i)
    if i == 0:
        # subtract m * (delta - theta-root)
        return AffineWeight(aw.level, aw.finite + m * rs.highest_root,
                            aw.delta_deg - m)
    return AffineWeight(aw.level, rs.reflect_weight(i, aw.finite), aw.delta_deg)


def affine_coroot(rs: RootSystem, psi: AffineRoot) -> AffineCoroot:
    """Coroot of a real affine root n*delta + alpha: (2n/(alpha,alpha)) K + alpha-coroot."""
    if not psi.is_real():
        raise ValueError("imaginary root %r has no coroot" % (psi,))
    finite_coroot = rs.coroot_of(psi.finite)
    norm = rs.root_norm(psi.finite)
    return AffineCoroot(Fraction(2 * psi.n) / norm, finite_coroot)


def fixed_point_weight(rs: RootSystem, mu: Coweight, k: int) -> AffineWeight:
    """Torus weight of the line over the lattice point mu at level k:
    k*Lambda - k*iota(mu) - k*(mu,mu)/2 * delta."""
    return AffineWeight(k, (-k) * rs.iota(mu), -Fraction(k) * rs.coform(mu, mu) / 2)


@dataclass(frozen=True)
class CurveData:
    degree: Fraction
    endpoints: tuple


def curve_data(rs: RootSystem, lam: Coweight, psi: AffineRoot) -> CurveData:
    """Degree and endpoints of the invariant rational curve through the point lam
    drawn by the root subgroup of psi; requires n < <lam, alpha>."""
    if not psi.is_real():
        raise ValueError("imaginary root %r draws no curve" % (psi,))
    m = rs.pair(lam, psi.finite) - psi.n
    if m <= 0:
        raise ValueError(
            "degenerate orbit: n=%s is not below <lam, alpha>=%s"
            % (psi.n, rs.pair(lam, psi.finite)))
    degree = 2 * Fraction(m) / rs.root_norm(psi.finite)
    other = lam - m * rs.coroot_of(psi.finite)
    return CurveData(degree, (lam, other))


class AffineWeylElement:
    """Element t_trans * w of the affine Weyl group, acting on coweights by
    y -> w(y) + trans.  Carries the coweight-side matrix of w, the weight-side
    matrix of w^-1 (for descent tests) and the translation part."""

    __slots__ = ("rs", "w_co", "w_wt_inv", "trans")

    def __init__(self, rs, w_co, w_wt_inv, trans):
        self.rs = rs
        self.w_co = w_co
        self.w_wt_inv = w_wt_inv
        self.trans = trans

    @classmethod
    def identity(cls, rs: RootSystem) -> "AffineWeylElement":
        n = rs.rank
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        return cls(rs, ident, ident, Coweight(tuple(Fraction(0) for _ in range(n))))

    @classmethod
    def translation(cls, rs: RootSystem, lam: Coweight) -> "AffineWeylElement":
        e = cls.identity(rs)
        return cls(rs, e.w_co, e.w_wt_inv, lam)

    @classmethod
    def simple_reflection(cls, rs: RootSystem, i: int) -> "AffineWeylElement":
        """s_i for node i: y -> y - <y, root> coroot + translation, with
        (root, coroot, translation) = (theta, theta-coroot, theta-coroot) at
        node 0 and (alpha_i, alpha_i-coroot, 0) otherwise; the weight-side
        matrix is x -> x - <coroot, x> root, the reflection's own inverse."""
        n = rs.rank
        if i == 0:
            root, coroot = rs.highest_root, rs.highest_root_coroot
            trans = coroot
        else:
            root, coroot = rs.simple_root(i), rs.simple_coroot(i)
            trans = 0 * coroot
        on_co = rs.weight_fundamental_coords(root)
        on_wt = rs.coweight_fundamental_coords(coroot)
        w_co = tuple(tuple(int(r == j) - coroot.coords[r] * on_co[j] for j in range(n))
                     for r in range(n))
        w_wt = tuple(tuple(int(r == j) - root.coords[r] * on_wt[j] for j in range(n))
                     for r in range(n))
        return cls(rs, w_co, w_wt, trans)

    def _mat_vec(self, mat, coords):
        n = self.rs.rank
        return tuple(sum(mat[r][k] * coords[k] for k in range(n)) for r in range(n))

    def act_coweight(self, y: Coweight) -> Coweight:
        return Coweight(self._mat_vec(self.w_co, y.coords)) + self.trans

    def compose(self, other: "AffineWeylElement") -> "AffineWeylElement":
        n = self.rs.rank
        a, b = self, other
        w_co = tuple(tuple(sum(a.w_co[r][k] * b.w_co[k][c] for k in range(n))
                           for c in range(n)) for r in range(n))
        w_wt_inv = tuple(tuple(sum(b.w_wt_inv[r][k] * a.w_wt_inv[k][c] for k in range(n))
                               for c in range(n)) for r in range(n))
        trans = Coweight(a._mat_vec(a.w_co, b.trans.coords)) + a.trans
        return AffineWeylElement(self.rs, w_co, w_wt_inv, trans)

    def __eq__(self, other):
        return (self.w_co == other.w_co and self.trans == other.trans)

    def is_identity(self) -> bool:
        n = self.rs.rank
        if not self.trans.is_zero():
            return False
        return all(self.w_co[r][c] == (1 if r == c else 0)
                   for r in range(n) for c in range(n))

    def _has_left_descent(self, i: int) -> bool:
        # left descent at node i iff x^{-1}(a_i) is a negative affine root; for
        # x = t_beta w acting on coweights by y -> w(y) + beta, the root action is
        # x^{-1}(n*delta + alpha) = (n + <beta, alpha>) delta + w^{-1}(alpha)
        rs = self.rs
        if i == 0:
            alpha = -rs.highest_root
            n0 = 1
        else:
            alpha = rs.simple_root(i)
            n0 = 0
        n_new = n0 + rs.pair(self.trans, alpha)
        if n_new != 0:
            return n_new < 0
        image = self._mat_vec(self.w_wt_inv, alpha.coords)
        nonzero = next(c for c in image if c != 0)
        return nonzero < 0

    def reduced_word(self, max_steps: int = 10**6) -> tuple:
        """Greedy reduced word (smallest descent node first); validated by
        recomposing the element from the word."""
        cur = self
        word = []
        steps = 0
        while not cur.is_identity():
            steps += 1
            if steps > max_steps:
                raise RuntimeError("reduced-word extraction exceeded %d steps" % max_steps)
            for i in range(0, self.rs.rank + 1):
                if cur._has_left_descent(i):
                    word.append(i)
                    cur = AffineWeylElement.simple_reflection(self.rs, i).compose(cur)
                    break
            else:
                raise RuntimeError("no descent found for a non-identity element")
        check = AffineWeylElement.identity(self.rs)
        for i in word:
            check = check.compose(AffineWeylElement.simple_reflection(self.rs, i))
        if not (check == self):
            raise RuntimeError("reduced word failed to recompose the element")
        return tuple(word)

    def length(self) -> int:
        return len(self.reduced_word())


def translation_reduced_word(rs: RootSystem, lam: Coweight) -> tuple:
    """Reduced word for the translation by lam; lam must lie in the coroot lattice."""
    if not rs.in_coroot_lattice(lam):
        raise ValueError(
            "translation words require a coroot-lattice element; %r has "
            "non-integral coroot coordinates" % (lam.coords,))
    return AffineWeylElement.translation(rs, lam).reduced_word()


def dominant_coweights_below(rs: RootSystem, lam: Coweight) -> list:
    """Dominant mu <= lam (includes lam; all lie in the same pi1 coset)."""
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


def fixed_point_support(rs: RootSystem, lam: Coweight, cap: int = 10**6) -> frozenset:
    """Torus-fixed locus of the Schubert closure for dominant lam: the union of
    Weyl orbits of dominant mu <= lam in the same coset."""
    if not rs.is_dominant_coweight(lam):
        raise ValueError("fixed-point support needs a dominant coweight")
    pts = set()
    for mu in dominant_coweights_below(rs, lam):
        pts.update(rs.weyl_orbit(mu, cap=cap))
        if len(pts) > cap:
            raise OrbitCapExceeded("fixed-point support exceeds cap of %d" % cap)
    return frozenset(pts)

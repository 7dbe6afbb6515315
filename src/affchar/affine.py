"""Untwisted affine root data built over a finite root system.

Real affine roots are n*delta + alpha with alpha a finite root; affine
coroots are c*K + a with a a finite coroot.  Affine weights are level*Lambda
+ finite + d*delta triples.  ``node_table`` is the one definition of how the
simple affine nodes act on the (q, weight) keys that characters store.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .rootsys import DEFAULT_ORBIT_CAP, Coweight, OrbitCapExceeded, RootSystem, Weight


@dataclass(frozen=True)
class AffineRoot:
    """n*delta + finite; real iff the finite part is nonzero."""

    n: int
    finite: Weight

    def is_real(self) -> bool:
        return not self.finite.is_zero()


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


class AffineNode(NamedTuple):
    """How simple affine node i acts on a character key (q-numerator, weight
    key): <key, alpha_i-check> is row . key[1:] / weight_denominator plus
    level_coeff times the level, and step is the key of -alpha_i, so s_i sends
    a key of pairing m to key + m*step."""

    row: tuple
    level_coeff: int
    step: tuple
    wden: int

    def pairing(self, key, level: int) -> int:
        m, r = divmod(sum(a * k for a, k in zip(self.row, key[1:]) if a), self.wden)
        if r:
            raise ValueError("weight pairs non-integrally with the chosen coroot")
        return m + self.level_coeff * level


@lru_cache(maxsize=None)
def node_table(rs: RootSystem) -> tuple:
    """The AffineNode of every node 0..rank: alpha_0 = delta - theta, whose
    coroot K - theta-coroot pairs through the level, and the finite simple
    roots, whose coroots pair through the integer Cartan rows."""
    wden = rs.weight_denominator
    theta_row = tuple(-int(c) for c in
                      rs.coweight_fundamental_coords(rs.highest_root_coroot))
    nodes = [AffineNode(theta_row, 1,
                        (rs.q_denominator,) + rs.weight_key(rs.highest_root), wden)]
    nodes += [AffineNode(rs.cartan[i - 1], 0,
                         (0,) + rs.weight_key(-rs.simple_root(i)), wden)
              for i in range(1, rs.rank + 1)]
    return tuple(nodes)


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


def fixed_point_support(rs: RootSystem, lam: Coweight,
                        cap: int = DEFAULT_ORBIT_CAP) -> frozenset:
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

"""Untwisted affine root data built over a finite root system.

Real affine roots are n*delta + alpha with alpha a finite root; affine
coroots are c*K + a with a a finite coroot.  Affine weights are level*Lambda
+ finite + d*delta triples.  ``node_table`` is the one definition of how the
simple affine nodes act on the (q, weight) keys that characters store;
``packing`` reads it to pack those keys into single ints for the Demazure
kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .rootsys import DEFAULT_ORBIT_CAP, Coweight, OrbitCapExceeded, RootSystem, Weight


class AffineRoot(NamedTuple):
    """n*delta + finite; real iff the finite part is nonzero."""

    n: int
    finite: Weight

    def is_real(self) -> bool:
        return not self.finite.is_zero()


class AffineCoroot(NamedTuple):
    k_coeff: Fraction
    finite: Coweight


class AffineWeight(NamedTuple):
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


# spare bits per field above what the first node needs: the tracked bound may
# grow 2**_SPARE-fold before the terms are packed again at a larger width
_SPARE = 6


class Packing(NamedTuple):
    """Character keys (q-numerator, weight key) packed into single ints.

    Field j of a key is node j's level-0 pairing ``nodes[j].pairing(key, 0)``
    (for node 0 that is -<nu, theta-check>).  At a field width w a key packs
    to sum_j (field_j + 2**(w-1)) << j*w plus q << (rank+1)*w, the q-numerator
    in the unbounded top bits.  While every field has magnitude below
    2**(w-1) that is the unique base-2**w expansion, so packing is injective,
    a field is one shift and mask, keys order by q first, and adding
    ``steps(w)[i]`` (node i's step packed without the biases) adds the step to
    every field and to q: s_i sends a key of pairing m to key + m*step, and
    the node's string through a key is an int range.  ``reach[i]`` is the
    largest field magnitude of node i's step; ``unrows`` turns fields
    1..rank back into a weight key."""

    nodes: tuple
    reach: tuple
    unrows: tuple

    def fields(self, key) -> tuple:
        return tuple(node.pairing(key, 0) for node in self.nodes)

    def steps(self, width: int, graded: bool = True) -> tuple:
        """The packed steps at ``width``; ``graded=False`` leaves out node 0's
        q-step, which is how e^delta = 1 acts on packed keys."""
        qshift = len(self.nodes) * width
        return tuple(sum(f << (j * width) for j, f in enumerate(self.fields(node.step)))
                     + (node.step[0] << qshift if graded else 0) for node in self.nodes)

    def pack(self, terms: dict, level: int, width: int = 0) -> tuple:
        """(packed terms, width, bound): ``bound`` is the largest field
        magnitude of the terms, and the width, at least ``width``, leaves room
        for one node application at ``level`` (see ``QCharacter.demazure``)
        with _SPARE bits to spare, so also for the sum of two fields of
        magnitude at most ``bound``.  Raises ValueError for a weight off the
        weight lattice."""
        fields = {}
        for key in terms:
            if key[1:] not in fields:
                fields[key[1:]] = self.fields(key)
        bound = max((abs(f) for fs in fields.values() for f in fs), default=0)
        top = max(self.reach)
        width = max(width, ((top + 1) * bound + top * abs(level)).bit_length()
                    + 1 + _SPARE)
        half = 1 << (width - 1)
        qshift = len(self.nodes) * width
        low = {w: sum((f + half) << (j * width) for j, f in enumerate(fs))
               for w, fs in fields.items()}
        packed = {low[key[1:]] + (key[0] << qshift): c for key, c in terms.items()}
        return packed, width, bound

    def unpack(self, packed: dict, width: int) -> dict:
        """The character terms, keyed (q-numerator,) + weight key, of packed
        terms; one weight key is computed per distinct weight."""
        half, mask = 1 << (width - 1), (1 << width) - 1
        qshift = len(self.nodes) * width
        low_mask = (1 << qshift) - 1
        wkeys = {}
        out = {}
        for key, c in packed.items():
            low = key & low_mask
            wkey = wkeys.get(low)
            if wkey is None:
                fs = [((low >> (j * width)) & mask) - half
                      for j in range(1, len(self.nodes))]
                wkey = wkeys[low] = tuple(sum(u * f for u, f in zip(row, fs) if u)
                                          for row in self.unrows)
            out[(key >> qshift,) + wkey] = c
        return out


@lru_cache(maxsize=None)
def packing(rs: RootSystem) -> Packing:
    """The Packing of rs, read off its node table."""
    nodes = node_table(rs)
    reach = tuple(max(abs(node.pairing(other.step, 0)) for node in nodes)
                  for other in nodes)
    # fields 1..rank are the fundamental-weight coordinates of the weight
    unrows = tuple(zip(*(rs.weight_key(om) for om in rs.fundamental_weights)))
    return Packing(nodes, reach, unrows)


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


class CurveData(NamedTuple):
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


def dominant_coweights_below(rs: RootSystem, lam: Coweight,
                             cap: int = DEFAULT_ORBIT_CAP) -> list:
    """Dominant mu <= lam (includes lam; all lie in the same pi1 coset).

    The walk runs on s times the values on the simple roots (s clears their
    denominators): a step subtracts a positive coroot's integer label vector,
    and mu is dominant when no label is negative.  Raises OrbitCapExceeded
    past ``cap`` coweights."""
    fund = rs.coweight_fundamental_coords(lam)
    s = math.lcm(*(Fraction(c).denominator for c in fund))
    start = tuple(int(c * s) for c in fund)
    steps = [tuple(int(c * s) for c in rs.coweight_fundamental_coords(beta))
             for beta in rs.positive_coroots]
    out = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for labels in frontier:
            for step in steps:
                mu = tuple(a - b for a, b in zip(labels, step))
                if min(mu) >= 0 and mu not in out:
                    if len(out) >= cap:
                        raise OrbitCapExceeded(
                            "dominant coweights below lam exceed cap of %d" % cap)
                    out.add(mu)
                    nxt.append(mu)
        frontier = nxt
    below = [rs.coweight_from_fundamental([Fraction(c, s) for c in mu]) for mu in out]
    return sorted(below, key=lambda c: (-sum(c.coords), c.coords))


def fixed_point_support(rs: RootSystem, lam: Coweight,
                        cap: int = DEFAULT_ORBIT_CAP) -> frozenset:
    """Torus-fixed locus of the Schubert closure for dominant lam: the union of
    Weyl orbits of dominant mu <= lam in the same coset."""
    if not rs.is_dominant_coweight(lam):
        raise ValueError("fixed-point support needs a dominant coweight")
    pts = set()
    for mu in dominant_coweights_below(rs, lam, cap):
        pts.update(rs.weyl_orbit(mu, cap=cap))
        if len(pts) > cap:
            raise OrbitCapExceeded("fixed-point support exceeds cap of %d" % cap)
    return frozenset(pts)

"""Heisenberg Fock characters and lattice (coset) characters.

A level-k Fock module attached to a lattice point lam contributes a single
finite torus weight k*iota(lam); its graded dimension over that weight is the
number of multipartitions into rank-many colours, and the whole tower sits at
the absolute q-offset k*(lam,lam)/2.  A lattice-coset character is the sum of
these towers over all points of the coset, re-normalized to start at q^0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .charring import QCharacter
from .rootsys import DEFAULT_ORBIT_CAP, Coweight, RootSystem


def multipartition_counts(colors: int, depth: int) -> list:
    """Coefficients of prod_{n>=1} (1-q^n)^(-colors) up to q^depth."""
    out = [1] + [0] * depth
    for n in range(1, depth + 1):
        for _ in range(colors):
            for d in range(n, depth + 1):
                out[d] += out[d - n]
    return out


class LatticeCoset(namedtuple("LatticeCoset", "rs shift")):
    """Coset shift + coroot lattice inside the coweight lattice of rs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, rs: RootSystem, shift: Coweight):
        if not rs.in_coweight_lattice(shift):
            raise ValueError("coset shift must lie in the coweight lattice")
        if rs.is_simply_laced():
            for beta in rs.positive_coroots:
                norm = rs.coform(beta, beta)
                if norm.denominator != 1 or norm.numerator % 2:
                    raise ArithmeticError("coroot %r has odd or fractional norm %s"
                                          % (beta, norm))
        return super().__new__(cls, rs, shift)


def minimal_coset_norm_half(rs: RootSystem, shift: Coweight,
                            cap: int = DEFAULT_ORBIT_CAP) -> Fraction:
    """min (x,x)/2 over the coset; the shift itself bounds the search."""
    b0 = rs.coform(shift, shift) / 2
    return min(norm for _, norm in rs.lattice_points(shift, b0, cap)) / 2


def lattice_character(coset: LatticeCoset, depth,
                      cap: int = DEFAULT_ORBIT_CAP) -> QCharacter:
    """Level-one character of the coset module: the sum of Fock towers over all
    coset points, normalized so the minimal q-exponent is 0 and complete
    through (normalized) depth ``depth``.

    One pass over the enumerator: the tower over x carries the weight key of
    iota(x) from q-exponent (x,x)/2 - base on, base being the minimal
    (x,x)/2 of the coset; distinct points have distinct weights."""
    rs = coset.rs
    depth = Fraction(depth)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    base = minimal_coset_norm_half(rs, coset.shift, cap=cap)
    counts = multipartition_counts(rs.rank, int(depth))
    qden = rs.q_denominator
    top = depth * qden
    terms = {}
    for coords, norm in rs.lattice_points(coset.shift, depth + base, cap):
        q = (norm / 2 - base) * qden
        if q.denominator != 1:
            raise ArithmeticError("coset point %r has q-offset %s/%d"
                                  % (coords, q, qden))
        key = rs.weight_key(rs.iota(Coweight(coords)))
        for d, c in enumerate(counts):
            qn = int(q) + d * qden
            if qn > top:
                break
            terms[(qn,) + key] = c
    return QCharacter._raw(rs, 1, terms, depth, True)

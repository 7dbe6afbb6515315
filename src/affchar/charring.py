"""Exact q-graded character ring.

A QCharacter is a finitely supported integer combination of terms
e^(finite weight) * q^(q_exp), where q = e^(-delta) grades by depth below the
highest-weight line.  Coefficients are arbitrary-precision integers and both
weight coordinates and q-exponents are exact rationals, stored internally as
integers against per-root-system denominators so that dictionary keys stay
cheap.  A character carries its level as metadata (the affine Demazure
operator at node 0 needs it) and an optional truncation depth; the truncated
flag is sticky through arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .affine import packing
from .rootsys import OrbitCapExceeded, RootSystem, Weight


class TruncatedCharacterError(ValueError):
    """Raised when an operation requires an untruncated character."""


def _qnum(rs: RootSystem, q) -> int:
    v = Fraction(q) * rs.q_denominator
    if v.denominator != 1:
        raise ValueError("q-exponent %r has unsupported denominator" % (q,))
    return int(v)


class QCharacter:
    __slots__ = ("rs", "level", "depth", "truncated", "_terms")

    def __init__(self, rs, level, terms=None, depth=None, truncated=False):
        self.rs = rs
        self.level = level
        self.depth = None if depth is None else Fraction(depth)
        self.truncated = truncated
        data = {}
        if terms:
            qden = rs.q_denominator
            bound = None if self.depth is None else self.depth * qden
            for wt, q, coeff in terms:
                if coeff == 0:
                    continue
                key = (_qnum(rs, q),) + rs.weight_key(wt)
                if bound is not None and key[0] > bound:
                    self.truncated = True
                    continue
                data[key] = data.get(key, 0) + coeff
        self._terms = {k: v for k, v in data.items() if v}

    @classmethod
    def _raw(cls, rs, level, term_dict, depth, truncated):
        self = cls.__new__(cls)
        self.rs = rs
        self.level = level
        self.depth = depth
        self.truncated = truncated
        self._terms = term_dict
        return self

    @classmethod
    def unit(cls, rs, level: int = 0) -> "QCharacter":
        zero = Weight(tuple(Fraction(0) for _ in range(rs.rank)))
        return cls(rs, level, [(zero, Fraction(0), 1)])

    # -- inspection -------------------------------------------------------

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Yield (weight, q_exp, coeff) in canonical order (q asc, weight lex)."""
        rs = self.rs
        for key in sorted(self._terms):
            yield (rs.key_weight(key[1:]), Fraction(key[0], rs.q_denominator),
                   self._terms[key])

    def coeff(self, wt: Weight, q) -> int:
        key = (_qnum(self.rs, q),) + self.rs.weight_key(wt)
        return self._terms.get(key, 0)

    def total(self) -> int:
        return sum(self._terms.values())

    def min_q(self):
        if not self._terms:
            return None
        return Fraction(min(k[0] for k in self._terms), self.rs.q_denominator)

    def max_q(self):
        if not self._terms:
            return None
        return Fraction(max(k[0] for k in self._terms), self.rs.q_denominator)

    def layer(self, q) -> dict:
        """Finite-weight multiplicities of one q-layer."""
        qn = _qnum(self.rs, q)
        return {self.rs.key_weight(k[1:]): v for k, v in self._terms.items() if k[0] == qn}

    def __eq__(self, other):
        return (isinstance(other, QCharacter) and self.rs is other.rs
                and self.level == other.level and self._terms == other._terms)

    # -- ring operations ---------------------------------------------------

    def _check_compat(self, other):
        if self.rs is not other.rs:
            raise ValueError("characters live over different root systems")
        if self.depth != other.depth:
            raise ValueError("truncation depths differ: %r vs %r"
                             % (self.depth, other.depth))

    def __add__(self, other):
        self._check_compat(other)
        if self.level != other.level:
            raise ValueError("cannot add characters of different levels")
        out = dict(self._terms)
        for k, v in other._terms.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return QCharacter._raw(self.rs, self.level, out, self.depth,
                               self.truncated or other.truncated)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int) -> "QCharacter":
        if c == 0:
            return QCharacter._raw(self.rs, self.level, {}, self.depth, self.truncated)
        return QCharacter._raw(self.rs, self.level,
                               {k: c * v for k, v in self._terms.items()},
                               self.depth, self.truncated)

    def mul(self, other: "QCharacter") -> "QCharacter":
        """Convolution product; depths must agree, levels add.  Raises
        ValueError for a weight off the weight lattice.

        Both factors are packed (``affine.Packing``) at one width with room
        for the sum of two fields.  The fields are linear in the key, so a
        product's packed key is the sum of its factors' packed keys less one
        bias per field.  A pair beyond the depth sets the truncated flag even
        if its product term would cancel."""
        self._check_compat(other)
        pk = packing(self.rs)
        small, big = (self._terms, other._terms)
        if len(small) > len(big):
            small, big = big, small
        a, width, _ = pk.pack(small, 0)
        b, wide, _ = pk.pack(big, 0, width)
        if wide > width:
            a, width, _ = pk.pack(small, 0, wide)
        qshift = len(pk.nodes) * width
        bias = sum(1 << (j * width + width - 1) for j in range(len(pk.nodes)))
        # keys order by q first: q <= depth*qden exactly when key < limit
        limit = (None if self.depth is None
                 else (math.floor(self.depth * self.rs.q_denominator) + 1) << qshift)
        out = {}
        get = out.get
        dropped = False
        for k1, v1 in a.items():
            k1 -= bias
            for k2, v2 in b.items():
                key = k1 + k2
                if limit is not None and key >= limit:
                    dropped = True
                    continue
                out[key] = get(key, 0) + v1 * v2
        out = pk.unpack({k: v for k, v in out.items() if v}, width)
        return QCharacter._raw(self.rs, self.level + other.level, out, self.depth,
                               self.truncated or other.truncated or dropped)

    def normalized(self) -> "QCharacter":
        """Shift q-exponents so the minimal one is zero."""
        if not self._terms:
            return self
        m = min(k[0] for k in self._terms)
        if m == 0:
            return self
        out = {(k[0] - m,) + k[1:]: v for k, v in self._terms.items()}
        return QCharacter._raw(self.rs, self.level, out, self.depth, self.truncated)

    def truncate(self, depth) -> "QCharacter":
        depth = Fraction(depth)
        bound = depth * self.rs.q_denominator
        out = {k: v for k, v in self._terms.items() if k[0] <= bound}
        return QCharacter._raw(self.rs, self.level, out, depth,
                               self.truncated or len(out) < len(self._terms))

    # -- Demazure operators --------------------------------------------------

    def demazure(self, *word, cap=None, at_q1=False) -> "QCharacter":
        """Isobaric divided-difference operators of the nodes of ``word``
        (0 = affine node), the first node applied first.

        On a term of pairing m node i writes the q-weighted string sum: the
        full string down to the reflected weight for m >= 0, nothing for
        m = -1, and minus the interior of the upward string for m <= -2.
        The terms are packed once (``affine.Packing``), every string is an
        int range, and zeros and terms beyond the depth are dropped after
        each node.  Raises ValueError for a weight off the weight lattice and
        OrbitCapExceeded when more than ``cap`` terms are kept after a node.

        No field wraps: with every field of magnitude at most ``bound``, a
        node of step reach r writes fields f + t*s with |f| <= bound,
        |s| <= r and |t| <= |m| <= bound + |level|, so before each node
        (r+1)*bound + r*|level| must stay below 2**(width-1), and the terms
        are packed again at a larger width when it would not; after the
        node the bound grows by r times the largest |m| met.

        ``at_q1`` runs the same loop on the q = 1 specialization and returns
        ``self.demazure(*word).at_q1()``: e^delta = 1 is a ring map that every
        simple reflection respects (W fixes delta), so it commutes with every
        operator, and on packed keys it only takes the q-step out of node 0's
        step.  ``cap`` then counts q = 1 terms.  A q = 1 character has no
        depth, so a character with one raises ValueError.
        """
        rs, level = self.rs, self.level
        for i in word:
            if not 0 <= i <= rs.rank:
                raise ValueError("node index %d out of range" % i)
        if at_q1 and self.depth is not None:
            raise ValueError("the q = 1 specialization has no depth bound")
        pk = packing(rs)
        terms, width, bound = pk.pack((self.at_q1() if at_q1 else self)._terms, level)
        steps = pk.steps(width, not at_q1)
        # q <= depth*qden exactly when key < (floor(depth*qden) + 1) << qshift
        qtop = (None if self.depth is None
                else math.floor(self.depth * rs.q_denominator) + 1)
        truncated = self.truncated
        for i in word:
            reach, lvl = pk.reach[i], pk.nodes[i].level_coeff * level
            if (reach + 1) * bound + reach * abs(lvl) >= 1 << (width - 1):
                terms, width, bound = pk.pack(pk.unpack(terms, width), level)
                steps = pk.steps(width, not at_q1)
            shift, mask = i * width, (1 << width) - 1
            offset = (1 << (width - 1)) - lvl
            step = steps[i]
            out = {}
            get = out.get
            hi = lo = 0
            for key, c in terms.items():
                m = ((key >> shift) & mask) - offset
                if m >= 0:
                    if m > hi:
                        hi = m
                    for k2 in range(key, key + (m + 1) * step, step):
                        out[k2] = get(k2, 0) + c
                elif m < -1:
                    if m < lo:
                        lo = m
                    for k2 in range(key - step, key + m * step, -step):
                        out[k2] = get(k2, 0) - c
            bound += reach * max(hi, -lo)
            terms = {k: v for k, v in out.items() if v}
            if qtop is not None:
                limit = qtop << (len(pk.nodes) * width)
                kept = {k: v for k, v in terms.items() if k < limit}
                truncated = truncated or len(kept) < len(terms)
                terms = kept
            if cap is not None and len(terms) > cap:
                raise OrbitCapExceeded(
                    "Demazure character exceeds cap of %d terms" % cap)
        return QCharacter._raw(rs, level, pk.unpack(terms, width), self.depth,
                               truncated)

    # -- specialization and symmetry ------------------------------------------

    def specialize_q1(self, allow_truncated: bool = False) -> dict:
        """Sum coefficients over q per finite weight (the underlying G-character)."""
        if self.truncated and not allow_truncated:
            raise TruncatedCharacterError(
                "q=1 specialization of a truncated character is only a lower "
                "bound; pass allow_truncated=True to accept that")
        return {self.rs.key_weight(w): v for w, v in self._sums_over_q().items()}

    def at_q1(self) -> "QCharacter":
        """Every term moved to q^0: the q = 1 specialization on scaled keys."""
        return QCharacter._raw(self.rs, self.level,
                               {(0,) + w: v for w, v in self._sums_over_q().items()},
                               self.depth, self.truncated)

    def _sums_over_q(self) -> dict:
        out = {}
        for k, v in self._terms.items():
            w = k[1:]
            out[w] = out.get(w, 0) + v
        return {w: v for w, v in out.items() if v}

    def is_weyl_invariant(self) -> bool:
        """True iff every finite Demazure operator fixes the character, which
        holds exactly when every simple reflection does (D_i f = f iff
        s_i f = f); False when a weight lies off the weight lattice."""
        try:
            return all(self.demazure(i) == self for i in range(1, self.rs.rank + 1))
        except ValueError:
            return False

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        """One term per line: ``w=(c1,...,cl) q=p/r coeff=m`` with weights in
        fundamental-weight coordinates; canonical order, byte-stable."""
        rs = self.rs
        lines = []
        for wt, q, coeff in self.terms():
            fund = rs.weight_fundamental_coords(wt)
            ws = ",".join(str(c) for c in fund)
            lines.append("w=(%s) q=%d/%d coeff=%d"
                         % (ws, q.numerator, q.denominator, coeff))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, rs, level, text, depth=None, truncated=False):
        terms = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            wpart, qpart, cpart = line.split()
            coords = [Fraction(x) for x in wpart[len("w=("):-1].split(",")]
            wt = rs.weight_from_fundamental(coords)
            q = Fraction(qpart[len("q="):])
            coeff = int(cpart[len("coeff="):])
            terms.append((wt, q, coeff))
        return cls(rs, level, terms, depth=depth, truncated=truncated)


def first_discrepancy(a: QCharacter, b: QCharacter):
    """First (q asc, weight lex) term where the characters differ, compared up
    to the common complete depth.  Returns None if they agree, otherwise a
    tuple (weight, q, coeff_a, coeff_b)."""
    if a.rs is not b.rs:
        raise ValueError("characters live over different root systems")
    # a truncated character is complete up to its depth, a full one everywhere
    depths = [c.depth for c in (a, b) if c.truncated and c.depth is not None]
    bound = min(depths) * a.rs.q_denominator if depths else None
    keys = set(a._terms) | set(b._terms)
    for key in sorted(keys):
        if bound is not None and key[0] > bound:
            continue
        ca = a._terms.get(key, 0)
        cb = b._terms.get(key, 0)
        if ca != cb:
            return (a.rs.key_weight(key[1:]), Fraction(key[0], a.rs.q_denominator),
                    ca, cb)
    return None


def chars_agree(a: QCharacter, b: QCharacter) -> bool:
    return first_discrepancy(a, b) is None

"""Affine Demazure module characters for translation Schubert varieties.

The character for a dominant coweight lam at level k is produced by the
weight-raising construction: start from the extreme torus weight of the point
of the lattice translation lam, reflect by simple affine nodes until the
weight is affine-dominant, then apply the recorded Demazure operators back
down from the dominant base weight.  The result is a finite, Weyl-invariant
q-character normalized to start at q^0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .affine import (AffineWeight, dominant_coweights_below, fixed_point_support,
                     fixed_point_weight, node_table)
from .charring import QCharacter, _qnum
from .rootsys import DEFAULT_ORBIT_CAP, Coweight, OrbitCapExceeded, RootSystem


class DemazureCharacter(NamedTuple):
    char: QCharacter
    lam: Coweight
    level: int
    base_weight: AffineWeight
    word: tuple


def demazure_character(rs: RootSystem, lam: Coweight, k: int, depth=None,
                       cap: int = DEFAULT_ORBIT_CAP) -> DemazureCharacter:
    """Character of the level-k affine Demazure module attached to dominant lam.

    ``depth`` only guards runaway inputs; the module is finite-dimensional and
    is computed in full by default.  Raises OrbitCapExceeded when the weight
    raising takes more than ``cap`` steps or more than ``cap`` terms are kept
    after a node.
    """
    if k < 1:
        raise ValueError("level must be a positive integer, got %r" % (k,))
    if not rs.in_coweight_lattice(lam):
        raise ValueError("lam must lie in the adjoint coweight lattice")
    if not rs.is_dominant_coweight(lam):
        raise ValueError("lam must be dominant, got pairing vector (%s)"
                         % ", ".join(map(str, rs.coweight_fundamental_coords(lam))))
    mu = fixed_point_weight(rs, lam, k)
    key = (_qnum(rs, -mu.delta_deg),) + rs.weight_key(mu.finite)
    nodes = node_table(rs)
    recorded = []
    for _ in range(cap + 1):
        for i, node in enumerate(nodes):
            m = node.pairing(key, k)
            if m < 0:
                # s_i: the far end of the node's string through key
                recorded.append(i)
                key = tuple(a + m * d for a, d in zip(key, node.step))
                break
        else:
            break
    else:
        raise OrbitCapExceeded("weight raising exceeds cap of %d steps" % cap)
    word = tuple(reversed(recorded))
    base = AffineWeight(k, rs.key_weight(key[1:]),
                        -Fraction(key[0], rs.q_denominator))
    chi = QCharacter(rs, k, [(base.finite, -base.delta_deg, 1)], depth=depth)
    chi = chi.demazure(*word, cap=cap)
    # report the section-space side: finite support is then the iota-image of
    # the fixed locus and the q^0 layer is the irreducible of highest weight
    # k * (minuscule weight of the coset of lam)
    chi = chi.normalized()
    terms = {(t[0],) + tuple(-c for c in t[1:]): v for t, v in chi._terms.items()}
    chi = QCharacter._raw(rs, k, terms, chi.depth, chi.truncated)
    return DemazureCharacter(chi, lam, k, base, word)


def finite_support(dc: DemazureCharacter) -> frozenset:
    """Finite weights with nonzero total multiplicity."""
    if dc.char.truncated:
        raise ValueError("support of a truncated character is incomplete")
    return frozenset(dc.char.specialize_q1())


class TensorCheck(NamedTuple):
    holds: bool
    lhs: dict
    rhs: dict


def tensor_product_check(rs: RootSystem, lam: Coweight, mu: Coweight, k: int,
                         cap: int = DEFAULT_ORBIT_CAP) -> TensorCheck:
    """Compare the finite character of the module for lam+mu with the product
    of the finite characters for lam and mu."""
    both = demazure_character(rs, lam + mu, k, cap=cap)
    a = demazure_character(rs, lam, k, cap=cap)
    b = demazure_character(rs, mu, k, cap=cap)
    lhs = both.char.specialize_q1()
    rhs = a.char.at_q1().mul(b.char.at_q1()).specialize_q1()
    return TensorCheck(lhs == rhs, lhs, rhs)


def restriction_domination_check(rs: RootSystem, lam: Coweight, mu: Coweight,
                                 k: int, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """True iff the finite character for mu is dominated coefficientwise by the
    one for lam; requires mu <= lam in dominance order."""
    if not rs.dominance_leq(mu, lam):
        raise ValueError("mu must be dominance-below lam")
    big = demazure_character(rs, lam, k, cap=cap).char.specialize_q1()
    small = demazure_character(rs, mu, k, cap=cap).char.specialize_q1()
    return all(big.get(w, 0) >= c for w, c in small.items())


def fixed_support_image(rs: RootSystem, lam: Coweight,
                        cap: int = DEFAULT_ORBIT_CAP) -> frozenset:
    """Image under iota of the torus-fixed support of the Schubert closure."""
    return frozenset(rs.iota(c) for c in fixed_point_support(rs, lam, cap))


def smooth_locus_profile(rs: RootSystem, lam: Coweight, k: int = 1,
                         cap: int = DEFAULT_ORBIT_CAP) -> dict:
    """Multiplicity of each dominant mu <= lam in the level-k module for lam,
    read at the weight iota(mu); multiplicity 1 marks the open stratum."""
    q1 = demazure_character(rs, lam, k, cap=cap).char.specialize_q1()
    return {mu: q1.get(rs.iota(mu), 0)
            for mu in dominant_coweights_below(rs, lam, cap)}


def boundary_dimension_check(rs: RootSystem, i: int) -> bool:
    """Interpretation-dependent consistency check in type D: the module for the
    i-th fundamental coweight should split against the boundary stratum as
    dim V(omega_i) = dim of the irreducible with extreme weight iota(omega_i)
    plus dim V(omega_{i-2})."""
    if rs.type_label != "D" or not (3 <= i <= rs.rank - 2):
        raise ValueError("the boundary check applies to D-type nodes 3..rank-2")
    om = rs.fundamental_coweight(i)
    total = demazure_character(rs, om, 1).char.total()
    top = sum(rs.irreducible_keys(rs.weight_key(rs.iota(om))).values())
    below = demazure_character(rs, rs.fundamental_coweight(i - 2), 1).char.total()
    return total == top + below

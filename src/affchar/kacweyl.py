"""Truncated characters of irreducible integrable highest-weight modules.

The Weyl-Kac formula is read per q-layer in the basis of finite alternants
J(sigma) = sum_w det(w) e^(w sigma), sigma strictly dominant.  Writing the
affine Weyl group as W x (coroot lattice) and re-indexing each translation by
the finite part, the numerator sum over (beta, u) collapses to one term per
coroot-lattice point beta: sign * J(reduced s - khat*iota(beta)) at
q = khat*(beta,beta)/2 - <beta, s>, where s = hw + rho, khat = level + h^vee
and the reduction to the strictly dominant chamber supplies the sign.  No
Weyl group element is ever enumerated.  The denominator is the same sum for
the trivial weight (the denominator identity).  Writing the character per
q-layer as ch_d and the denominator layers as R_d, sum_j ch_j * R_(d-j) =
numerator_d determines ch_d: the layer d remainder decomposes as
sum n_nu * J(nu + rho) with n_nu >= 0, and ch_d is the corresponding sum of
finite irreducible characters.  Everything is exact integer arithmetic; a
negative n_nu aborts, which is a sharp internal consistency check on the
whole pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .charring import QCharacter
from .rootsys import DEFAULT_ORBIT_CAP, RootSystem, Weight, coweight


class AffineDominantWeight(NamedTuple):
    """Level k plus a dominant finite weight nu with <theta-coroot, nu> <= k."""

    level: int
    finite: Weight

    def validate(self, rs: RootSystem):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        fc = rs.weight_fundamental_coords(self.finite)
        if any(c < 0 or c.denominator != 1 for c in fc):
            raise ValueError("finite part must be dominant integral")
        if rs.pair(rs.highest_root_coroot, self.finite) > self.level:
            raise ValueError(
                "integrability bound violated: <theta, nu> = %s > level %d"
                % (rs.pair(rs.highest_root_coroot, self.finite), self.level))


def _alternating_layers(rs: RootSystem, khat: int, shifted: Weight, n_layers: int,
                        cap: int):
    """J-layers 0..n_layers of sum_(beta,u) det(u) e^(u(shifted) - khat*iota(beta)):
    layer q maps each strictly dominant sigma (scaled key) to its coefficient
    of J(sigma).  One term per translation beta: the reduction of
    shifted - khat*iota(beta), at q = khat*(beta,beta)/2 - <beta, shifted>."""
    cs = rs.form(shifted, shifted)
    s_hi = _sqrt_ceil(cs) + _sqrt_ceil(cs + 2 * khat * n_layers)
    t_hi = Fraction(s_hi * s_hi, khat * khat) + 1
    wden = rs.weight_denominator
    skey = rs.weight_key(shifted)
    # <alpha_i-check, shifted> and iota(alpha_i-check), both times wden
    pairvec = tuple(sum(a * k for a, k in zip(row, skey)) for row in rs.cartan)
    iota_key = rs.weight_key(Weight(tuple(1 / d for d in rs.root_norm_halves)))
    layers = [dict() for _ in range(n_layers + 1)]
    for combo, norm in rs.lattice_points(coweight([0] * rs.rank), t_hi / 2, cap):
        if norm.denominator != 1:
            raise ArithmeticError("coroot-lattice point %r has norm %s" % (combo, norm))
        dot = sum(b * p for b, p in zip(combo, pairvec) if b)
        q, r = divmod(khat * norm.numerator * wden - 2 * dot, 2 * wden)
        if r or q < 0:
            raise ArithmeticError("bad grading in the alternating sum")
        if q > n_layers:
            continue
        red, sign = rs.reduce_strict(tuple(
            s - khat * b * i for s, b, i in zip(skey, combo, iota_key)))
        if sign == 0:
            continue
        layer = layers[q]
        v = layer.get(red, 0) + sign
        if v:
            layer[red] = v
        else:
            del layer[red]
    return layers


def _sqrt_ceil(x) -> int:
    if x <= 0:
        return 0
    return math.isqrt(math.ceil(x)) + 1


def weyl_kac_character(rs: RootSystem, hw: AffineDominantWeight, depth,
                       cap: int = DEFAULT_ORBIT_CAP) -> QCharacter:
    """Character of the irreducible integrable module with highest weight
    level*Lambda + finite, complete through integer q-depth ``depth``; ``cap``
    bounds the candidate coordinate values the coroot-lattice enumerator
    ``RootSystem.lattice_points`` scans."""
    hw.validate(rs)
    depth = Fraction(depth)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = int(depth)
    k = hw.level
    hv = rs.dual_coxeter
    rho = rs.rho_weight
    rho_key = rs.weight_key(rho)
    numJ = _alternating_layers(rs, k + hv, hw.finite + rho, n, cap)
    denJ = _alternating_layers(rs, hv, rho, n, cap)
    if denJ[0] != {rho_key: 1}:
        raise ArithmeticError("denominator identity failed at q^0")
    layers = []
    for d in range(n + 1):
        rem = numJ[d]
        for j in range(d):
            denj = denJ[d - j]
            if not denj:
                continue
            for wkey, m in layers[j].items():
                for sigma, r in denj.items():
                    red, sign = rs.reduce_strict(
                        tuple(a + b for a, b in zip(sigma, wkey)))
                    if sign == 0:
                        continue
                    v = rem.get(red, 0) - sign * r * m
                    if v:
                        rem[red] = v
                    elif red in rem:
                        del rem[red]
        layer = {}
        for sigma, c in rem.items():
            if c < 0:
                raise ArithmeticError(
                    "negative irreducible multiplicity in layer %d "
                    "(internal inconsistency)" % d)
            nu_key = tuple(a - r for a, r in zip(sigma, rho_key))
            for wkey, m in rs.irreducible_keys(nu_key).items():
                layer[wkey] = layer.get(wkey, 0) + c * m
        layers.append(layer)
    qden = rs.q_denominator
    terms = {}
    for d, layer in enumerate(layers):
        for wkey, m in layer.items():
            if m:
                terms[(d * qden,) + wkey] = m
    chi = QCharacter._raw(rs, k, terms, depth, True)
    return chi.normalized()

"""Command-line verification harness.

Each named check runs one character-level identity and reports PASS, FAIL or
SKIPPED (resource cap hit), with the first discrepancy in canonical order for
failures.  Reports are emitted as aligned text or as byte-stable JSON; the
elapsed_ms field is excluded from the determinism contract.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .affine import (AffineCoroot, AffineRoot, affine_coroot, curve_data,
                     fixed_point_support)
from .charring import first_discrepancy
from .demazure import (demazure_character, finite_support,
                       fixed_support_image, restriction_domination_check,
                       smooth_locus_profile, tensor_product_check)
from .fock import LatticeCoset, lattice_character
from .kacweyl import AffineDominantWeight, weyl_kac_character
from .rootsys import DEFAULT_ORBIT_CAP, OrbitCapExceeded, build_root_system


class VerificationReport(NamedTuple):
    check: str
    params: dict
    status: str
    first_discrepancy: dict | None = None
    elapsed_ms: int = 0
    truncation_flags: list | tuple = ()
    skip_reason: str | None = None

    def to_json(self) -> str:
        obj = {
            "check": self.check,
            "identity": CHECKS[self.check].identity if self.check in CHECKS else "",
            "params": self.params,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
            "engine_version": __version__,
            "truncation_flags": self.truncation_flags,
        }
        if self.first_discrepancy is not None:
            obj["first_discrepancy"] = self.first_discrepancy
        if self.skip_reason is not None:
            obj["skip_reason"] = self.skip_reason
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        cols = [
            ("check", self.check),
            ("status", self.status),
            ("params", _params_str(self.params)),
        ]
        if self.first_discrepancy is not None:
            cols.append(("first_discrepancy", json.dumps(self.first_discrepancy,
                                                         sort_keys=True)))
        if self.skip_reason is not None:
            cols.append(("reason", self.skip_reason))
        cols.append(("elapsed_ms", str(self.elapsed_ms)))
        return "  ".join("%s=%s" % kv for kv in cols) + "\n"


def _params_str(params: dict) -> str:
    return ",".join("%s:%s" % (k, params[k]) for k in sorted(params))


def _mismatch(coords, q, lhs, rhs) -> dict:
    """A first discrepancy: weight coordinates (or None), q, both sides."""
    return {"weight": None if coords is None else [str(c) for c in coords],
            "q": q, "lhs": lhs, "rhs": rhs}


def _discrepancy(rs, fd) -> dict:
    wt, q, lhs, rhs = fd
    return _mismatch(rs.weight_fundamental_coords(wt),
                     "%d/%d" % (q.numerator, q.denominator), lhs, rhs)


def _finite_discrepancy(rs, lhs: dict, rhs: dict) -> dict | None:
    keys = sorted(set(lhs) | set(rhs), key=lambda w: w.coords)
    for w in keys:
        a, b = lhs.get(w, 0), rhs.get(w, 0)
        if a != b:
            return _mismatch(rs.weight_fundamental_coords(w), None, a, b)
    return None


# -- individual checks ---------------------------------------------------------


def _check_fks(rs, params):
    depth = params["depth"]
    coset = rs.coweight_from_fundamental(params["coset"])
    reps = rs.minuscule_reps()
    key = rs.coset_key(coset)
    if key not in reps:
        raise ValueError("no minuscule representative for the given coset")
    om = reps[key]
    cap = params["cap_orbit"]
    lhs = weyl_kac_character(rs, AffineDominantWeight(params["level"], rs.iota(om)),
                             depth, cap=cap)
    rhs = lattice_character(LatticeCoset(rs, om), depth, cap=cap)
    if params.get("dump"):
        base = str(params["dump"])
        for side, chi in (("lhs", lhs), ("rhs", rhs)):
            with _atomic_writer("%s.%s.txt" % (base, side)) as fh:
                fh.write(chi.to_text())
    fd = first_discrepancy(lhs, rhs)
    flags = ["lhs:truncated", "rhs:truncated"]
    if fd is None:
        return "PASS", None, flags
    return "FAIL", _discrepancy(rs, fd), flags


def _check_tensor(rs, params):
    lam = rs.coweight_from_fundamental(params["lam"])
    mu = rs.coweight_from_fundamental(params["mu"])
    res = tensor_product_check(rs, lam, mu, params["level"], params["cap_orbit"])
    if res.holds:
        return "PASS", None, []
    return "FAIL", _finite_discrepancy(rs, res.lhs, res.rhs), []


def _check_borel_weil(rs, params):
    depth = params["depth"]
    k = params["level"]
    target = weyl_kac_character(rs, AffineDominantWeight(k, rs.iota(
        rs.coweight_from_fundamental([0] * rs.rank))), depth, cap=params["cap_orbit"])
    theta = rs.highest_root_coroot
    prev = None
    for n in range(1, int(depth) + 4):
        dc = demazure_character(rs, n * theta, k, cap=params["cap_orbit"])
        cur = dc.char.truncate(depth)
        if prev is not None:
            for wt, q, c in prev.terms():
                if cur.coeff(wt, q) < c:
                    return "FAIL", _discrepancy(rs, (wt, q, cur.coeff(wt, q), c)), []
        prev = cur
        if n >= int(depth) + 1:
            fd = first_discrepancy(cur, target)
            if fd is not None:
                return "FAIL", _discrepancy(rs, fd), []
    return "PASS", None, ["target:truncated"]


def _check_smooth_locus(rs, params):
    lam = rs.coweight_from_fundamental(params["lam"])
    profile = smooth_locus_profile(rs, lam, params["level"], params["cap_orbit"])
    for mu, mult in sorted(profile.items(), key=lambda kv: kv[0].coords):
        want = 1 if mu == lam else 2  # exactly 1 at lam, at least 2 below it
        if mult < want or (want == 1 and mult > 1):
            return "FAIL", _mismatch(rs.coweight_fundamental_coords(mu), None,
                                     mult, want), []
    return "PASS", None, []


def _check_fixed_support(rs, params):
    lam = rs.coweight_from_fundamental(params["lam"])
    supp = finite_support(demazure_character(rs, lam, params["level"],
                                             cap=params["cap_orbit"]))
    img = fixed_support_image(rs, lam, params["cap_orbit"])
    if supp == img:
        return "PASS", None, []
    diff = sorted(supp ^ img, key=lambda w: w.coords)
    w = diff[0]
    return "FAIL", _mismatch(rs.weight_fundamental_coords(w), None,
                             int(w in supp), int(w in img)), []


def _check_minuscule(rs, params):
    for key, om in sorted(rs.minuscule_reps().items()):
        if om.is_zero():
            continue
        dc = demazure_character(rs, om, 1, cap=params["cap_orbit"])
        single_layer = dc.char.max_q() == 0
        expected = rs.finite_weyl_character(rs.iota(om))
        actual = dc.char.layer(Fraction(0))
        orbit = rs.weyl_orbit(om, cap=params["cap_orbit"])
        if not single_layer or actual != expected or dc.char.total() != len(orbit):
            fd = _finite_discrepancy(rs, actual, expected)
            if fd is None:
                fd = _mismatch(rs.coweight_fundamental_coords(om), None,
                               dc.char.total(), len(orbit))
            return "FAIL", fd, []
    return "PASS", None, []


def _reflect_affine_root_r0(rs, psi: AffineRoot) -> AffineRoot:
    m = rs.pair(rs.highest_root_coroot, psi.finite)
    return AffineRoot(psi.n + int(m), psi.finite - m * rs.highest_root)


def _reflect_affine_coroot_r0(rs, ac: AffineCoroot) -> AffineCoroot:
    m = rs.pair(ac.finite, rs.highest_root)
    return AffineCoroot(ac.k_coeff + m, ac.finite - m * rs.highest_root_coroot)


def _check_coroots(rs, params):
    a0 = affine_coroot(rs, AffineRoot(1, -rs.highest_root))
    if not (a0.k_coeff == 1 and a0.finite == -rs.highest_root_coroot):
        return "FAIL", _mismatch(a0.finite.coords, None, str(a0.k_coeff), "1"), []
    roots = list(rs.positive_roots) + [-a for a in rs.positive_roots]
    for alpha in roots:
        for n in (0, 1, 2):
            psi = AffineRoot(n, alpha)
            ac = affine_coroot(rs, psi)
            want = 2 * Fraction(n) / rs.root_norm(alpha)
            if ac.k_coeff != want or ac.finite != rs.coroot_of(alpha):
                return "FAIL", _mismatch(alpha.coords, None, str(ac.k_coeff),
                                         str(want)), []
            for i in range(1, rs.rank + 1):
                lhs = affine_coroot(rs, AffineRoot(n, rs.reflect_weight(i, alpha)))
                rhs = AffineCoroot(ac.k_coeff, rs.reflect_coweight(i, ac.finite))
                if lhs != rhs:
                    return "FAIL", _mismatch(alpha.coords, None, "node %d" % i,
                                             "equivariance"), []
            refl = _reflect_affine_root_r0(rs, psi)
            if not refl.finite.is_zero():
                if affine_coroot(rs, refl) != _reflect_affine_coroot_r0(rs, ac):
                    return "FAIL", _mismatch(alpha.coords, None, "node 0",
                                             "equivariance"), []
    return "PASS", None, []


def _check_curves(rs, params):
    lam = rs.coweight_from_fundamental(params["lam"])
    dom = rs.dominant_part(lam)
    support = fixed_point_support(rs, dom, cap=params["cap_orbit"])
    for alpha in rs.positive_roots:
        top = rs.pair(lam, alpha)
        n = 0
        while n < top:
            cd = curve_data(rs, lam, AffineRoot(n, alpha))
            want = 2 * (top - n) / rs.root_norm(alpha)
            ok = cd.degree == want
            if rs.root_norm(alpha) == 2 and top - n == 1:
                ok = ok and cd.degree == 1
            a, b = cd.endpoints
            ok = ok and a in support and b in support
            diff = a - b
            ok = ok and diff == (top - n) * rs.coroot_of(alpha)
            if not ok:
                return "FAIL", _mismatch(alpha.coords, str(n), str(cd.degree),
                                         str(want)), []
            n += 1
    return "PASS", None, []


def _check_domination(rs, params):
    lam = rs.coweight_from_fundamental(params["lam"])
    mu = rs.coweight_from_fundamental(params["mu"])
    if restriction_domination_check(rs, lam, mu, params["level"],
                                    params["cap_orbit"]):
        return "PASS", None, []
    return "FAIL", _mismatch(None, None, 0, 1), []


class Check(NamedTuple):
    """A named check: its runner, the identity it tests, the coweight
    parameters it requires and, for a level-one identity, what makes it so."""

    run: Callable
    identity: str
    coweights: tuple = ()
    level_one: str | None = None


CHECKS = {
    "fks": Check(
        _check_fks, "Frenkel-Kac-Segal: irreducible level-one character vs "
        "lattice coset character", ("coset",),
        "the lattice coset character it compares with has level one"),
    "tensor": Check(
        _check_tensor, "tensor factorization of Demazure characters under "
        "addition of coweights", ("lam", "mu")),
    "borel-weil": Check(
        _check_borel_weil, "stabilization of Demazure characters to the "
        "irreducible character"),
    "smooth-locus": Check(
        _check_smooth_locus, "multiplicity-one exactly on the extreme fixed "
        "points", ("lam",),
        "it reads multiplicities at the level-one weights iota(mu)"),
    "fixed-support": Check(
        _check_fixed_support, "finite support of the Demazure character vs "
        "torus-fixed locus", ("lam",),
        "it compares the support with iota of the fixed locus, the level-one "
        "weights"),
    "minuscule": Check(
        _check_minuscule, "minuscule Schubert strata carry a single finite "
        "irreducible layer"),
    "coroots": Check(
        _check_coroots, "affine coroot formula and its Weyl equivariance"),
    "curves": Check(
        _check_curves, "degrees and endpoints of invariant rational curves",
        ("lam",)),
    "domination": Check(
        _check_domination, "coefficientwise domination under dominance order",
        ("lam", "mu")),
}

# the flag that sets each coweight parameter, and every parameter name
_COWEIGHT_FLAGS = {"lam": "--lambda", "mu": "--mu", "coset": "--coset"}
_PARAMS = ("type", "rank", "lam", "mu", "coset", "level", "depth", "cap_orbit",
           "dump")


def _validate(check: Check, check_name: str, params: dict):
    """Reject inputs a check cannot answer; every message names the flag."""
    for key in check.coweights:
        flag = _COWEIGHT_FLAGS[key]
        if params.get(key) is None:
            raise ValueError("%s requires %s" % (check_name, flag))
        if len(params[key]) != params["rank"]:
            raise ValueError("%s needs %d comma-separated coefficients, got %d"
                             % (flag, params["rank"], len(params[key])))
        if any(Fraction(c).denominator != 1 for c in params[key]):
            raise ValueError("%s coefficients must be integers, got %s"
                             % (flag, ",".join(str(c) for c in params[key])))
    if params["level"] < 1:
        raise ValueError("--level must be a positive integer, got %r"
                         % (params["level"],))
    if check.level_one is not None and params["level"] != 1:
        raise ValueError("--level must be 1 for %s: %s"
                         % (check_name, check.level_one))
    if params["cap_orbit"] < 1:
        raise ValueError("--cap-orbit must be a positive integer, got %r"
                         % (params["cap_orbit"],))


def run_verification(check_name: str, params: dict) -> VerificationReport:
    """Run one named check; deterministic report, PASS/FAIL/SKIPPED status.
    Raises ValueError for inputs the check cannot answer and for parameter
    names outside ``_PARAMS``."""
    check = CHECKS.get(check_name)
    if check is None:
        raise ValueError("unknown check %r; available: %s"
                         % (check_name, ", ".join(sorted(CHECKS))))
    unknown = sorted(set(params) - set(_PARAMS))
    if unknown:
        raise ValueError("unknown parameter %r; known: %s"
                         % (unknown[0], ", ".join(_PARAMS)))
    params = dict(params)
    params.setdefault("level", 1)
    params.setdefault("depth", 6)
    if params.get("cap_orbit") is None:
        params["cap_orbit"] = _env_cap()
    _validate(check, check_name, params)
    rs = build_root_system(params["type"], params["rank"])
    t0 = time.monotonic()
    try:
        status, fd, flags = check.run(rs, params)
        reason = None
    except OrbitCapExceeded as exc:
        status, fd, flags, reason = "SKIPPED", None, [], str(exc)
    elapsed = int((time.monotonic() - t0) * 1000)
    return VerificationReport(check_name, _public_params(params), status, fd,
                              elapsed, flags, reason)


def _plain(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def _public_params(params: dict) -> dict:
    out = {}
    for key in ("type", "rank", "lam", "mu", "coset", "level", "depth"):
        if key in params and params[key] is not None:
            v = params[key]
            if isinstance(v, (list, tuple)):
                v = [_plain(x) for x in v]
            else:
                v = _plain(v)
            out[key] = v
    return out


def _env_cap() -> int:
    """The cap AFFCHAR_CAP_ORBIT sets, DEFAULT_ORBIT_CAP when it is unset."""
    raw = os.environ.get("AFFCHAR_CAP_ORBIT")
    if raw is None:
        return DEFAULT_ORBIT_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("AFFCHAR_CAP_ORBIT must be a positive integer, got %r"
                         % (raw,))
    return value


def emit_report(report: VerificationReport, fmt: str = "text", path=None) -> str:
    """Render a report; write-through to ``path`` when given (atomically)."""
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "text":
        payload = report.to_text()
    else:
        raise ValueError("format must be 'text' or 'json'")
    if path is not None:
        with _atomic_writer(path) as fh:
            fh.write(payload)
    return payload


@contextlib.contextmanager
def _atomic_writer(path):
    """Text handle on a fresh temporary file beside ``path``, renamed onto it
    when the block succeeds, so concurrent writers never share a temporary
    name.  It is made on entry, so a bad directory fails before any work, and
    a failed file operation names ``path``, not the temporary file.  It gets
    the mode a plain ``open`` gives, 0666 less the umask."""
    tmp = "%s.%s.tmp" % (os.path.abspath(path), os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


# -- the built-in identity battery ---------------------------------------------


def identity_check_suite(depth: int = 8, heavy: bool = False):
    """(check, params, expected status) triples covering the identity battery.

    The non-simply-laced Frenkel-Kac-Segal comparisons are negative controls:
    the expected status is FAIL with lhs > rhs.
    """
    suite = []
    for t, l in [("A", 1), ("A", 2), ("A", 3), ("D", 4)]:
        rs = build_root_system(t, l)
        for key, om in sorted(rs.minuscule_reps().items()):
            coset = [int(c) for c in rs.coweight_fundamental_coords(om)]
            suite.append(("fks", {"type": t, "rank": l, "coset": coset,
                                  "depth": depth}, "PASS"))
    for t, l in [("C", 2), ("G", 2)]:
        suite.append(("fks", {"type": t, "rank": l, "coset": [0] * l,
                              "depth": depth}, "FAIL"))
    theta = {"A1": [2], "A2": [1, 1], "D4": [0, 1, 0, 0], "C2": [1, 0]}
    suite += [
        ("tensor", {"type": "A", "rank": 1, "lam": theta["A1"], "mu": theta["A1"]}, "PASS"),
        ("tensor", {"type": "A", "rank": 2, "lam": theta["A2"], "mu": theta["A2"]}, "PASS"),
        ("tensor", {"type": "D", "rank": 4, "lam": theta["D4"], "mu": theta["D4"]}, "PASS"),
        ("tensor", {"type": "C", "rank": 2, "lam": theta["C2"], "mu": theta["C2"]}, "PASS"),
        ("tensor", {"type": "A", "rank": 1, "lam": theta["A1"], "mu": theta["A1"],
                    "level": 2}, "PASS"),
        ("borel-weil", {"type": "A", "rank": 1, "depth": 3}, "PASS"),
        ("borel-weil", {"type": "A", "rank": 2, "depth": 3}, "PASS"),
    ]
    for t, l in [("A", 2), ("A", 3), ("D", 4)]:
        for lam in _small_dominant(l, 3):
            suite.append(("fixed-support", {"type": t, "rank": l, "lam": lam}, "PASS"))
            suite.append(("smooth-locus", {"type": t, "rank": l, "lam": lam}, "PASS"))
    suite += [
        ("minuscule", {"type": "A", "rank": 2}, "PASS"),
        ("minuscule", {"type": "A", "rank": 3}, "PASS"),
        ("minuscule", {"type": "D", "rank": 4}, "PASS"),
        ("coroots", {"type": "A", "rank": 2}, "PASS"),
        ("coroots", {"type": "C", "rank": 2}, "PASS"),
        ("coroots", {"type": "D", "rank": 4}, "PASS"),
        ("curves", {"type": "A", "rank": 1, "lam": [2]}, "PASS"),
        ("curves", {"type": "A", "rank": 2, "lam": [1, 1]}, "PASS"),
        ("curves", {"type": "C", "rank": 2, "lam": [1, 0]}, "PASS"),
        ("domination", {"type": "A", "rank": 1, "lam": [2], "mu": [0]}, "PASS"),
        ("domination", {"type": "A", "rank": 2, "lam": [2, 2], "mu": [1, 1]}, "PASS"),
    ]
    if heavy:
        suite.append(("fks", {"type": "E", "rank": 7, "coset": [0] * 6 + [1],
                              "depth": 3}, "PASS"))
        suite.append(("fks", {"type": "E", "rank": 8, "coset": [0] * 8,
                              "depth": 2}, "PASS"))
        suite.append(("minuscule", {"type": "E", "rank": 6}, "PASS"))
        suite.append(("smooth-locus", {"type": "E", "rank": 6,
                                       "lam": [0, 0, 1, 0, 0, 0]}, "PASS"))
    return suite


def _small_dominant(rank: int, total: int):
    """Dominant fundamental-coordinate vectors with coefficient sum <= total,
    the zero vector excluded."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank:
            if any(prefix):
                out.append(list(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], total)
    out.sort()
    return out


def run_all_checks(out=None, depth: int = 8, heavy: bool = False, stream=None):
    """Run the identity battery, one text line per check on ``stream``; the
    JSON reports go to ``out`` when given.  Returns the exit code."""
    stream = stream or sys.stdout
    results = []
    all_ok = True
    with (_atomic_writer(out) if out is not None else contextlib.nullcontext()) as fh:
        for check, params, expect in identity_check_suite(depth=depth, heavy=heavy):
            rep = run_verification(check, params)
            ok = rep.status == expect
            if rep.status == "SKIPPED":
                ok = True
            all_ok = all_ok and ok
            marker = "ok" if ok else "UNEXPECTED"
            if expect == "FAIL" and rep.status == "FAIL":
                marker += " (negative control)"
            stream.write(emit_report(rep, "text").rstrip("\n")
                         + "  expect=%s [%s]\n" % (expect, marker))
            results.append((rep, expect, ok))
        if fh is not None:
            fh.write("".join(r.to_json() for r, _, _ in results))
    stream.write("identity-battery: %s (%d checks)\n"
                 % ("PASS" if all_ok else "FAIL", len(results)))
    return 0 if all_ok else 1


# -- argument parsing ------------------------------------------------------------


def _coords(text):
    return [Fraction(x) for x in text.split(",")]


def build_parser():
    import argparse  # only the command line needs it
    p = argparse.ArgumentParser(
        prog="affchar",
        description="verify character identities for affine Kac-Moody modules")
    p.add_argument("check", nargs="?", choices=sorted(CHECKS),
                   help="named check to run")
    p.add_argument("--all-checks", action="store_true",
                   help="run the whole identity battery with expected outcomes")
    p.add_argument("--heavy", action="store_true",
                   help="include the larger E-type spot checks in the battery")
    p.add_argument("--type", dest="type_label", default=None,
                   help="simple type A..G")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=_coords, default=None,
                   help="comma-separated fundamental-coweight coefficients")
    p.add_argument("--mu", type=_coords, default=None)
    p.add_argument("--coset", type=_coords, default=None,
                   help="fundamental-coweight coefficients of a coset representative")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--depth", type=Fraction, default=None)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--cap-orbit", type=int, default=None,
                   help="bound on every Weyl-orbit, lattice-point and Demazure walk")
    p.add_argument("--dump", default=None,
                   help="basename for golden character files (fks check)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.all_checks:
        if args.fmt == "json":
            print("error: --all-checks prints text; use --out FILE for its "
                  "JSON lines", file=sys.stderr)
            return 2
        try:
            return run_all_checks(out=args.out, heavy=args.heavy)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    if not args.check:
        build_parser().print_usage()
        return 2
    if args.type_label is None or args.rank is None:
        print("error: --type and --rank are required for single checks",
              file=sys.stderr)
        return 2
    params = {"type": args.type_label.upper(), "rank": args.rank}
    for key in _PARAMS[2:]:  # the optional parameters, each a flag's dest
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    try:
        report = run_verification(args.check, params)
        payload = emit_report(report, args.fmt, args.out)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(payload)
    return 0 if report.status == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())

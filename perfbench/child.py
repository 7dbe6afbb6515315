"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json

The job names the source tree, the root systems to build during set-up, the
verdicts to run and whether to trace.  The child imports affchar, builds the
root systems, records when set-up ended, then runs every verdict through
``affchar.cli.run_verification`` and times each call.  Calibration samples
(see ``calibration_ms``) are taken after set-up, just before and just after
every verdict, and from a timer signal every quarter second while a verdict
runs.  After each call, outside the timed region, it digests (when the job
asks) the report and every character the verdict built or compared.  It
writes timings, calibration samples, statuses, digests, peak memory and (when
traced) the raw spans to RESULT.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.25


def calibration_ms() -> float:
    """Time of a fixed piece of pure-Python work (dict updates and Fraction
    sums, the operations affchar spends its time in), in ms.

    The host's speed changes by up to half within seconds, so ``run.py``
    scales each verdict's time by the calibration samples taken around and
    during it.
    """
    t0 = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1200):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7, 3)
    return (time.perf_counter() - t0) * 1000.0


class SpeedProbe:
    """Calibration samples from a wall-clock timer while a verdict runs.

    A verdict of several seconds spans fast and slow seconds of the host, so
    samples at its two ends do not tell how fast it ran.  The handler's own
    time is summed so that it can be taken out of the verdict's time.
    """

    def __init__(self):
        self.samples = []
        self.spent_ms = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        ms = calibration_ms()
        self.samples.append(ms)
        self.spent_ms += ms

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _rows(coords, mults):
    """Canonical text of a finite multiplicity table keyed by (co)weights."""
    return "".join(sorted("%s %d\n" % (",".join(map(str, coords(w))), m)
                          for w, m in mults.items()))


def _weights(rs, mults):
    return _rows(rs.weight_fundamental_coords, mults)


def _coweights(rs, mults):
    return _rows(rs.coweight_fundamental_coords, mults)


# The names in ``affchar.cli`` whose results a verdict compares or builds, and
# how each result becomes canonical text (or a character with ``to_text()``).
CAPTURED = {
    "weyl_kac_character": lambda rs, r: r,
    "lattice_character": lambda rs, r: r,
    "demazure_character": lambda rs, r: r.char,
    "tensor_product_check": lambda rs, r: "%s\n%s--\n%s" % (
        r.holds, _weights(rs, r.lhs), _weights(rs, r.rhs)),
    "smooth_locus_profile": _coweights,
    "finite_support": lambda rs, r: _weights(rs, dict.fromkeys(r, 1)),
    "fixed_support_image": lambda rs, r: _weights(rs, dict.fromkeys(r, 1)),
    "fixed_point_support": lambda rs, r: _coweights(rs, dict.fromkeys(r, 1)),
}


class Capture:
    """Keeps the results of the captured ``cli`` names during one verdict."""

    def __init__(self, cli):
        self.calls = []
        for name in CAPTURED:
            fn = getattr(cli, name, None)
            if fn is not None:
                setattr(cli, name, self._wrap(name, fn))

    def _wrap(self, name, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, result))
            return result
        return captured

    def digest(self, rs, report) -> str:
        """sha256 of the report's verdict and the canonical text of every
        captured result; characters go through their ``to_text()``."""
        h = hashlib.sha256()
        h.update(report.status.encode())
        h.update(json.dumps(report.first_discrepancy, sort_keys=True).encode())
        seen = []  # (character, text): equal characters are rendered once
        for name, result in self.calls:
            obj = CAPTURED[name](rs, result)
            if not isinstance(obj, str):
                text = next((t for c, t in seen if c == obj), None)
                if text is None:
                    text = obj.to_text()
                    seen.append((obj, text))
                obj = text
            h.update(("\n#%s\n" % name).encode())
            h.update(obj.encode())
        return h.hexdigest()


def main(job_path, out_path) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import affchar  # noqa: F401  (the set-up cost includes the package import)
    from affchar import cli, rootsys
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    systems = {(t, r): rootsys.build_root_system(t, r) for t, r in job["types"]}
    ready = time.monotonic()
    calibration_ms()  # warm-up
    setup_calib = calibration_ms()
    capture = Capture(cli)
    probe = SpeedProbe()
    results = []
    for check, params, _ in job["verdicts"]:
        capture.calls.clear()
        error = None
        before = calibration_ms()
        first, spent = len(probe.samples), probe.spent_ms
        probe.start()
        t0 = time.perf_counter()
        try:
            report = cli.run_verification(check, params)
        except Exception as exc:  # a raising verdict is a wrong verdict
            report, error = None, "%s: %s" % (type(exc).__name__, exc)
        ms = (time.perf_counter() - t0) * 1000.0
        probe.stop()
        ms -= probe.spent_ms - spent
        calib = [before] + probe.samples[first:] + [calibration_ms()]
        digest = None
        if report is not None and job["digest"]:
            digest = capture.digest(systems[params["type"], params["rank"]], report)
        results.append({"ms": ms, "calib_ms": calib, "error": error,
                        "digest": digest, "status": report.status if report else "ERROR"})
    out = {"ready": ready, "setup_calib_ms": setup_calib, "results": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "spans": tracer.spans if tracer else None,
           "absent": tracer.absent if tracer else []}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))

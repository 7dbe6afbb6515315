"""Benchmark runner for affchar.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record-golden         # rewrite golden.json

Every repetition of a workload runs in a fresh interpreter started by this
runner, one at a time, in a fresh working and temp directory that is removed
when the run ends, so no cache survives between runs.  A run first starts one
warm-up interpreter (it fills the run's own bytecode cache) and a few set-up
probes, then repeats the workload while one more repetition still fits in
``--seconds`` of verdict time (at least once).  With ``--trace 1`` every
repetition is followed by a traced one and the run reports per-layer metrics
instead of end-to-end ones.  End-to-end times are scaled to a reference host
speed (see ``scaled_ms``); the report keeps the unscaled ones.

Every verdict must reach its expected status, and on the run's first
repetition match its golden digest; a SKIPPED verdict, an exception or a
digest mismatch is a failure and makes the runner exit 1.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a report with the
environment, the failure ratio and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(ROOT, ".bench_work")

# A run must end within 180 s; no repetition starts that would end after this.
RUN_BUDGET_S = 165.0
SETUP_PROBES = 5
# Times are reported at a reference host speed: the speed at which the
# child's calibration work takes this long.  See ``scaled_ms``.
CALIBRATION_REF_MS = 4.0
RECORD_TIMEOUT_S = 1800.0

END_TO_END = (("wall_s", "s"), ("verdict_ms.p50", "ms"), ("verdict_ms.tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class ChildFailed(RuntimeError):
    """A repetition's interpreter crashed, timed out or wrote no result."""


class Spawner:
    """Starts repetitions one at a time inside one fresh work directory."""

    def __init__(self, work):
        self.work = work
        self.count = 0
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C",
                    "HOME": work, "TMPDIR": work}

    def run(self, types, verdicts, trace, timeout, digest=False):
        """Run one repetition; returns the child's result with ``setup`` (s)."""
        self.count += 1
        job_path = os.path.join(self.work, "job%d.json" % self.count)
        out_path = os.path.join(self.work, "out%d.json" % self.count)
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "types": types, "verdicts": verdicts,
                       "trace": trace, "digest": digest}, fh)
        cmd = [sys.executable, "-I", "-X",
               "pycache_prefix=" + os.path.join(self.work, "pycache"),
               CHILD, job_path, out_path]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        except subprocess.TimeoutExpired:
            raise ChildFailed("repetition timed out after %.0f s" % timeout) from None
        if proc.returncode != 0 or not os.path.exists(out_path):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            raise ChildFailed("repetition exited with %d: %s"
                              % (proc.returncode, " | ".join(tail)))
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        out["setup"] = out["ready"] - spawned
        out["setup_scaled"] = out["setup"] * CALIBRATION_REF_MS / out["setup_calib_ms"]
        return out


def judge(verdicts, results, golden) -> list:
    """Failure messages for the verdicts of one repetition."""
    failures = []
    for (check, params, expect), res in zip(verdicts, results):
        key = workloads.verdict_key((check, params, expect))
        if res["error"]:
            why = res["error"]
        elif res["status"] != expect:
            why = "status %s, expected %s" % (res["status"], expect)
        elif key not in golden:
            why = "no golden digest"
        elif res["digest"] is not None and golden[key] != res["digest"]:
            why = "digest differs from the golden one"
        else:
            continue
        failures.append("%s: %s" % (key, why))
    return failures


def tail_percentile(per_rep: int) -> int:
    """The highest whole percentile with at least ten of a repetition's
    verdicts beyond it; 100 (the maximum) when a repetition has fewer than 20."""
    return 100 if per_rep < 20 else (100 * (per_rep - 10)) // per_rep


def tail(samples, pct):
    """(value at the percentile, mean of the samples at or beyond it).

    The mean is the reported tail: the single order statistic at the
    percentile of a hundred-odd sub-second verdicts swings far more from run
    to run than the mean of the ten or more samples beyond it.  At percentile
    100 both are the maximum.
    """
    ordered = sorted(samples)
    beyond = ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1):]
    return beyond[0], statistics.fmean(beyond)


def scaled_ms(rep) -> list:
    """Each verdict's time scaled to the reference host speed.

    On a shared host the same work takes 1.5 times as long in one second as
    in the next, and the share of slow seconds drifts over minutes.  The child
    times a fixed calibration workload around and during every verdict; a
    verdict's time is multiplied by the reference calibration time over the
    mean of its samples.  The unscaled times stay in the report.
    """
    return [r["ms"] * CALIBRATION_REF_MS / statistics.fmean(r["calib_ms"])
            for r in rep["results"]]


def wall(rep) -> float:
    return sum(scaled_ms(rep)) / 1000.0


def raw_wall(rep) -> float:
    return sum(r["ms"] for r in rep["results"]) / 1000.0


def environment(seed) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "affchar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "seed": seed}


def run_workload(name, seed, seconds, trace, tiny, golden, spawner) -> dict:
    env = environment(seed)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    verdicts = workloads.draw(name, seed, tiny)
    types = sorted({(p["type"], p["rank"]) for _, p, _ in verdicts})

    def remaining():
        return max(1.0, deadline - time.monotonic())

    spawner.run(types, [], False, remaining())  # warm-up, not measured
    setups = [spawner.run(types, [], False, remaining())
              for _ in range(SETUP_PROBES)]
    plain, traced, failures = [], [], []

    def repeat(traced_run, reps):
        # digests are checked on the run's first repetition; statuses on all
        rep = spawner.run(types, verdicts, traced_run, remaining(), digest=not plain)
        failures.extend(judge(verdicts, rep["results"], golden))
        reps.append(rep)

    while True:
        begun = time.monotonic()
        repeat(False, plain)
        if trace:
            repeat(True, traced)
        now = time.monotonic()
        if (sum(map(raw_wall, plain)) + raw_wall(plain[-1]) > seconds
                or now + (now - begun) > deadline):
            break

    # one sample per verdict: its mean over the repetitions, which evens out
    # the host's speed changes better than pooling single executions
    samples = [statistics.fmean(col) for col in zip(*map(scaled_ms, plain))]
    pct = tail_percentile(len(verdicts))
    at_pct, beyond_mean = tail(samples, pct)
    attempted = len(verdicts) * (len(plain) + len(traced))
    values = {
        "wall_s": statistics.median(wall(rep) for rep in plain),
        "verdict_ms.p50": statistics.median(samples),
        "verdict_ms.tail": beyond_mean,
        "setup_s": statistics.median(p["setup_scaled"] for p in setups + plain),
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024.0 for rep in plain),
    }
    report = {"workload": name, "tiny": tiny, "env": env,
              "verdicts_per_rep": len(verdicts), "reps": len(plain),
              "tail_percentile": pct, "tail_percentile_ms": at_pct,
              "tail_samples": len(samples),
              "unscaled": {"wall_s": statistics.median(map(raw_wall, plain)),
                           "setup_s": statistics.median(p["setup"] for p in setups + plain)},
              "calibration_ms": statistics.median(
                  c for rep in plain for r in rep["results"] for c in r["calib_ms"]),
              "fail_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
              "failures": failures[:20]}
    if trace:
        metrics, layers = traced_metrics(plain, traced)
        report["absent"] = sorted({a for rep in traced for a in rep["absent"]})
        report["layers"] = layers
    else:
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        report["metrics"] = metrics
    return {"report": report, "correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def traced_metrics(plain, traced):
    """Per-layer metrics (low medians over traced repetitions, so counts stay
    whole) and the full table of the first traced repetition."""
    per_rep = []
    for rep in traced:
        totals = tracer.layer_totals(rep["spans"])
        vals = {"%s.%s" % (layer, stat): tracer.layer_metric(totals, layer, stat)
                for layer, stat, _ in tracer.LAYER_METRICS}
        vals["trace.coverage"] = tracer.entry_coverage(rep["spans"])
        per_rep.append((vals, totals))
    overhead = (statistics.median(wall(r) for r in traced)
                / statistics.median(wall(r) for r in plain))
    units = {"%s.%s" % (layer, stat): unit for layer, stat, unit in tracer.LAYER_METRICS}
    units.update(tracer.TRACE_METRICS)
    metrics = {}
    for name, unit in units.items():
        value = overhead if name == "trace.overhead" else \
            statistics.median_low(vals[name] for vals, _ in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    layers = {layer: {k: round(v, 6) for k, v in agg.items()}
              for layer, agg in sorted(per_rep[0][1].items())}
    return metrics, layers


def record_golden(spawner) -> int:
    """Digest every verdict any seed can draw, tiny mode included."""
    golden = {}
    for tiny in (False, True):
        for name in workloads.WORKLOADS:
            verdicts = list({workloads.verdict_key(v): v
                             for v in workloads.pool(name, tiny)}.values())
            types = sorted({(p["type"], p["rank"]) for _, p, _ in verdicts})
            rep = spawner.run(types, verdicts, False, RECORD_TIMEOUT_S, digest=True)
            for verdict, res in zip(verdicts, rep["results"]):
                if res["error"] or res["status"] != verdict[2]:
                    print("error: %s gave %s" % (workloads.verdict_key(verdict),
                                                 res["error"] or res["status"]),
                          file=sys.stderr)
                    return 1
                golden[workloads.verdict_key(verdict)] = res["digest"]
            print("recorded %s%s: %d verdicts" % (name, " (tiny)" if tiny else "",
                                                  len(verdicts)))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def summary_row(name, result) -> str:
    rep = result["report"]
    cols = ["%s=%.6g %s" % (k, m["value"], m["unit"])
            for k, m in result["metrics"].items()]
    cols.append("fail_ratio=%.6g ratio" % rep["fail_ratio"]["value"])
    cols.append("tail=p%d of %d" % (rep["tail_percentile"], rep["tail_samples"]))
    return "%-15s %s" % (name, "  ".join(cols))


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="A1/A2 stand-ins for every workload, for the self-tests")
    p.add_argument("--golden", default=GOLDEN, help="golden digest file")
    p.add_argument("--record-golden", action="store_true",
                   help="run every verdict any seed can draw and rewrite golden.json")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affchar", "__init__.py")):
        print("error: no affchar source tree at %s" % SRC, file=sys.stderr)
        return 2
    if not args.record_golden and args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spawner = Spawner(work)
        if args.record_golden:
            return record_golden(spawner)
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.tiny,
                               golden, spawner)
            results[name] = res
            print("report " + json.dumps(res["report"], sort_keys=True))
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                                  "metrics")}), flush=True)
        if args.workload == "all":
            for name, res in results.items():
                print(summary_row(name, res))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-tests of the benchmark, on the A1/A2 stand-ins of its workloads.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is printed
with its unit for each workload, that a corrupted golden digest gives a
non-zero failure ratio and exit code, that nested spans never report more self
time than span time, and that the runner refuses to run without the package
sources.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import tracer
import workloads
from run import GOLDEN, HERE, ROOT, WORK

RUN = os.path.join(HERE, "run.py")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--seed", "3", "--seconds", "0.1",
                           "--tiny", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(l[len("report "):]) for l in lines
                   if l.startswith("report ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, report, result


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metrics_printed_with_units():
    spec = _spec()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            code, report, result = _bench("--workload", name, "--trace", trace)
            assert code == 0 and result["correct"], (name, trace, report)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, sorted(set(got) ^ set(want)))
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert report["fail_ratio"] == {"value": 0.0, "unit": "ratio"}
            assert result["attempted"] >= 1 and result["failed"] == 0


def test_corrupted_golden_fails():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    victim = workloads.verdict_key(workloads.draw("checks-small", 3, tiny=True)[0])
    golden[victim] = "0" * 64
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "corrupt-golden-%d.json" % os.getpid())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh)
        code, report, result = _bench("--workload", "checks-small", "--golden", path)
    finally:
        os.remove(path)
    assert code != 0, code
    assert report["fail_ratio"]["value"] > 0, report["fail_ratio"]
    assert not result["correct"] and result["failed"] >= 1, result


def test_nested_self_time():
    tr = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        leaf()
        time.sleep(0.005)
        leaf()

    def outer():
        middle()
        time.sleep(0.005)

    leaf = tr.wrap(leaf, "t.leaf")
    middle = tr.wrap(middle, "t.middle")
    outer = tr.wrap(outer, "t.outer")
    outer()
    totals = tracer.layer_totals(tr.spans)
    assert totals["t.leaf"]["calls"] == 2
    for agg in totals.values():
        assert 0 <= agg["self_s"] <= agg["s"], agg
    assert totals["t.outer"]["s"] >= totals["t.middle"]["s"] >= totals["t.leaf"]["s"]
    assert tracer.entry_coverage(tr.spans) == 0.0


def test_refuses_without_sources():
    bare = os.path.join(WORK, "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "fks-d4", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    if not __debug__:
        print("error: the self-tests use assert; run them without -O", file=sys.stderr)
        return 2
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("PASS", name)
            except Exception as exc:  # report every test, whatever it raised
                failed += 1
                print("FAIL", name, repr(exc))
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

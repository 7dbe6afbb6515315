"""Outside-in tracer for affchar's layers.

The tracer never edits the package.  It replaces public functions from
outside: a module-level function is replaced in every ``affchar.*`` module
namespace that binds that same object, so a name bound by
``from .fock import lattice_character`` in ``cli`` is traced too, and a method
is replaced on its class.  Each call records a span ``[layer, start, end,
parent, size]`` in memory; ``size`` is the length of the result (terms of a
character, points of a point list) for the layers that count one.  The spans
are aggregated into per-layer metrics after the run.

A target the package no longer has is listed in ``absent`` and skipped, so a
renamed or deleted function shows up as an absent metric, not as a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, layer, result is counted as)
TARGETS = (
    ("cli", "run_verification", "cli.run_verification", None),
    ("rootsys", "build_root_system", "rootsys.build_root_system", None),
    ("rootsys", "RootSystem.finite_weyl_character",
     "rootsys.finite_weyl_character", None),
    ("rootsys", "RootSystem.weyl_elements", "rootsys.weyl_elements", None),
    ("rootsys", "RootSystem.weyl_orbit", "rootsys.weyl_orbit", None),
    ("rootsys", "RootSystem.weyl_orbit_weight", "rootsys.weyl_orbit", None),
    ("kacweyl", "weyl_kac_character", "kacweyl.weyl_kac_character", "terms"),
    ("fock", "lattice_character", "fock.lattice_character", "terms"),
    ("fock", "coset_points_up_to", "fock.coset_points_up_to", "points"),
    ("fock", "fock_character", "fock.fock_character", None),
    ("charring", "QCharacter.__add__", "charring.add", None),
    ("charring", "QCharacter.demazure", "charring.demazure", "terms"),
    ("charring", "QCharacter.specialize_q1", "charring.specialize_q1", None),
    ("charring", "group_ring_mul", "charring.group_ring_mul", None),
    ("charring", "first_discrepancy", "charring.first_discrepancy", None),
    ("demazure", "demazure_character", "demazure.demazure_character", "terms"),
    ("affine", "fixed_point_support", "affine.fixed_point_support", None),
    ("affine", "dominant_coweights_below", "affine.dominant_coweights_below", None),
)

# The per-layer metrics the benchmark reports: (layer, statistic, unit).
# ``s`` is inclusive time (a call nested in a call of the same layer is not
# counted twice), ``self_s`` is time minus traced children, ``calls`` counts
# spans and ``terms`` / ``points`` sum the counted result sizes.
LAYER_METRICS = (
    ("cli.run_verification", "self_s", "s"),
    ("rootsys.finite_weyl_character", "s", "s"),
    ("rootsys.finite_weyl_character", "calls", "count"),
    ("rootsys.weyl_elements", "s", "s"),
    ("rootsys.weyl_orbit", "s", "s"),
    ("rootsys.build_root_system", "s", "s"),
    ("kacweyl.weyl_kac_character", "self_s", "s"),
    ("kacweyl.weyl_kac_character", "terms", "count"),
    ("fock.lattice_character", "self_s", "s"),
    ("fock.coset_points_up_to", "s", "s"),
    ("fock.coset_points_up_to", "points", "count"),
    ("fock.fock_character", "calls", "count"),
    ("charring.add", "s", "s"),
    ("charring.demazure", "s", "s"),
    ("charring.demazure", "calls", "count"),
    ("charring.demazure", "terms", "count"),
    ("charring.group_ring_mul", "s", "s"),
    ("charring.specialize_q1", "s", "s"),
    ("charring.first_discrepancy", "s", "s"),
    ("demazure.demazure_character", "self_s", "s"),
    ("demazure.demazure_character", "calls", "count"),
    ("demazure.demazure_character", "terms", "count"),
    ("affine.fixed_point_support", "s", "s"),
    ("affine.dominant_coweights_below", "s", "s"),
)
TRACE_METRICS = (("trace.coverage", "ratio"), ("trace.overhead", "ratio"))
ENTRY_LAYER = "cli.run_verification"


class Tracer:
    """Holds the spans of one traced process."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def wrap(self, fn, layer, counted=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                span[4] = len(getattr(result, "char", result))
            return result

        return traced

    def install(self, package="affchar"):
        """Wrap every target of ``TARGETS`` that the package still has."""
        for modname, path, layer, counted in TARGETS:
            try:
                mod = importlib.import_module("%s.%s" % (package, modname))
                owner, name = mod, path
                if "." in path:
                    clsname, name = path.split(".")
                    owner = getattr(mod, clsname)
                orig = owner.__dict__[name] if isinstance(owner, type) \
                    else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.absent.append("%s.%s" % (modname, path))
                continue
            wrapper = self.wrap(orig, layer, counted)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == package
                                     or mname.startswith(package + ".")):
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)


def layer_totals(spans) -> dict:
    """Per-layer ``s``, ``self_s``, ``calls`` and counted size from spans."""
    child = [0.0] * len(spans)
    for layer, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    totals = {}
    for i, (layer, t0, t1, parent, size) in enumerate(spans):
        agg = totals.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                        "size": 0})
        agg["calls"] += 1
        agg["size"] += size
        agg["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            agg["s"] += t1 - t0
    return totals


def entry_coverage(spans) -> float:
    """Share of the entry point's time covered by its traced child spans."""
    entries = {i for i, sp in enumerate(spans) if sp[0] == ENTRY_LAYER}
    total = sum(spans[i][2] - spans[i][1] for i in entries)
    covered = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent in entries)
    return covered / total if total else 0.0


def layer_metric(totals: dict, layer: str, stat: str):
    """One per-layer metric value; 0 when the layer recorded no span."""
    agg = totals.get(layer)
    if agg is None:
        return 0
    return agg["size"] if stat in ("terms", "points") else agg[stat]

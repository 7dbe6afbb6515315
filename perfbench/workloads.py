"""The benchmark's workloads: fixed sets of verdicts, drawn from a seed.

A verdict is ``(check, params, expected_status)``, the arguments of
``affchar.cli.run_verification`` plus the status the identity demands.  Each
workload is a list of slots; a slot is a list of alternative groups of
verdicts.  A draw picks one group per slot and then shuffles the verdicts.
The alternatives of a slot are images of one another under a Dynkin diagram
automorphism (or a swap of the two tensor factors), so every draw does the same
amount of work up to relabelling and the seed moves the inputs, not the cost.

This module is plain data and does not import affchar: the benchmark runner
only generates check parameters, and the program under test receives them in a
separate interpreter.
"""

from __future__ import annotations

import random

WORKLOADS = ("fks-d4", "fks-a6", "demazure-large", "checks-small")

# The seed a plain run uses, and one kept back for confirming a claimed gain.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919

# coordinate permutations rotating the outer nodes 1, 3, 4 of D4 (node 2 is
# the centre): the diagram's triality automorphisms
D4_TRIALITY = ((0, 1, 2, 3), (2, 1, 3, 0), (3, 1, 0, 2))


def _v(check, t, rank, expect="PASS", **params):
    return (check, dict(params, type=t, rank=rank), expect)


def _fks(t, rank, coset, depth, expect="PASS"):
    return _v("fks", t, rank, expect, coset=list(coset), depth=depth)


def _unit(rank, i):
    """Fundamental-coweight coordinates of node i (0 gives the zero coweight)."""
    return [int(j == i) for j in range(1, rank + 1)]


def _single(*verdicts):
    """One slot per verdict, each without alternatives."""
    return [[[v]] for v in verdicts]


def _images(build, coords, perms):
    """One slot whose alternatives apply each coordinate permutation."""
    seen, alts = set(), []
    for p in perms:
        img = tuple(coords[j] for j in p)
        if img not in seen:
            seen.add(img)
            alts.append([build(list(img))])
    return [alts]


def _swap_tensor(t, rank, lam, mu):
    """One slot: the tensor check with its two factors in either order."""
    return [[[_v("tensor", t, rank, lam=lam, mu=mu)],
             [_v("tensor", t, rank, lam=mu, mu=lam)]]]


def _small_dominant(rank, total):
    """Nonzero dominant coordinate vectors with coefficient sum <= total, as
    the ``--all-checks`` battery enumerates them."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rank:
            if any(prefix):
                out.append(list(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], total)
    return sorted(out)


def _fks_d4(tiny):
    if tiny:
        return _single(*[_fks("A", 2, _unit(2, i), 3) for i in range(3)])
    return _single(*[_fks("D", 4, _unit(4, i), 8) for i in (0, 1, 3, 4)])


def _fks_a6(tiny):
    # the diagram flip maps coset i to coset 7 - i, so every pair costs the same
    if tiny:
        return [[[_fks("A", 2, _unit(2, 1), 2), _fks("A", 2, _unit(2, 2), 2)]]]
    return [[[_fks("A", 6, _unit(6, i), 1), _fks("A", 6, _unit(6, 7 - i), 1)]
             for i in (1, 2, 3)]]


def _demazure_large(tiny):
    if tiny:
        flip2 = ((0, 1), (1, 0))
        return (_swap_tensor("A", 1, [2], [4])
                + _images(lambda c: _v("smooth-locus", "A", 2, lam=c), (2, 1), flip2)
                + _images(lambda c: _v("fixed-support", "A", 2, lam=c), (2, 1), flip2)
                + _single(_v("smooth-locus", "A", 1, lam=[4])))
    return (_single(_v("tensor", "D", 4, lam=[1, 1, 0, 1], mu=[1, 1, 0, 1]))
            + _images(lambda c: _v("smooth-locus", "D", 4, lam=c),
                      (2, 1, 0, 2), D4_TRIALITY)
            + _images(lambda c: _v("fixed-support", "D", 4, lam=c),
                      (2, 1, 0, 2), D4_TRIALITY)
            + _swap_tensor("A", 3, [2, 1, 2], [1, 1, 1])
            + _single(_v("smooth-locus", "A", 3, lam=[3, 2, 3]),
                      _v("fixed-support", "A", 3, lam=[3, 2, 3]))
            + _swap_tensor("C", 2, [3, 1], [1, 3])
            + _single(_v("smooth-locus", "C", 2, lam=[4, 4]),
                      _v("tensor", "G", 2, lam=[1, 1], mu=[1, 1]),
                      _v("smooth-locus", "G", 2, lam=[2, 2])))


def _checks_small(tiny):
    if tiny:
        return _single(
            _fks("A", 1, [0], 4), _fks("A", 1, [1], 4),
            _v("tensor", "A", 1, lam=[2], mu=[2]),
            _v("borel-weil", "A", 1, depth=2),
            _v("smooth-locus", "A", 2, lam=[1, 1]),
            _v("fixed-support", "A", 2, lam=[1, 1]),
            _v("minuscule", "A", 2), _v("coroots", "A", 2),
            _v("curves", "A", 1, lam=[2]),
            _v("domination", "A", 1, lam=[2], mu=[0]))
    # the --all-checks battery at depth 8 without its four D4 FKS entries
    out = []
    for t, rank in (("A", 1), ("A", 2), ("A", 3)):
        out += [_fks(t, rank, _unit(rank, i), 8) for i in range(rank + 1)]
    out += [_fks("C", 2, [0, 0], 8, "FAIL"), _fks("G", 2, [0, 0], 8, "FAIL")]
    theta = {("A", 1): [2], ("A", 2): [1, 1], ("D", 4): [0, 1, 0, 0],
             ("C", 2): [1, 0]}
    out += [_v("tensor", t, rank, lam=th, mu=th) for (t, rank), th in theta.items()]
    out += [_v("tensor", "A", 1, lam=[2], mu=[2], level=2),
            _v("borel-weil", "A", 1, depth=3), _v("borel-weil", "A", 2, depth=3)]
    for t, rank in (("A", 2), ("A", 3), ("D", 4)):
        for lam in _small_dominant(rank, 3):
            out += [_v("fixed-support", t, rank, lam=lam),
                    _v("smooth-locus", t, rank, lam=lam)]
    out += [_v("minuscule", "A", 2), _v("minuscule", "A", 3), _v("minuscule", "D", 4),
            _v("coroots", "A", 2), _v("coroots", "C", 2), _v("coroots", "D", 4),
            _v("curves", "A", 1, lam=[2]), _v("curves", "A", 2, lam=[1, 1]),
            _v("curves", "C", 2, lam=[1, 0]),
            _v("domination", "A", 1, lam=[2], mu=[0]),
            _v("domination", "A", 2, lam=[2, 2], mu=[1, 1])]
    return _single(*out)


_SLOTS = {"fks-d4": _fks_d4, "fks-a6": _fks_a6,
          "demazure-large": _demazure_large, "checks-small": _checks_small}


def draw(name: str, seed: int, tiny: bool = False) -> list:
    """The verdicts of one run: one group per slot, in a seed-shuffled order."""
    rng = random.Random("%s:%d" % (name, seed))
    verdicts = [v for slot in _SLOTS[name](tiny) for v in rng.choice(slot)]
    rng.shuffle(verdicts)
    return verdicts


def pool(name: str, tiny: bool = False) -> list:
    """Every verdict any seed can draw for the workload."""
    return [v for slot in _SLOTS[name](tiny) for group in slot for v in group]


def verdict_key(verdict) -> str:
    """Stable identifier of a verdict, used to look up its golden digest."""
    check, params, _ = verdict
    return check + " " + ",".join("%s=%s" % (k, params[k]) for k in sorted(params))

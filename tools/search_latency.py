"""Time the searches of two checkouts of udwharvest side by side.

    python tools/search_latency.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout's ``src/udwharvest`` is copied into a temporary directory
under a package name of its own (``udwharvest_parent``,
``udwharvest_change``), and both are imported into this one interpreter;
the package imports itself only relatively, so each copy runs its own code.
The rows are taken from the benchmark's own workloads
(``perfbench/workloads.py`` next to this tool): explore's searches for
seeds 1-3, 40 problems of each of ``find_lmax``, ``find_optimal_gap`` and
``find_crossover`` per seed, and survey's 16 crossovers (``find_crossover``
at each smaller gap a of ``CROSSOVER_GAPS`` and gap difference a*r for
each r of ``CROSSOVER_RATIOS``, as its ``crossover`` commands ask).  Five
batched searches are timed too, each as one row: ``figure fig5``'s
1600-row ``find_lmax_many`` (smaller gaps 0.2, 0.5, 1.0 and 1.2, gap
ratios ``np.linspace(0, 3, 400)``, coupling 1), and 400-row batches of
``find_lmax_many`` and ``find_crossover_many`` over a in [0, 40], d in (0,
35] ("wide") and over a in [0, 3], d in (0, 8] ("small"), at coupling 0.1.
Every row is called once per tree to warm up, and the two outcomes (the
repr of the result's fields, arrays as lists, or the class and message
raised) must be equal.  Then each row is timed 9 times per tree, one call
at a time, the trees alternating and their order flipping at each repeat,
so that the machine's drift falls on both alike.  A row's time is the
minimum of its repeats, a raised search error included.

Prints, per explore search, over all of explore's searches, for survey's
crossovers and per batch, the median of the rows' times for each tree and
the change/parent ratio of those medians.  Exits 1 if an outcome differs,
else 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings

SEEDS = (1, 2, 3)
REPEATS = 9
TREES = ("parent", "change")
# (group, search, a range, upper end of d's range) of the 400-row batches
BATCHES = (("wide lmax batch", "find_lmax_many", (0.0, 40.0), 35.0),
           ("wide crossover batch", "find_crossover_many", (0.0, 40.0), 35.0),
           ("small lmax batch", "find_lmax_many", (0.0, 3.0), 8.0),
           ("small crossover batch", "find_crossover_many", (0.0, 3.0), 8.0))


def _import(tree, name, tmp):
    """The checkout ``tree``'s package, copied to ``tmp`` as ``name``."""
    shutil.copytree(os.path.join(tree, "src", "udwharvest"), os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def _outcome(call):
    """A search's result as the repr of its fields, arrays as lists, or the
    class and message of what it raised."""
    try:
        fields = dataclasses.astuple(call())
    except Exception as exc:  # every outcome is compared, raised or returned
        return f"raises {type(exc).__name__}: {exc}"
    return repr([f.tolist() if hasattr(f, "tolist") else f for f in fields])


def _batches(pkgs):
    """(group, label, one call per tree) of each timed batch."""
    import numpy as np

    gaps = np.array([0.2, 0.5, 1.0, 1.2])[:, None]
    ratios = np.linspace(0.0, 3.0, 400)
    yield ("fig5 lmax batch", "find_lmax_many(fig5)",
           [lambda pkg=pkg: pkg.analysis.find_lmax_many(gaps, gaps * ratios, 1.0) for pkg in pkgs])
    rng = np.random.default_rng(28)
    for group, search, (a_lo, a_hi), d_hi in BATCHES:
        a = rng.uniform(a_lo, a_hi, 400)
        d = d_hi - rng.uniform(0.0, d_hi, 400)  # in (0, d_hi]
        yield (group, f"{search}({group})",
               [lambda f=getattr(pkg.analysis, search), a=a, d=d: f(a, d, 0.1) for pkg in pkgs])


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import CROSSOVER_GAPS, CROSSOVER_RATIOS, Explore

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [_import(tree, f"udwharvest_{name}", tmp) for tree, name in zip(argv, TREES)]
        # (group, search, x, y)
        problems = [(kind, kind, x, y)
                    for seed in SEEDS for kind, x, y in Explore(seed, pkgs[0], tmp).searches]
        problems += [("survey crossover", "find_crossover", a, a * r)
                     for a in CROSSOVER_GAPS for r in CROSSOVER_RATIOS]
        # (group, label, one call per tree)
        rows = [(group, f"{kind}({x!r}, {y!r})",
                 [lambda f=getattr(pkg.analysis, kind), x=x, y=y: f(x, y) for pkg in pkgs])
                for group, kind, x, y in problems]
        rows += list(_batches(pkgs))
        calls = [pair for _, _, pair in rows]
        differ = 0
        for _, label, pair in rows:
            parent, change = (_outcome(call) for call in pair)
            if parent != change:
                differ += 1
                print(f"differs: {label}")
        best = [[float("inf")] * len(rows) for _ in TREES]
        clock = time.perf_counter
        for rep in range(REPEATS):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for i, pair in enumerate(calls):
                for t in order:
                    start = clock()
                    try:
                        pair[t]()
                    except Exception:  # a raised search error is an outcome too
                        pass
                    best[t][i] = min(best[t][i], clock() - start)
    print(f"{len(rows)} rows (explore seeds {SEEDS[0]}-{SEEDS[-1]}, survey, batches), minimum of "
          f"{REPEATS} calls per row and tree; median over rows in ms")
    print(f"{'search':22s} {'rows':>5s} {'parent':>9s} {'change':>9s} {'ratio':>7s}")
    explore = sorted({group for group, kind, _, _ in problems if group == kind})
    batches = [group for group, _, _ in rows[len(problems):]]
    for group in explore + ["all", "survey crossover"] + batches:
        index = [i for i, row in enumerate(rows)
                 if row[0] == group or (group == "all" and row[0] in explore)]
        parent, change = (statistics.median(best[t][i] for i in index) * 1e3 for t in (0, 1))
        print(f"{group:22s} {len(index):5d} {parent:9.4f} {change:9.4f} {change / parent:7.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

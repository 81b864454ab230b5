"""Time the searches, explore's batches and the figures of two checkouts
of udwharvest side by side.

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
The closed-form layer is timed on explore's 32 ``concurrence_values``
batches of 10 000 scenarios for each of seeds 1-3, one row per batch, and
the figure layer on the seven survey figures (``cli.build_figure`` at 400
points), one row each.  Every row is called once per tree to warm up, and
the two outcomes (the repr of the result with its arrays as lists, a
search's result as the fields that both trees' results have, by name, or
the class and message raised) must be equal, so that a field one tree
adds or drops does not flag every search.  Then each row is timed 9
times per tree, and each row that is a group of its own (a batched
search or a figure) 200 times, one call at a time, the trees alternating
and their order flipping at each repeat, so that the machine's drift
falls on both alike.  A row's time is the
minimum of its repeats, a raised search error included.  A group of one
row takes the median of its repeats instead, and as its ratio the
geometric mean of two medians of the change/parent ratio of a repeat's
two calls: one over the repeats that call the parent first, one over
those that call the change first.  The minimum of one row moves by up to
4 % between runs of the same two trees, even over 63 repeats, and no
median over other rows evens it out; the second call of a repeat runs up
to 20 % faster than the first (``figure fig1a``), which the two medians
cancel.  The ratio moves by less than 1 % between runs.

Prints, per explore search, over all of explore's searches, for survey's
crossovers, per batched search, over explore's batches and per figure,
the median of the rows' times for each tree and the change/parent ratio
of those medians (or the ratio above for a group of one row); and the
same for the explore gap searches that refine (the parent's result has
``iterations`` > 0), which the boundary maxima, about seven in eight of
them, hide in their group's median.  Exits 1 if an outcome differs, else
0.
"""

from __future__ import annotations

import collections
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
# repeats of a row that is a group of its own; even, so that each tree is
# called first as often
ONE_ROW_REPEATS = 200
TREES = ("parent", "change")
# (group, search, a range, upper end of d's range) of the 400-row batches
BATCHES = (("wide lmax batch", "find_lmax_many", (0.0, 40.0), 35.0),
           ("wide crossover batch", "find_crossover_many", (0.0, 40.0), 35.0),
           ("small lmax batch", "find_lmax_many", (0.0, 3.0), 8.0),
           ("small crossover batch", "find_crossover_many", (0.0, 3.0), 8.0))


def _import(tree, name, tmp):
    """The checkout ``tree``'s package, copied to ``tmp`` as ``name``, with
    its ``cli`` module."""
    shutil.copytree(os.path.join(tree, "src", "udwharvest"), os.path.join(tmp, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return importlib.import_module(name)


def _plain(value):
    """``value`` with each array as a list."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _outcomes(pair):
    """The outcomes of a row's two calls: each result as the repr of
    :func:`_plain`, a search's result as a dict of the fields that both
    results have, or the class and message of what a call raised."""
    values = []
    for call in pair:
        try:
            values.append(call())
        except Exception as exc:  # every outcome is compared, raised or returned
            values.append(f"raises {type(exc).__name__}: {exc}")
    if all(dataclasses.is_dataclass(v) for v in values):
        names = [[f.name for f in dataclasses.fields(v)] for v in values]
        values = [{n: getattr(v, n) for n in names[0] if n in names[1]} for v in values]
    return [v if isinstance(v, str) else repr(_plain(v)) for v in values]


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
    from perfbench.workloads import (
        COUPLING, CROSSOVER_GAPS, CROSSOVER_RATIOS, FIGURE_POINTS, FIGURES, Explore,
    )

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [_import(tree, f"udwharvest_{name}", tmp) for tree, name in zip(argv, TREES)]
        workloads = [Explore(seed, pkgs[0], tmp) for seed in SEEDS]
        # (group, search, x, y)
        problems = [(kind, kind, x, y) for ex in workloads for kind, x, y in ex.searches]
        problems += [("survey crossover", "find_crossover", a, a * r)
                     for a in CROSSOVER_GAPS for r in CROSSOVER_RATIOS]
        # (group, label, one call per tree)
        rows = [(group, f"{kind}({x!r}, {y!r})",
                 [lambda f=getattr(pkg.analysis, kind), x=x, y=y: f(x, y) for pkg in pkgs])
                for group, kind, x, y in problems]
        rows += list(_batches(pkgs))
        rows += [("explore batch", f"concurrence_values(seed {seed}, batch {i})",
                  [lambda f=pkg.closedform.concurrence_values, b=b: f(*b, COUPLING)
                   for pkg in pkgs])
                 for seed, ex in zip(SEEDS, workloads) for i, b in enumerate(ex.batches)]
        rows += [(f"figure {name}", f"build_figure({name!r})",
                  [lambda f=pkg.cli.build_figure, name=name: f(name, FIGURE_POINTS)
                   for pkg in pkgs])
                 for name in FIGURES]
        differ = 0
        for _, label, pair in rows:
            parent, change = _outcomes(pair)
            if parent != change:
                differ += 1
                print(f"differs: {label}")
        refined = [i for i, (group, _, pair) in enumerate(rows)
                   if group == "find_optimal_gap" and pair[0]().iterations > 0]
        sizes = collections.Counter(group for group, _, _ in rows)
        repeats = [ONE_ROW_REPEATS if sizes[group] == 1 else REPEATS for group, _, _ in rows]
        times = [[[] for _ in rows] for _ in TREES]
        clock = time.perf_counter
        for rep in range(max(repeats)):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for i, (_, _, pair) in enumerate(rows):
                if rep >= repeats[i]:
                    continue
                for t in order:
                    start = clock()
                    try:
                        pair[t]()
                    except Exception:  # a raised search error is an outcome too
                        pass
                    times[t][i].append(clock() - start)
    print(f"{len(rows)} rows (explore seeds {SEEDS[0]}-{SEEDS[-1]}, survey, batches, figures), "
          f"minimum of {REPEATS} calls per row and tree, median over rows in ms; a one-row "
          f"group: median of {ONE_ROW_REPEATS} calls, ratio from both call orders")
    print(f"{'search':26s} {'rows':>5s} {'parent':>9s} {'change':>9s} {'ratio':>7s}")
    explore = sorted({group for group, kind, _, _ in problems if group == kind})
    batches = list(dict.fromkeys(group for group, _, _ in rows[len(problems):]))
    merged = {"find_optimal_gap (refined)": refined,
              "all": [i for i, row in enumerate(rows) if row[0] in explore]}
    for group in explore + list(merged) + ["survey crossover"] + batches:
        index = merged.get(group, [i for i, row in enumerate(rows) if row[0] == group])
        if sizes[group] == 1:
            parent, change = (statistics.median(times[t][index[0]]) * 1e3 for t in (0, 1))
            ratios = [c / p for p, c in zip(*(times[t][index[0]] for t in (0, 1)))]
            ratio = (statistics.median(ratios[::2]) * statistics.median(ratios[1::2])) ** 0.5
        else:
            parent, change = (statistics.median(min(times[t][i]) for i in index) * 1e3
                              for t in (0, 1))
            ratio = change / parent
        print(f"{group:26s} {len(index):5d} {parent:9.4f} {change:9.4f} {ratio:7.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

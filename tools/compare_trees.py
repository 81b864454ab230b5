"""Compare the outputs of two checkouts of udwharvest bit for bit.

    python tools/compare_trees.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout is run in its own interpreter with only its ``src`` on the
path.  There it evaluates a fixed set of inputs (below) and writes every
output as exact bit patterns: each float as ``float.hex``, each complex as
its two parts, each raised search error as its class and message.  The two
sets are then compared key by key; every key whose bits differ, or that
only one tree has, is printed.  A differing key is followed by the paths
inside its value that differ and those that only one tree has, e.g.
``differs: report/0.1/3: differs at: x/1; only in parent: note`` for a
changed imaginary part of ``x`` and a field the change dropped.  The exit
status is 1 on any difference and 0 when every bit is kept.

The set covers what the package reports:

* the public surface: the package's sorted ``__all__``, each name with
  the module whose ``__all__`` lists it (the package itself for
  ``__version__`` and ``specfun``);
* the seven survey figures at 400 points, and the survey's 16 crossovers
  through ``cli.main`` (smaller gaps and gap ratios 0.2, 0.5, 1.0, 1.2);
* 400-row batches of each search over a in [0, 40], d in (0, 35] and
  l in [0.05, 120], and over a in [0, 3], d in (0, 8] and l in [0.05, 12],
  at couplings 0.1 and 1;
* a batch of each separation search that walks the named rows below
  (those with d > 0 for crossovers) beside 40 short stratified rows, so
  that long and short walks share the lockstep's calls;
* a 10 000-row ``find_lmax_many`` batch over a, d in [0, 3], where more
  rows walk than a scan call holds points;
* a 60-row ``find_optimal_gap_many`` batch with per-row gap bounds
  log-spaced from 1e-7 to 60, so that its rows leave the golden section
  on different steps, from the start to the 37th, beside boundary maxima,
  and the same rows as one-problem calls;
* ``find_optimal_gap_many`` over the product grid of 8 smaller gaps in
  [0, 40] and 60 separations in [0.05, 120], at couplings 0.1 and 1, with
  the default gap bounds and with one shared bound, each in grid order and
  shuffled: rows that share a smaller gap and a gap bound, many of them
  in scaled form;
* one-problem calls of each search at six rows, among them the row of
  explore seed 1's failed check, and at six named rows that take the
  separation searches' longer paths:
  - (22.100854834257316, 0.08112977215348849): a crossover walk of 4 428
    points from the grid's first point;
  - (1e3, 1) and (3e4, 0): find_lmax cut searches of three envelope calls;
  - (2000, 1e-3): a crossover walk of more than 40 calls, each capped
    at 8 192 points;
  - (0.01, 0.01): a crossover refinement of 58 Newton steps;
  - (4.5088116955865685, 34.61449538201831): a crossover where the ratio
    of the pairs' scales underflows;
* separation searches on grids whose closed-form end lies far from their
  first point, at scan steps 0.4 and 0.001: one-problem ``find_lmax`` and
  ``find_crossover`` calls at (1e6, 0), (1e8, 3) and (0, 35), and a
  200-row ``find_lmax_many`` batch with a log-uniform in [1, 1e8] and d in
  [0, 35];
* one-problem calls of each search at 40 stratified rows (seed 26) over
  explore's domain: a in [0, 40], d in [0, 35] (in (0, 35] for crossovers), and l
  from 0.05 to max(4a, 4) for the gap search;
* one-problem calls of each search at the six rows at couplings 1e-160
  and 10;
* ``transition_probability``, ``correlation_x_values`` and ``concurrence``
  at the six rows on Python floats, numpy scalars and 0-d arrays, each
  output with the name of its type;
* a sweep per axis, 2 000 ``concurrence_values`` and ``correlation_excess``
  rows per coupling, and 50 ``concurrence`` reports;
* arrays of 10 000 points, where the closed forms' Gaussian factors
  underflow in part: ``transition_probability`` over gaps in [-30, 80]
  (zero, 50 and the edges of exp's underflow among them), and
  ``correlation_x_values``, ``correlation_excess`` and
  ``concurrence_values`` per coupling over a in [0, 40], d in [0, 35] and
  l in [0.05, 150], so that l and 2a + d pass 54.6;
* the same four closed forms on 4 096-point arrays with one NaN, +inf or
  -inf in one input, called with ``RuntimeWarning`` as an error, so that a
  warning gained or lost shows as a differing key;
* ``concurrence_values`` at coupling 0.1 on 10 000 points whose
  separations straddle the edge where the envelope certifies the rows
  non-harvesting (40 rows over a in [0, 40], d in [0, 35], each at the 129
  doubles within 64 ulps of the edge and at 121 separations from half the
  edge to 1.5 times it), called with ``RuntimeWarning`` as an error: as
  they are, with one point in 500 moved outside the domain (a or d
  negative, d = 40, a NaN or an infinity), and as they are under
  ``np.errstate(under="warn")``;
* the principal-value kernel ``pv_gaussian_pole_integral`` on 71 values
  of kappa in [-5, 30] at separations 0.5, 2, 6 and 11.9, at panel orders
  64 and 128;
* the data sections (all but the manifest, which carries a timestamp) of
  ``eval`` at six scenarios and of ``verify --format record``, at the
  default oracle settings and at 48 nodes per panel with the four-regulator
  schedule 0.04, 0.02, 0.01, 0.005.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

# the one-problem rows: (a, d) for the separation searches, (a, l) for the
# gap search
ROWS = ((0.5, 0.25), (20.0, 5.0), (35.0, 30.0), (3.0, 12.0), (0.70, 1.94),
        (21.871735800415525, 43.83058180105828))
# one-problem rows that take the searches' longer paths (the module's
# docstring says which)
NAMED_ROWS = ((22.100854834257316, 0.08112977215348849), (1e3, 1.0), (3e4, 0.0),
              (2000.0, 1e-3), (0.01, 0.01), (4.5088116955865685, 34.61449538201831))
# stratified one-problem rows per search, and short rows of the mixed batches
STRATIFIED_ROWS = 40
SURVEY_GAPS = SURVEY_RATIOS = (0.2, 0.5, 1.0, 1.2)
COUPLINGS = (0.1, 1.0)
# couplings of the one-problem rows besides the default
ROW_COUPLINGS = (1e-160, 10.0)
# (name, a range, upper end of d's range, l range) of the batches
DOMAINS = (("wide", (0.0, 40.0), 35.0, (0.05, 120.0)),
           ("small", (0.0, 3.0), 8.0, (0.05, 12.0)))
# rows of the large find_lmax_many batch over a, d in [0, 3]
LARGE_ROWS = 10_000
# one-problem rows and rows of the batch whose grids end far from their
# first point, at each of the scan steps
FAR_ROWS, FAR_BATCH_ROWS, FAR_STEPS = ((1e6, 0.0), (1e8, 3.0), (0.0, 35.0)), 200, (0.4, 0.001)
# (a, l) of the gap searches under per-row gap bounds: four rows whose
# concurrence rises from zero gap difference, which leave the golden section
# after 0 to 37 steps as the bound grows, and two boundary maxima, one of
# which turns interior at the largest bound
GAP_BOUND_ROWS = ((0.5, 2.0), (0.9, 2.65), (1.9, 4.5), (2.85, 6.25), (0.5, 0.5), (3.0, 12.0))
GAP_BOUNDS = (1e-7, 60.0, 10)  # first, last and count of the log-spaced bounds
# the product grid of gap searches: smaller gaps and separations (first,
# last, count), and the shared gap bound beside the default ones
GRID_GAPS, GRID_SEPARATIONS, GRID_BOUND = (0.0, 40.0, 8), (0.05, 120.0, 60), 12.0
# points of the closed-form arrays that underflow in part, and of those
# with one non-finite input
UNDERFLOW_POINTS, SPECIAL_POINTS = 10_000, 4096
# (a, d) rows and separations per row of the arrays that straddle the
# certificate's edge, and the values put outside the domain one point in 500
EDGE_ROWS, EDGE_POINTS = 40, 250
EDGE_OUTSIDE = (("a", -1.0), ("d", -1.0), ("d", 40.0), ("a", float("nan")), ("l", float("inf")))
# the principal-value kernel's separations (all with the poles inside its
# window), panel orders, and first, last and count of its kappa values
PV_SEPARATIONS, PV_ORDERS, PV_KAPPA = (0.5, 2.0, 6.0, 11.9), (64, 128), (-5.0, 30.0, 71)


def _encode(value):
    """``value`` as JSON of exact bit patterns."""
    import numpy as np

    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return {"shape": value.shape, "hex": [float(v).hex() for v in value.ravel()]}
        if value.dtype.kind == "c":
            return {"shape": value.shape, "real": _encode(value.real.copy()),
                    "imag": _encode(value.imag.copy())}
        return {"shape": value.shape, "values": [_encode(v) for v in value.ravel().tolist()]}
    if isinstance(value, np.generic):
        return _encode(value.item())
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _typed(value):
    """``value`` with the name of its type, and of each field's type for a
    dataclass."""
    if dataclasses.is_dataclass(value):
        return {f.name: _typed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return [type(value).__name__, value]


def _outcome(call, *args, **kwargs):
    """A call's result, or the class and message of the search or domain error
    it raised."""
    from udwharvest.analysis import NoCrossover, NoHarvestingRegion

    try:
        return call(*args, **kwargs)
    except (NoHarvestingRegion, NoCrossover, ValueError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def _warned(call, *args):
    """A call's result with ``RuntimeWarning`` as an error, or the class and
    message of the warning or domain error raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(*args)
        except (RuntimeWarning, ValueError) as exc:
            return f"raises {type(exc).__name__}: {exc}"


def _stratified_rows(rng, n):
    """(search name, n rows) for each search over explore's domain, each
    variable drawn once per equal-width stratum, shuffled."""
    import numpy as np

    def stratified(lo, hi):
        return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

    a, d = stratified(0.0, 40.0), stratified(0.0, 35.0)
    yield "find_lmax", list(zip(a.tolist(), d.tolist()))
    a, d = stratified(0.0, 40.0), 35.0 - stratified(0.0, 35.0)  # in (0, 35]
    yield "find_crossover", list(zip(a.tolist(), d.tolist()))
    a = stratified(0.0, 40.0)
    l = 0.05 + stratified(0.0, 1.0) * (np.maximum(4.0 * a, 4.0) - 0.05)
    yield "find_optimal_gap", list(zip(a.tolist(), l.tolist()))


def _edge_points(closedform, rng):
    """(a, d, l) of the arrays that straddle the edge where the scaled
    envelope of |X|/E, widened by 1e-6, meets sqrt(P~_A P~_B) at coupling
    0.1: per row the first double it lies below (found by bisection on the
    bit patterns of positive doubles) and its neighbours."""
    import numpy as np

    a, d = rng.uniform((0.0, 0.0), (40.0, 35.0), (EDGE_ROWS, 2)).T
    spread = np.linspace(0.5, 1.5, EDGE_POINTS - 129)
    points = []
    for x, y in zip(a.tolist(), d.tolist()):
        gm = closedform._scaled_gm(x, y, 0.1)

        def certified(bits):
            l = np.int64(bits).view(float)
            return closedform._scaled_x_envelope(y, l) * (1.0 + 1e-6) * 0.01 < gm

        lo, hi = np.array([1e-3, 1e4]).view(np.int64).tolist()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if certified(mid) else (mid, hi)
        edge = np.int64(hi).view(float)
        l = np.concatenate([(hi + np.arange(-64, 65)).view(float), edge * spread])
        points.append(np.array([np.full(l.size, x), np.full(l.size, y), l]))
    return np.concatenate(points, axis=1)


def _cli_data(argv):
    """The JSON record ``cli.main`` writes for ``argv``, less its manifest."""
    from udwharvest import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    record = json.loads(out.getvalue())
    record.pop("manifest")
    return {"status": status, **record}


def _outputs():
    """Every compared output of the tree on the path, by key."""
    import numpy as np

    import udwharvest
    from udwharvest import analysis, cli, closedform, oracle

    out = {"surface": {
        name: next((m.__name__ for m in (closedform, oracle, analysis) if name in m.__all__),
                   udwharvest.__name__)
        for name in sorted(udwharvest.__all__)}}
    for name in cli.FIGURE_NAMES:
        out[f"figure/{name}"] = cli.build_figure(name, 400)
    for a in SURVEY_GAPS:
        for r in SURVEY_RATIOS:
            out[f"survey-crossover/{a}/{r}"] = _cli_data(
                ["crossover", "--omega-a", repr(a), "--delta-omega", repr(a * r),
                 "--format", "record"])

    rng = np.random.default_rng(2025)
    for name, (a_lo, a_hi), d_hi, (l_lo, l_hi) in DOMAINS:
        for coupling in COUPLINGS:
            a = rng.uniform(a_lo, a_hi, 400)
            d = d_hi - rng.uniform(0.0, d_hi, 400)  # in (0, d_hi]
            l = rng.uniform(l_lo, l_hi, 400)
            key = f"batch/{name}/{coupling}"
            out[f"{key}/find_lmax_many"] = analysis.find_lmax_many(a, d, coupling)
            out[f"{key}/find_crossover_many"] = analysis.find_crossover_many(a, d, coupling)
            out[f"{key}/find_optimal_gap_many"] = analysis.find_optimal_gap_many(a, l, coupling)

    rng_batches = np.random.default_rng(28)
    short = dict(_stratified_rows(rng_batches, STRATIFIED_ROWS))
    for many, search in ((analysis.find_lmax_many, "find_lmax"),
                         (analysis.find_crossover_many, "find_crossover")):
        a, d = np.array([row for row in NAMED_ROWS + tuple(short[search])
                         if search == "find_lmax" or row[1] > 0.0]).T
        out[f"mixed/{many.__name__}"] = many(a, d)
    a, d = (rng_batches.uniform(0.0, 3.0, LARGE_ROWS) for _ in range(2))
    out["large-batch/find_lmax_many"] = analysis.find_lmax_many(a, d)

    a = np.exp(rng_batches.uniform(0.0, np.log(1e8), FAR_BATCH_ROWS))
    d = rng_batches.uniform(0.0, 35.0, FAR_BATCH_ROWS)
    for step in FAR_STEPS:
        out[f"far-end/find_lmax_many/{step!r}"] = analysis.find_lmax_many(a, d, scan_step=step)
        for x, y in FAR_ROWS:
            for search in (analysis.find_lmax, analysis.find_crossover):
                out[f"far-end/{search.__name__}/{x!r}/{y!r}/{step!r}"] = _outcome(
                    search, x, y, scan_step=step)

    a, l = np.repeat(np.array(GAP_BOUND_ROWS), GAP_BOUNDS[-1], axis=0).T
    bound = np.tile(np.geomspace(*GAP_BOUNDS), len(GAP_BOUND_ROWS))
    out["gap-bounds/find_optimal_gap_many"] = analysis.find_optimal_gap_many(
        a, l, gap_bound=bound)
    for x, y, b in zip(a.tolist(), l.tolist(), bound.tolist()):
        out[f"gap-bounds/find_optimal_gap/{x!r}/{y!r}/{b!r}"] = _outcome(
            analysis.find_optimal_gap, x, y, gap_bound=b)

    a, l = np.linspace(*GRID_GAPS)[:, None], np.linspace(*GRID_SEPARATIONS)
    a, l = (x.ravel() for x in np.broadcast_arrays(a, l))
    shuffled = np.random.default_rng(38).permutation(a.size)
    for coupling in COUPLINGS:
        for name, bound in (("default", None), ("shared", GRID_BOUND)):
            key = f"product-grid/{coupling}/{name}"
            out[key] = analysis.find_optimal_gap_many(a, l, coupling, bound)
            out[f"{key}/shuffled"] = analysis.find_optimal_gap_many(
                a[shuffled], l[shuffled], coupling, bound)

    for x, y in ROWS + NAMED_ROWS:
        for search in (analysis.find_lmax, analysis.find_crossover, analysis.find_optimal_gap):
            out[f"one-problem/{search.__name__}/{x!r}/{y!r}"] = _outcome(search, x, y)
    for search, rows in _stratified_rows(np.random.default_rng(26), STRATIFIED_ROWS):
        for i, (x, y) in enumerate(rows):
            out[f"stratified/{search}/{i}"] = _outcome(getattr(analysis, search), x, y)
    for x, y in ROWS:
        for coupling in ROW_COUPLINGS:
            for search in (analysis.find_lmax, analysis.find_crossover,
                           analysis.find_optimal_gap):
                out[f"coupling/{search.__name__}/{x!r}/{y!r}/{coupling!r}"] = _outcome(
                    search, x, y, coupling)

    for name, form in (("float", float), ("float64", np.float64), ("0-d", np.array)):
        for x, y in ROWS:
            a, d, l = form(x), form(min(y, 35.0)), form(2.5)
            key = f"scalar/{name}/{x!r}/{y!r}"
            out[f"{key}/transition_probability"] = _typed(
                closedform.transition_probability(a, 0.1))
            out[f"{key}/correlation_x_values"] = _typed(
                closedform.correlation_x_values(a, d, l, 0.1))
            out[f"{key}/concurrence"] = _typed(
                closedform.concurrence(closedform.DetectorPairConfig(a, d, l, 0.1)))

    fixed = closedform.DetectorPairConfig(0.5, 0.25, 1.0)
    for axis, values in (("l_over_sigma", np.linspace(0.05, 60.0, 500)),
                         ("delta_omega_sigma", np.linspace(0.0, 40.0, 500)),
                         ("omega_a_sigma", np.linspace(0.0, 45.0, 500))):
        out[f"sweep/{axis}"] = analysis.sweep(axis, values, fixed)

    for coupling in COUPLINGS:
        a, d = rng.uniform(0.0, 40.0, 2000), rng.uniform(0.0, 35.0, 2000)
        l = rng.uniform(0.05, 120.0, 2000)
        out[f"values/{coupling}/concurrence_values"] = closedform.concurrence_values(
            a, d, l, coupling)
        out[f"values/{coupling}/correlation_excess"] = closedform.correlation_excess(
            a, d, l, coupling)
        for i in range(25):
            cfg = closedform.DetectorPairConfig(*(float(v[i]) for v in (a, d, l)), coupling)
            out[f"report/{coupling}/{i}"] = closedform.concurrence(cfg)

    gaps = np.concatenate([np.linspace(-30.0, 80.0, UNDERFLOW_POINTS - 8),
                           [-0.0, 0.0, 26.6, 27.3, 49.99, 50.0, 707.0 ** 0.5, 746.0 ** 0.5]])
    out["underflow/transition_probability"] = closedform.transition_probability(gaps, 0.1)
    for coupling in COUPLINGS:
        a, d = rng.uniform(0.0, 40.0, UNDERFLOW_POINTS), rng.uniform(0.0, 35.0, UNDERFLOW_POINTS)
        l = rng.uniform(0.05, 150.0, UNDERFLOW_POINTS)
        for form in (closedform.correlation_x_values, closedform.correlation_excess,
                     closedform.concurrence_values):
            out[f"underflow/{coupling}/{form.__name__}"] = form(a, d, l, coupling)
    a, d = rng.uniform(0.0, 40.0, SPECIAL_POINTS), rng.uniform(0.0, 35.0, SPECIAL_POINTS)
    l = rng.uniform(0.05, 150.0, SPECIAL_POINTS)
    for special in (np.nan, np.inf, -np.inf):
        for i, name in enumerate(("a", "d", "l")):
            args = [a.copy(), d.copy(), l.copy()]
            args[i][SPECIAL_POINTS // 2] = special
            key = f"special/{special!r}/{name}"
            if name == "a":
                out[f"{key}/transition_probability"] = _warned(
                    closedform.transition_probability, args[0], 0.1)
            for form in (closedform.correlation_x_values, closedform.correlation_excess,
                         closedform.concurrence_values):
                out[f"{key}/{form.__name__}"] = _warned(form, *args, 0.1)

    a, d, l = _edge_points(closedform, np.random.default_rng(40))
    out["certified/edge"] = _warned(closedform.concurrence_values, a, d, l, 0.1)
    mixed = {"a": a.copy(), "d": d.copy(), "l": l.copy()}
    for i, point in enumerate(range(250, a.size, 500)):
        name, value = EDGE_OUTSIDE[i % len(EDGE_OUTSIDE)]
        mixed[name][point] = value
    out["certified/mixed"] = _warned(closedform.concurrence_values, *mixed.values(), 0.1)
    with np.errstate(under="warn"):
        out["certified/under-warn"] = _warned(closedform.concurrence_values, a, d, l, 0.1)

    kappa = np.linspace(*PV_KAPPA)
    for l in PV_SEPARATIONS:
        for order in PV_ORDERS:
            out[f"pv/{l!r}/{order}"] = oracle.pv_gaussian_pole_integral(kappa, l, order)

    for x, y in ROWS:
        out[f"eval/{x!r}/{y!r}"] = _cli_data(
            ["eval", "--omega-a", repr(x), "--delta-omega", repr(min(y, 35.0)), "--l", "2.5",
             "--format", "record"])
    out["verify"] = _cli_data(["verify", "--format", "record"])
    out["verify/settings"] = _cli_data(["verify", "--format", "record", "--quad-nodes", "48",
                                        "--eps-schedule", "0.04,0.02,0.01,0.005"])
    return {key: _encode(value) for key, value in out.items()}


def _dump(path):
    """Write this tree's outputs to ``path`` as JSON."""
    import udwharvest

    warnings.simplefilter("ignore")  # coupling 1 lies outside the weak regime
    outputs = {"__module__": os.path.realpath(udwharvest.__file__), **_outputs()}
    with open(path, "w") as fh:
        json.dump(outputs, fh)


def _run(tree, path):
    """The outputs of the checkout ``tree``, from a fresh interpreter."""
    src = os.path.realpath(os.path.join(tree, "src"))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path], env=env,
                   cwd=os.path.dirname(path), check=True)
    with open(path) as fh:
        outputs = json.load(fh)
    module = outputs.pop("__module__")
    if not module.startswith(src + os.sep):
        raise SystemExit(f"{tree}: imported {module}, not the checkout's own package")
    return outputs


# paths shown per kind of difference inside one key
MAX_PATHS = 8


def _inner(parent, change, path, found):
    """Collect into ``found`` the paths inside two encoded values that
    differ (``"differs at"``) or that only one of them has."""
    prefix = f"{path}/" if path else ""
    if isinstance(parent, dict) and isinstance(change, dict):
        for k in list(parent) + [k for k in change if k not in parent]:
            if k not in change:
                found["only in parent"].append(prefix + k)
            elif k not in parent:
                found["only in change"].append(prefix + k)
            else:
                _inner(parent[k], change[k], prefix + k, found)
    elif isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        for i, (p, c) in enumerate(zip(parent, change)):
            _inner(p, c, f"{prefix}{i}", found)
    elif parent != change:
        found["differs at"].append(path or "the whole value")


def _detail(parent, change):
    """Where two encoded values of one key differ, as one line."""
    found = {"differs at": [], "only in parent": [], "only in change": []}
    _inner(parent, change, "", found)
    return "; ".join(
        f"{kind}: {', '.join(paths[:MAX_PATHS])}"
        + (f", ... ({len(paths)} in all)" if len(paths) > MAX_PATHS else "")
        for kind, paths in found.items() if paths)


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":
        _dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (_run(tree, os.path.join(tmp, f"{i}.json"))
                          for i, tree in enumerate(argv))
    differ = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differ:
        print(f"differs: {key}: {_detail(parent[key], change[key])}"
              if key in parent and key in change
              else f"only in {'parent' if key in parent else 'change'}: {key}")
    print(f"{len(parent.keys() | change.keys())} keys compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

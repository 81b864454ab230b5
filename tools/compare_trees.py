"""Compare the outputs of two checkouts of udwharvest bit for bit.

    python tools/compare_trees.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout is run in its own interpreter with only its ``src`` on the
path.  There it evaluates a fixed set of inputs (below) and writes every
output as exact bit patterns: each float as ``float.hex``, each complex as
its two parts, each raised search error as its class and message.  The two
sets are then compared key by key; every key whose bits differ, or that
only one tree has, is printed.  The exit status is 1 on any difference and
0 when every bit is kept.

The set covers what the package reports:

* the seven survey figures at 400 points, and the survey's 16 crossovers
  through ``cli.main`` (smaller gaps and gap ratios 0.2, 0.5, 1.0, 1.2);
* 400-row batches of each search over a in [0, 40], d in (0, 35] and
  l in [0.05, 120], and over a in [0, 3], d in (0, 8] and l in [0.05, 12],
  at couplings 0.1 and 1;
* a batch of each separation search that walks the named rows below
  (those with d > 0 for crossovers) beside 40 short stratified rows, so
  that long and short walks share the lockstep's calls;
* a 40-row ``find_lmax_many`` batch over a, d in [0, 3] with an array
  ``scan_bound``: 0.9 times each row's lmax on every other row (a
  bracketing failure) and 1.1 times it on the rest (a capped grid);
* a 10 000-row ``find_lmax_many`` batch over a, d in [0, 3], where more
  rows walk than a scan call holds points;
* one-problem calls of each search at six rows, among them the row of
  explore seed 1's failed check, and at six named rows that take the
  separation searches' longer paths:
  - (22.100854834257316, 0.08112977215348849): a crossover walk of 4 428
    points from the grid's first point;
  - (1e3, 1) and (3e4, 0): find_lmax cut searches of four envelope calls;
  - (2000, 1e-3): a crossover walk of more than 40 calls, each capped
    at 8 192 points;
  - (0.01, 0.01): a crossover refinement of 58 Newton steps;
  - (4.5088116955865685, 34.61449538201831): a crossover where the ratio
    of the pairs' scales underflows;
* one-problem calls of each search at 40 stratified rows (seed 26) over
  explore's domain: a in [0, 40], d in [0, 35] (in (0, 35] for crossovers), and l
  from 0.05 to max(4a, 4) for the gap search;
* one-problem calls of each search at the six rows at couplings 1e-160
  and 10, and of the separation searches at five of them with a
  ``scan_bound`` 0.05 below the row's lmax (a bracketing failure) and one
  1 above it (a capped grid);
* ``transition_probability``, ``correlation_x_values`` and ``concurrence``
  at the six rows on Python floats, numpy scalars and 0-d arrays, each
  output with the name of its type;
* a sweep per axis, 2 000 ``concurrence_values`` and ``correlation_excess``
  rows per coupling, and 50 ``concurrence`` reports;
* the data sections (all but the manifest, which carries a timestamp) of
  ``eval`` at six scenarios and of ``verify --format record``.
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
# rows of the bounded and of the large find_lmax_many batch over a, d in [0, 3]
BOUNDED_ROWS, LARGE_ROWS = 40, 10_000


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
    from udwharvest.analysis import BracketingFailure, NoCrossover, NoHarvestingRegion

    try:
        return call(*args, **kwargs)
    except (NoHarvestingRegion, BracketingFailure, NoCrossover, ValueError) as exc:
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

    from udwharvest import analysis, cli, closedform

    out = {}
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
    a, d = (rng_batches.uniform(0.0, 3.0, BOUNDED_ROWS) for _ in range(2))
    lmax = analysis.find_lmax_many(a, d).location
    bound = lmax * np.resize([0.9, 1.1], BOUNDED_ROWS)
    out["bounded-batch/find_lmax_many"] = analysis.find_lmax_many(a, d, scan_bound=bound)
    a, d = (rng_batches.uniform(0.0, 3.0, LARGE_ROWS) for _ in range(2))
    out["large-batch/find_lmax_many"] = analysis.find_lmax_many(a, d)

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
        lmax = _outcome(analysis.find_lmax, x, y)
        if isinstance(lmax, str):  # (21.87..., 43.83...) lies outside the domain
            continue
        for bound in (lmax.location - 0.05, lmax.location + 1.0):
            for search in (analysis.find_lmax, analysis.find_crossover):
                out[f"bounded/{search.__name__}/{x!r}/{y!r}/{bound!r}"] = _outcome(
                    search, x, y, scan_bound=bound)

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

    for x, y in ROWS:
        out[f"eval/{x!r}/{y!r}"] = _cli_data(
            ["eval", "--omega-a", repr(x), "--delta-omega", repr(min(y, 35.0)), "--l", "2.5",
             "--format", "record"])
    out["verify"] = _cli_data(["verify", "--format", "record"])
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
        print(f"differs: {key}" if key in parent and key in change
              else f"only in {'parent' if key in parent else 'change'}: {key}")
    print(f"{len(parent.keys() | change.keys())} keys compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
* one-problem calls of each search at six rows, among them the row of
  explore seed 1's failed check;
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
SURVEY_GAPS = SURVEY_RATIOS = (0.2, 0.5, 1.0, 1.2)
COUPLINGS = (0.1, 1.0)
# (name, a range, upper end of d's range, l range) of the batches
DOMAINS = (("wide", (0.0, 40.0), 35.0, (0.05, 120.0)),
           ("small", (0.0, 3.0), 8.0, (0.05, 12.0)))


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


def _outcome(call, *args, **kwargs):
    """A call's result, or the class and message of the search or domain error
    it raised."""
    from udwharvest.analysis import BracketingFailure, NoCrossover, NoHarvestingRegion

    try:
        return call(*args, **kwargs)
    except (NoHarvestingRegion, BracketingFailure, NoCrossover, ValueError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


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

    for x, y in ROWS:
        for search in (analysis.find_lmax, analysis.find_crossover, analysis.find_optimal_gap):
            out[f"one-problem/{search.__name__}/{x!r}/{y!r}"] = _outcome(search, x, y)

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

"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench -q

They check the self-time arithmetic on synthetic nested calls, that a seed
reproduces its inputs, that perturbed outputs are counted as failures, that
every declared metric is printed with its unit, and that the benchmark
refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self-time arithmetic


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _fake_layers(clock):
    """Five fake layer modules: cli.main -> analysis.find_lmax -> twice
    closedform.form -> closedform.kernel (a specfun function imported
    into closedform), with known self times."""
    mods = {name: types.ModuleType(f"fake.{name}") for name in tracing.LAYERS}

    def define(layer, fn):
        fn.__module__ = mods[layer].__name__
        setattr(mods[layer], fn.__name__, fn)
        return fn

    def kernel(x):
        clock.t += 1.0
        return x

    def form(x):
        clock.t += 2.0
        mods["closedform"].kernel(x)
        clock.t += 0.5
        return x

    def find_lmax(a, d):
        clock.t += 3.0
        mods["analysis"].form(a)
        mods["analysis"].form(d)
        return types.SimpleNamespace(iterations=5)

    def main(argv):
        clock.t += 0.25
        return mods["cli"].find_lmax(1.0, 2.0)

    define("specfun", kernel)
    define("closedform", form)
    define("analysis", find_lmax)
    define("cli", main)
    mods["closedform"].kernel = kernel  # imported names, as "from x import y" makes
    mods["analysis"].form = form
    mods["cli"].find_lmax = find_lmax
    return mods


def test_self_times_on_synthetic_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    mods = _fake_layers(clock)
    tracer = tracing.Tracer(mods)
    original = mods["closedform"].kernel
    tracer.install()
    assert mods["closedform"].kernel is not original  # wrapped where imported
    tracer.current_op = 0
    mods["cli"].main([])
    tracer.uninstall()
    assert mods["closedform"].kernel is original
    assert "specfun.faddeeva_w" in tracer.missing  # reported, not fatal

    wall = 11.0  # 10.25 s inside the program, 0.75 s in the benchmark
    totals, closure = tracing.summarize(tracer, {0: ("search", "x", wall)})
    assert totals["cli.self_s"] == 0.25
    assert totals["analysis.self_s"] == 3.0
    assert totals["closedform.self_s"] == 5.0
    assert totals["specfun.self_s"] == 2.0
    assert totals["specfun.calls"] == 2 and totals["closedform.calls"] == 2
    assert totals["analysis.searches"] == 1
    assert totals["analysis.iterations"] == 5
    assert totals["analysis.closedform_calls"] == 2
    (_, _, op_wall, layers, bench), = closure
    assert layers == [2.0, 5.0, 3.0, 0.0, 0.25]
    assert bench == pytest.approx(0.75)
    assert sum(layers) + bench == pytest.approx(op_wall)


def test_self_times_subtract_only_direct_children():
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_array_equal(tracing.self_times(start, end, parent), [6.0, 2.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.fixture(scope="module")
def pkg():
    import udwharvest.analysis
    import udwharvest.cli
    import udwharvest.closedform

    return types.SimpleNamespace(analysis=udwharvest.analysis, cli=udwharvest.cli,
                                 closedform=udwharvest.closedform)


def _flatten(obj):
    if isinstance(obj, np.ndarray):
        return [obj.tobytes()]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _flatten(item)]
    return [repr(obj)]


def test_same_seed_gives_identical_inputs(pkg, tmp_path):
    first = workloads.Explore(7, pkg, str(tmp_path)).inputs()
    again = workloads.Explore(7, pkg, str(tmp_path)).inputs()
    other = workloads.Explore(8, pkg, str(tmp_path)).inputs()
    assert _flatten(first) == _flatten(again)
    assert _flatten(first) != _flatten(other)
    for cls in (workloads.Survey, workloads.Certify, workloads.Explore):
        orders = [[op.label for op in cls(s, pkg, str(tmp_path)).pass_ops(
            np.random.default_rng([s, 2]))] for s in (3, 3)]
        assert orders[0] == orders[1]


def test_inputs_stay_in_the_admitted_domain(pkg, tmp_path):
    wl = workloads.Explore(5, pkg, str(tmp_path))
    for a, d, l in wl.batches:
        assert a.min() >= 0 and a.max() <= workloads.MAX_GAP
        assert d.min() >= 0 and d.max() <= workloads.MAX_DELTA
        assert l.min() >= workloads.MIN_SEPARATION
    assert all(y > 0 for kind, _, y in wl.searches if kind == "find_crossover")


# ---------------------------------------------------------------------------
# perturbed outputs


def _survey_with_reference_outputs(pkg, tmp_path):
    data = json.loads((BENCH / "reference" / "survey.json").read_text())
    wl = workloads.Survey(1, pkg, str(tmp_path))
    for name, fig in data["figures"].items():
        wl.outputs[name] = (0, fig["columns"], np.array(fig["data"], dtype=float))
    for label, loc in data["crossovers"].items():
        wl.outputs[label] = (0, loc)
    return wl, data


@pytest.mark.parametrize("perturb", ["value", "nan", "crossover", "exit"])
def test_perturbed_survey_output_fails(pkg, tmp_path, perturb):
    wl, data = _survey_with_reference_outputs(pkg, tmp_path)
    clean = workloads.Checks()
    wl.check(clean, data)
    assert clean.attempted == len(workloads.FIGURES) + 16 and clean.failed == 0
    rc, columns, fig = wl.outputs["fig5"]
    if perturb == "value":
        fig[3, 2] *= 1 + 1e-6
    elif perturb == "nan":
        fig[3, 2] = np.nan
    elif perturb == "crossover":
        label = next(iter(data["crossovers"]))
        wl.outputs[label] = (0, wl.outputs[label][1] * (1 + 1e-6))
    else:
        wl.outputs["fig5"] = (1, columns, fig)
    checks = workloads.Checks()
    wl.check(checks, data)
    assert checks.failed == 1 and not checks.correct


def test_output_changed_between_passes_fails(pkg, tmp_path):
    wl, data = _survey_with_reference_outputs(pkg, tmp_path)
    op = next(op for op in wl.ops if op.label == "fig1a")
    rc, columns, fig = wl.outputs["fig1a"]
    wl.keep("fig1a", (rc, columns, fig + 1e-3), lambda x, y: np.array_equal(x[2], y[2]))
    checks = workloads.Checks()
    wl.check(checks, data)
    assert checks.failed == 1 and op.label in checks.notes[0]


def test_perturbed_explore_outputs_fail(pkg, tmp_path):
    wl = workloads.Explore(3, pkg, str(tmp_path))
    a = np.array([0.5, 1.2, 2.0])
    d = np.array([0.5, 0.6, 1.0])
    l = np.array([2.0, 1.0, 3.0])
    wl.batches = [(a, d, l)]
    wl.eval_sample = [np.arange(3)]
    wl.sweeps = [("l_over_sigma", np.linspace(0.1, 4.0, 20), (0.5, 0.5, 2.0))]
    wl.searches = [("find_lmax", 4.0, 2.0), ("find_optimal_gap", 0.5, 2.0),
                   ("find_crossover", 0.5, 0.25)]
    wl.ops = [workloads.Op("batch", "batch 0", wl._batch(a, d, l)),
              workloads.Op("sweep", "sweep 0", wl._sweep(*wl.sweeps[0]))]
    wl.ops += [workloads.Op("search", f"search {i}", wl._search(*s))
               for i, s in enumerate(wl.searches)]
    _, done, _ = workloads.run_pass(wl.ops)
    for op, _, out, _ in done:
        wl.collect_output(op, out)
    ref = reference.Reference(workloads.COUPLING)
    clean = workloads.Checks()
    wl.check(clean, ref)
    assert clean.attempted == 3 + 1 + 3 and clean.failed == 0

    outputs = dict(wl.outputs)
    perturbations = {
        "batch 0": lambda out: out * np.array([1.0, 1.0 + 1e-6, 1.0]),
        "sweep 0": lambda out: (out[0], np.nextafter(out[1], np.inf)),
        "search 0": lambda out: types.SimpleNamespace(
            location=out.location * 1.01, bracket=tuple(b * 1.01 for b in out.bracket),
            iterations=out.iterations),
        "search 1": lambda out: types.SimpleNamespace(
            location=out.location * 1.2, value=out.value, bracket=out.bracket,
            iterations=out.iterations),
        "search 2": lambda out: pkg.analysis.NoCrossover("perturbed"),
    }
    for label, perturb in perturbations.items():
        wl.outputs = dict(outputs, **{label: perturb(outputs[label])})
        checks = workloads.Checks()
        wl.check(checks, ref)
        assert checks.failed == 1, label


def test_underflow_failures_are_counted_but_do_not_mark_incorrect():
    ref = reference.Reference(workloads.COUPLING)
    checks = workloads.Checks()
    # P_A * P_B underflows to zero, so the unscaled excess claims harvesting
    # where the true excess is negative
    ok, known = workloads._certify(ref.value_ok, 20.0, 0.0, 50.0, 2.4404251418379327e-180)
    checks.record(ok, "x", known)
    assert checks.failed == 1 and checks.known == 1 and checks.correct
    ok, known = workloads._certify(ref.value_ok, 0.5, 0.5, 2.0, 1.0)
    checks.record(ok, "y", known)
    assert checks.failed == 2 and not checks.correct


@pytest.mark.parametrize("perturb", ["value", "root", "no_region"])
def test_wrong_outputs_where_the_product_underflows_mark_incorrect(pkg, tmp_path, perturb):
    """At a = 15, d = 10 the product P_A * P_B underflows, yet at short
    separations the values are right.  A wrong value, a wrong root or a
    wrong NoHarvestingRegion there is not put down to the underflow."""
    ref = reference.Reference(workloads.COUPLING)
    assert ref.gm(15.0, 10.0) ** 2 < sys.float_info.min
    wl = workloads.Explore(3, pkg, str(tmp_path))
    a, d, l = np.array([15.0, 12.0, 10.0]), np.array([10.0, 12.0, 20.0]), np.array([1.0, 2.0, 3.0])
    wl.batches, wl.eval_sample, wl.sweeps = [(a, d, l)], [np.arange(3)], []
    wl.searches = [("find_lmax", 15.0, 10.0)]
    wl.outputs = {"batch 0": pkg.closedform.concurrence_values(a, d, l, workloads.COUPLING),
                  "search 0": workloads._call(pkg.analysis.find_lmax, 15.0, 10.0)}
    clean = workloads.Checks()
    wl.check(clean, ref)
    assert clean.attempted == 4 and clean.correct

    if perturb == "value":
        wl.outputs["batch 0"] = wl.outputs["batch 0"] * np.array([1.0 + 1e-6, 1.0, 1.0])
    elif perturb == "root":
        wl.outputs["search 0"] = types.SimpleNamespace(location=20.0, bracket=(20.0, 20.0 + 1e-9),
                                                       iterations=30)
    else:
        wl.outputs["search 0"] = pkg.analysis.NoHarvestingRegion("perturbed")
    checks = workloads.Checks()
    wl.check(checks, ref)
    assert checks.failed > checks.known and not checks.correct


def test_boundary_gap_answers_are_known_only_for_a_narrow_peak():
    ref = reference.Reference(workloads.COUPLING)
    boundary = types.SimpleNamespace(location=0.0, value=0.0, bracket=(0.0, 0.0), iterations=0)
    # the peak at d ~ 0.01 falls back below the value at zero within 1 % of
    # the bound: a coarse scan misses it
    assert workloads._certify(ref.optimal_gap_ok, 0.7014600892608877, 1.9434926983570109,
                              4.0, boundary) == (False, True)
    # the peak near d = 0.5 is not missed by a coarse scan
    assert workloads._certify(ref.optimal_gap_ok, 0.5, 2.0, 4.0, boundary) == (False, False)


# ---------------------------------------------------------------------------
# printed metrics and refusal without the program


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, kind):
    proc = _run(["--workload", "explore", "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1])
        assert isinstance(result["metrics"][name]["value"], float)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

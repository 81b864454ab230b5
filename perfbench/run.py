#!/usr/bin/env python3
"""udwharvest benchmark.

    python3 perfbench/run.py --workload {survey,certify,explore,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and from nowhere else.  One process is one
single-threaded client running closed-loop passes of one workload for
about ``--seconds`` seconds after a warm-up.  Every timed output is checked
once the timing is over.  Times are scaled to a reference machine speed
with a speed probe timed throughout the run (``PROBE_REFERENCE_S`` below;
the raw times are kept in the run record).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` the run alternates untraced
and traced passes and the metrics are the per-layer ones.  The lines above
it give every metric by name with its unit and sample count, the check
tally and the run metadata.  A record of the run (and, when traced, every
span) is written under ``.perfbench-out/`` in the checkout.

``--workload all`` runs each workload in its own process, in turn, and
prints one table of all of them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# One BLAS thread (at most nproc): the client is single-threaded, and the
# oracles' matrix products then do not compete with the client for cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7

# Median time of workloads.speed_probe on the machine the benchmark was
# written on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4).
# Times reported at reference speed are raw times scaled by
# PROBE_REFERENCE_S / (median probe time while they were taken): that
# machine's speed drifts by 20-30 % over minutes, and the probe, timed
# throughout the run, slows down with it.
PROBE_REFERENCE_S = 0.002

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "op_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "specfun.calls": "count",
    "specfun.points": "count",
    "specfun.self_s": "s",
    "specfun.points_per_s": "1/s",
    "closedform.calls": "count",
    "closedform.scalar_calls": "count",
    "closedform.points": "count",
    "closedform.self_s": "s",
    "closedform.self_us_per_call": "us",
    "analysis.searches": "count",
    "analysis.raised": "count",
    "analysis.self_s": "s",
    "analysis.iterations_per_search": "count",
    "analysis.closedform_calls_per_search": "count",
    "analysis.sweep_points": "count",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.double_integral_s": "s",
    "oracle.pv_s": "s",
    "oracle.nonconvergence": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    **{f"cli.{f}_s": "s" for f in workloads.FIGURES},
    **{f"{layer}.self_share": "ratio" for layer in tracing.LAYERS},
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Times that are exactly zero on every run of a workload that never enters
# their layer (oracle on survey and explore, analysis on certify, cli on
# explore, the figures outside survey) are printed but left out of the
# result line, where a time that never changes would read as not measured;
# the layer's share of the traced time stands in for its self time there.
REPORT_ONLY = ("analysis.self_s", "oracle.self_s", "oracle.double_integral_s",
               "oracle.pv_s", "cli.self_s", *(f"cli.{f}_s" for f in workloads.FIGURES))


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import udwharvest from this checkout's src/ (and only from there)."""
    init = SRC / "udwharvest" / "__init__.py"
    if not init.is_file():
        fail(f"no program source at {init.relative_to(ROOT)}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("udwharvest")
    if Path(pkg.__file__).resolve() != init.resolve():
        fail(f"udwharvest imported from {pkg.__file__}, not from this checkout")
    mods = {name: importlib.import_module(f"udwharvest.{name}") for name in tracing.LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def measure_setup(repeats):
    """(raw, reference-speed) wall times of fresh interpreters importing the
    package and its CLI, with the benchmark's environment; a speed probe
    runs next to each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        probe = workloads.speed_probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import udwharvest, udwharvest.cli"],
                       cwd=ROOT, env=env, check=True)
        raw = time.perf_counter() - t0
        times.append((raw, raw * PROBE_REFERENCE_S / probe))
    return times


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the setting."""
    import ctypes

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "*openblas*",
                                      "lib", "*.so*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(BLAS_THREADS)


def git_commit():
    """Commit of the checkout, or "unknown" outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_metadata(args):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def percentiles(samples):
    """(median, p90) of a list of numbers."""
    p50, p90 = np.percentile(np.asarray(samples, dtype=float), [50, 90])
    return float(p50), float(p90)


@dataclass
class Pass:
    traced: bool
    wall: float  # seconds, probes excluded
    ops: list  # [(op, seconds, scale to reference speed)]
    probes: list  # speed probe seconds

    @property
    def factor(self):
        """Scale from raw to reference-speed seconds for the whole pass."""
        return PROBE_REFERENCE_S / float(np.median(self.probes))


def local_scale(probes, k):
    """Scale for an operation run between probes k - 1 and k: the mean of
    the two probes, so that a long operation is judged by the machine's
    speed just before and just after it."""
    return PROBE_REFERENCE_S / (0.5 * (probes[k - 1] + probes[k]))


def timed_passes(wl, args, tracer):
    """Closed-loop passes for about args.seconds seconds.  Untraced passes
    only, or (with a tracer) untraced and traced passes in turn, at least
    one of each.  Outputs are collected after each pass, outside its time."""
    order = np.random.default_rng([args.seed, 2])
    passes = []
    traced_ops = {}  # op id -> (kind, label, seconds)
    t_start = time.perf_counter()
    traced = False
    while True:
        same_mode = [p.wall for p in passes if p.traced == traced]
        modes_done = {p.traced for p in passes}
        need_more = tracer is not None and len(modes_done) < 2
        if same_mode and not need_more:
            if time.perf_counter() - t_start + float(np.median(same_mode)) > args.seconds:
                break
        ops = wl.pass_ops(order)
        on_op = None
        if traced:
            tracer.install()
            ids = iter(range(len(traced_ops), len(traced_ops) + len(ops)))

            def on_op(op):
                tracer.current_op = next(ids)
        wall, done, probes = workloads.run_pass(ops, on_op)
        if traced:
            tracer.uninstall()
            first = len(traced_ops)
            for i, (op, secs, _, _) in enumerate(done):
                traced_ops[first + i] = (op.kind, op.label, secs)
        passes.append(Pass(traced, wall, [(op, secs, local_scale(probes, k))
                                          for op, secs, _, k in done], probes))
        for op, _, out, _ in done:
            wl.collect_output(op, out)
        if tracer is not None:
            traced = not traced
    return passes, traced_ops


def untraced(passes, key, scaled=True):
    """Reference-speed (or, if not scaled, raw) operation times of the
    untraced passes, grouped by key(op)."""
    out = {}
    for p in passes:
        for op, s, scale in p.ops if not p.traced else ():
            out.setdefault(key(op), []).append(s * scale if scaled else s)
    return out


def walls(passes, traced=False):
    """Reference-speed wall times of the untraced (or traced) passes."""
    return [p.wall * p.factor for p in passes if p.traced == traced]


def by_label(op):
    return op.label


def by_kind(op):
    return op.kind


def end_to_end(wl, passes, setup):
    kinds = untraced(passes, by_kind)
    lat = [s * 1e3 for kind in wl.request_kinds() for s in kinds[kind]]
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the sum of each operation's median time: one slow stretch of a run
        # then moves only the operations it hit
        "pass_s": float(sum(np.median(v) for v in untraced(passes, by_label).values())),
        "op_p50_ms": float(np.median(lat)),
    }
    samples = {"setup_s": SETUP_REPEATS, "pass_s": len(walls(passes)), "op_p50_ms": len(lat),
               "peak_rss_mb": 1}
    return metrics, samples


def named_metrics(wl, passes, pass_s):
    """The workload's own end-to-end quantities under their own names."""
    kinds = untraced(passes, by_kind)
    pass_walls = walls(passes)
    p50, p90 = percentiles(pass_walls)
    how = (f"sum of operation medians over {len(pass_walls)} passes; "
           f"pass wall p50 {p50:.4g} p90 {p90:.4g}")
    raw = untraced(passes, by_label, scaled=False).values()
    out = {"pass_raw_s": (float(sum(np.median(v) for v in raw)), "s",
                          "pass_s without the scaling to reference speed")}
    if wl.name in ("survey", "certify"):
        out["survey_s" if wl.name == "survey" else "verify_s"] = (pass_s, "s", how)
        lat = [s * 1e3 for kind in wl.request_kinds() for s in kinds[kind]]
        out["op_p90_ms"] = (percentiles(lat)[1], "ms", f"{len(lat)} operations")
    else:
        b, s, q = kinds["batch"], kinds["sweep"], kinds["search"]
        out["eval_points_per_s"] = (workloads.BATCH_SIZE / float(np.median(b)), "1/s",
                                    f"batches of {workloads.BATCH_SIZE}, median of {len(b)}")
        out["sweep_points_per_s"] = (workloads.SWEEP_POINTS / float(np.median(s)), "1/s",
                                     f"sweeps of {workloads.SWEEP_POINTS}, median of {len(s)}")
        out["searches_per_s"] = (len(q) / float(np.sum(q)), "1/s", f"{len(q)} searches")
        p50, p90 = percentiles([x * 1e3 for x in q])
        out["search_p50_ms"] = (p50, "ms", f"{len(q)} searches")
        out["search_p90_ms"] = (p90, "ms", f"{len(q)} searches")
    return out


def per_layer(wl, passes, tracer, traced_ops):
    n_traced = sum(p.traced for p in passes)
    totals, closure = tracing.summarize(tracer, traced_ops)
    per = {k: v / n_traced for k, v in totals.items()}
    m = {}
    for layer in ("specfun", "closedform"):
        m[f"{layer}.calls"] = per[f"{layer}.calls"]
        m[f"{layer}.points"] = per[f"{layer}.points"]
        m[f"{layer}.self_s"] = per[f"{layer}.self_s"]
    m["specfun.points_per_s"] = _ratio(totals["specfun.points"], totals["specfun.self_s"])
    m["closedform.scalar_calls"] = per["closedform.scalar_calls"]
    m["closedform.self_us_per_call"] = 1e6 * _ratio(totals["closedform.self_s"],
                                                    totals["closedform.calls"])
    m["analysis.searches"] = per["analysis.searches"]
    m["analysis.raised"] = per["analysis.raised"]
    m["analysis.self_s"] = per["analysis.self_s"]
    m["analysis.iterations_per_search"] = _ratio(totals["analysis.iterations"],
                                                 totals["analysis.completed"])
    m["analysis.closedform_calls_per_search"] = _ratio(totals["analysis.closedform_calls"],
                                                       totals["analysis.searches"])
    m["analysis.sweep_points"] = per["analysis.sweep_points"]
    for k in ("calls", "self_s", "double_integral_s", "pv_s", "nonconvergence"):
        m[f"oracle.{k}"] = per[f"oracle.{k}"]
    m["cli.self_s"] = per["cli.self_s"]
    m["cli.bytes_written"] = wl.bytes_written / len(passes)
    fig = untraced(passes, by_label)
    for f in workloads.FIGURES:
        m[f"cli.{f}_s"] = float(np.median(fig[f])) if f in fig else 0.0
    traced_wall = sum(row[2] for row in closure)
    for i, layer in enumerate(tracing.LAYERS):
        m[f"{layer}.self_share"] = _ratio(sum(row[3][i] for row in closure), traced_wall)
    m["bench.self_s"] = sum(row[4] for row in closure) / n_traced
    m["trace.overhead_ratio"] = float(np.median(walls(passes, traced=True))
                                      / np.median(walls(passes)))
    return {k: m[k] for k in PER_LAYER_UNITS}, closure, n_traced


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def closure_lines(closure):
    """Per kind of operation: wall time, each layer's self time and the
    benchmark's own time, and how far their sum is from the wall time."""
    kinds = {}
    for _, kind, wall, row, bench in closure:
        k = kinds.setdefault(kind, np.zeros(len(tracing.LAYERS) + 2))
        k += [wall, *row, bench]
    lines = []
    for kind, v in kinds.items():
        wall, layers, bench = v[0], v[1:-1], v[-1]
        parts = " ".join(f"{n}={s / wall:.1%}" for n, s in zip(tracing.LAYERS, layers))
        gap = abs(wall - layers.sum() - bench)
        lines.append(f"  {kind:<9} wall {wall:.4f} s: {parts} bench={bench / wall:.1%}"
                     f" (unaccounted {gap:.1e} s)")
    return lines


def run_one(args):
    pkg = load_program()
    meta = run_metadata(args)
    # set-up is sampled before and after the timed passes, so that its
    # median spans the run rather than the machine's state at its start
    setup_samples = measure_setup(SETUP_REPEATS // 2 + 1)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, pkg, str(workdir))
        wl.warm_up()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer({**{n: getattr(pkg, n) for n in tracing.LAYERS},
                                     "package": pkg.package})
        passes, traced_ops = timed_passes(wl, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples += measure_setup(SETUP_REPEATS - len(setup_samples))
    e2e, samples = end_to_end(wl, passes, float(np.median([n for _, n in setup_samples])))
    named = named_metrics(wl, passes, e2e["pass_s"])

    import reference  # after the timing, so mpmath is not in the measured memory
    checks = workloads.Checks()
    ref_data = json.loads((Path(__file__).parent / "reference" / "survey.json").read_text())
    wl.check(checks, reference.Reference(workloads.COUPLING) if wl.name == "explore" else ref_data)

    print(f"# udwharvest benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("# run: " + ", ".join(f"{k}={v}" for k, v in meta.items()
                                 if k not in ("workload", "seed", "seconds", "trace")))
    factors = [p.factor for p in passes]
    print(f"# speed: times below are at reference speed; raw x {min(factors):.3f}"
          f"..{max(factors):.3f} per pass (probe median {PROBE_REFERENCE_S * 1e3:g} ms"
          f" / measured)")
    print(f"# setup_s samples, raw: {', '.join(f'{r:.4f}' for r, _ in setup_samples)}")
    for name, value in e2e.items():
        print(f"{name:<28} {value:>14.6g} {END_TO_END_UNITS[name]:<6} (n={samples[name]})")
    for name, (value, unit, how) in named.items():
        print(f"{wl.name}.{name:<{27 - len(wl.name)}} {value:>14.6g} {unit:<6} ({how})")
    ratio = checks.failed / checks.attempted
    print(f"{'failed_ratio':<28} {ratio:>14.6g} {'ratio':<6} ({checks.failed} of "
          f"{checks.attempted} checks failed; {checks.known} put down to known defects)")
    for note in checks.notes:
        print(f"#   failed: {note}")

    record = {"metadata": meta, "end_to_end": e2e, "named": {k: v[0] for k, v in named.items()},
              "passes": [{"traced": p.traced, "wall_s": p.wall, "probe_s": p.probes,
                          "op_s": [[op.label, s, scale] for op, s, scale in p.ops]}
                         for p in passes],
              "setup_s": setup_samples,
              "checks": {"attempted": checks.attempted, "failed": checks.failed,
                         "known_class": checks.known, "failed_ratio": ratio,
                         "notes": checks.notes}}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        layers, closure, n_traced = per_layer(wl, passes, tracer, traced_ops)
        print(f"# traced passes: {n_traced}; self time share per operation kind:")
        for line in closure_lines(closure):
            print("#" + line)
        if tracer.missing:
            print(f"# missing wrapped names: {', '.join(tracer.missing)}")
        for name, value in layers.items():
            print(f"{name:<36} {value:>14.6g} {PER_LAYER_UNITS[name]}")
        record["per_layer"] = layers
        record["missing"] = tracer.missing
        tracer.save(OUT / f"spans-{args.workload}.npz")  # latest traced run only
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()
                   if k not in REPORT_ONLY}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, then one table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        print()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<10} {'metric':<36} {'value':>14} unit")
    for name, res in results.items():
        for metric, v in res["metrics"].items():
            print(f"{name:<10} {metric:<36} {v['value']:>14.6g} {v['unit']}")
        print(f"{name:<10} {'checks failed/attempted':<36} "
              f"{res['failed']:>6}/{res['attempted']:<7} correct={res['correct']}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()

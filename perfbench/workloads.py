"""The three workloads: seeded inputs, timed passes and output checks.

A workload is a fixed list of operations (one *pass*) run back to back by a
single client, each call waiting for the previous one (a closed loop).
Every operation is timed on its own; the pass time is the wall time of the
whole list.  The seed fixes the inputs and the order of the operations.

Only a narrow public surface is used, so that the program can change
underneath: ``cli.main`` and ``cli.read_data_file``, ``concurrence_values``,
``sweep`` (reading ``.axis_values`` and ``.concurrences()``), the three
searches (reading ``.location``, ``.bracket``, ``.iterations`` and, for the
gap search, ``.value``), ``DetectorPairConfig`` to give ``sweep`` its
fixed scenario, and the exception classes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np
from scipy.special import wofz

COUPLING = 0.1

# The admitted gap-difference limit when the benchmark was written.  Fixed
# here so that the inputs do not move if the program re-derives its guard.
MAX_DELTA = 35.0
MAX_GAP = 40.0
MIN_SEPARATION = 0.05

FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5")
FIGURE_POINTS = 400
CROSSOVER_GAPS = (0.2, 0.5, 1.0, 1.2)
CROSSOVER_RATIOS = (0.2, 0.5, 1.0, 1.2)

# explore sizes: per pass, BATCHES batches of BATCH_SIZE scenarios, one sweep
# along each axis for each of SWEEP_SETS fixed scenarios, and
# SEARCHES_PER_KIND problems of each search
BATCH_SIZE = 10_000
BATCHES = 32
SWEEP_SETS = 8
SWEEP_POINTS = 300
SEARCHES_PER_KIND = 40
# concurrence_values points per batch compared with the 50-digit reference
EVAL_SAMPLE = 8
SWEEP_AXES = ("omega_a_sigma", "delta_omega_sigma", "l_over_sigma")

FIGURE_RTOL = 1e-9


class Op:
    """One operation of a pass: a kind, a label that identifies it across
    passes, and the call that runs it."""

    __slots__ = ("kind", "label", "call")

    def __init__(self, kind, label, call):
        self.kind = kind
        self.label = label
        self.call = call


class Checks:
    """Tally of output checks.  ``known`` counts failures that a known
    defect of the program explains (see ``reference.SUBNORMAL`` and
    ``reference.NARROW_PEAK``); every other failure marks the run
    incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.notes = []

    def record(self, ok, label, known=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.known += bool(known)
            if not known or len(self.notes) < 50:
                self.notes.append(("known " if known else "") + label)

    @property
    def correct(self):
        return self.failed == self.known


def stratified(rng, n, lo, hi):
    """n uniform draws on [lo, hi], one per equal-width stratum, shuffled;
    different seeds then still cover the range evenly."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def separation_span(a, d):
    """Upper end of the separations explored: twice the large-gap estimate
    2 sqrt(a (a + d)) of the harvesting range, and at least 4 so that small
    gaps (whose range is set by the switching time) still span theirs."""
    return np.maximum(4.0 * np.sqrt(a * (a + d)), 4.0)


def _call(fn, *args):
    """Run fn, returning its result or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every outcome, raised or returned, is checked
        # drop the traceback: its frames would keep the call's arrays alive
        return exc.with_traceback(None)


class Raised:
    """Output of an operation that raised where it should have returned."""

    def __init__(self, exc):
        self.exc = exc


def _quiet(main, argv):
    """cli.main with stdout and stderr captured; (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


class Workload:
    """Base: subclasses build ``ops`` and check the outputs they keep."""

    name = ""

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.outputs = {}  # label -> first output
        self.mismatch = set()  # labels whose output changed between passes
        self.bytes_written = 0

    def keep(self, label, output, same):
        first = self.outputs.setdefault(label, output)
        if first is not output and not same(first, output):
            self.mismatch.add(label)

    def collect_output(self, op, output):
        """Keep what a check needs from one output; runs after the timing."""
        if isinstance(output, Raised):
            self.outputs.setdefault(op.label, output)
            self.mismatch.add(op.label)
        else:
            self.collect(op, output)

    def broken(self, checks, label):
        """Record a failed check for an operation that raised or whose
        output changed between passes; True if it did."""
        if label not in self.mismatch:
            return False
        out = self.outputs[label]
        why = repr(out.exc) if isinstance(out, Raised) else "output changed between passes"
        checks.record(False, f"{label}: {why}")
        return True

    def pass_ops(self, rng):
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def request_kinds(self):
        """Kinds of operation whose latencies give op_p50_ms / op_p90_ms."""
        return {op.kind for op in self.ops}


# ---------------------------------------------------------------------------
# survey


class Survey(Workload):
    """The seven survey figures at 400 points and the 4 x 4 crossover grid,
    each through in-process ``cli.main``."""

    name = "survey"

    def __init__(self, seed, pkg, workdir):
        super().__init__(pkg, workdir)
        self.ops = [Op("figure", f, self._figure(f)) for f in FIGURES]
        for a in CROSSOVER_GAPS:
            for r in CROSSOVER_RATIOS:
                argv = ["crossover", "--omega-a", repr(a), "--delta-omega", repr(a * r),
                        "--format", "record"]
                self.ops.append(Op("crossover", f"crossover {a} {r}", self._crossover(argv)))

    def _figure(self, name, points=FIGURE_POINTS):
        path = os.path.join(self.workdir, f"{name}.csv")
        argv = ["figure", name, "--points", str(points), "--out", path]

        return lambda: (_quiet(self.pkg.cli.main, argv)[0], path)

    def _crossover(self, argv):
        return lambda: _quiet(self.pkg.cli.main, argv)

    def warm_up(self):
        for f in FIGURES:
            self._figure(f, points=16)()
        self.ops[-1].call()

    def collect(self, op, output):
        """Reduce a raw output to what is compared; runs after the timing."""
        rc, payload = output
        if op.kind == "figure":
            self.bytes_written += os.path.getsize(payload)
            _, columns, data = self.pkg.cli.read_data_file(payload)
            value = (rc, columns, data)
            same = lambda x, y: x[0] == y[0] and x[1] == y[1] and _same_array(x[2], y[2])
        else:
            self.bytes_written += len(payload)
            loc = json.loads(payload)["result"]["location"] if rc == 0 else None
            value = (rc, loc)
            same = lambda x, y: x == y
        self.keep(op.label, value, same)

    def check(self, checks, reference_data):
        for label, value in self.outputs.items():
            if self.broken(checks, label):
                continue
            if label in FIGURES:
                rc, columns, data = value
                ref = reference_data["figures"][label]
                want = np.array(ref["data"], dtype=float)
                ok = rc == 0 and columns == ref["columns"] and _close(data, want)
            else:
                rc, loc = value
                want = reference_data["crossovers"][label]
                ok = rc == 0 and loc is not None and _close(np.array([loc]), np.array([want]))
            checks.record(ok, label)


def _same_array(x, y):
    return x.shape == y.shape and np.array_equal(x, y, equal_nan=True)


def _close(data, want):
    """Within FIGURE_RTOL relative, with NaN in the same places."""
    if data.shape != want.shape:
        return False
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(data), nan):
        return False
    return bool(np.all(np.abs(data[~nan] - want[~nan]) <= FIGURE_RTOL * np.abs(want[~nan])))


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    """Closed forms against the quadrature oracles on the full 27-scenario
    grid, as ``udwharvest verify --format record``."""

    name = "certify"

    def __init__(self, seed, pkg, workdir):
        super().__init__(pkg, workdir)
        self.ops = [Op("verify", "verify", self._verify(["verify", "--format", "record"]))]

    def _verify(self, argv):
        return lambda: _quiet(self.pkg.cli.main, argv)

    def warm_up(self):
        self._verify(["verify", "--grid", "1", "--format", "record"])()

    def collect(self, op, output):
        rc, text = output
        self.bytes_written += len(text)
        try:
            record = json.loads(text)
            value = (rc, [(c["name"], c["scenario"], c["passed"]) for c in record["checks"]])
        except (ValueError, KeyError, TypeError):
            value = (rc, None)
        self.keep(op.label, value, lambda x, y: x == y)

    def check(self, checks, reference_data):
        if self.broken(checks, "verify"):
            return
        rc, rows = self.outputs["verify"]
        checks.record(rc == 0, "verify exit code")
        if rows is None:
            checks.record(False, "verify record unreadable")
        for name, scenario, passed in rows or []:
            checks.record(bool(passed), f"verify {name} {scenario}")


# ---------------------------------------------------------------------------
# explore


class Explore(Workload):
    """Seeded scenarios across the admitted domain: a in [0, 40], d in
    [0, 35], l from 0.05 to ``separation_span(a, d)``.  A pass is
    fixed-size ``concurrence_values`` batches, one ``sweep`` per axis for
    several fixed scenarios, and a mix of the three searches."""

    name = "explore"

    def __init__(self, seed, pkg, workdir):
        super().__init__(pkg, workdir)
        rng = np.random.default_rng(seed)
        self.batches = []
        for _ in range(BATCHES):
            a = stratified(rng, BATCH_SIZE, 0.0, MAX_GAP)
            d = stratified(rng, BATCH_SIZE, 0.0, MAX_DELTA)
            u = stratified(rng, BATCH_SIZE, 0.0, 1.0)
            l = MIN_SEPARATION + u * (separation_span(a, d) - MIN_SEPARATION)
            self.batches.append((a, d, l))
        self.sweeps = []
        fixed = zip(stratified(rng, SWEEP_SETS, 0.0, MAX_GAP),
                    stratified(rng, SWEEP_SETS, 0.0, MAX_DELTA),
                    stratified(rng, SWEEP_SETS, 0.0, 1.0))
        for a, d, u in fixed:
            l = MIN_SEPARATION + u * (float(separation_span(a, d)) - MIN_SEPARATION)
            self.sweeps += [
                ("l_over_sigma", np.linspace(MIN_SEPARATION, float(separation_span(a, d)),
                                             SWEEP_POINTS), (a, d, l)),
                ("delta_omega_sigma", np.linspace(0.0, MAX_DELTA, SWEEP_POINTS), (a, d, l)),
                ("omega_a_sigma", np.linspace(0.0, MAX_GAP, SWEEP_POINTS), (a, d, l)),
            ]
        n = SEARCHES_PER_KIND
        a = stratified(rng, n, 0.0, MAX_GAP)
        d = stratified(rng, n, 0.0, MAX_DELTA)
        self.searches = [("find_lmax", float(x), float(y)) for x, y in zip(a, d)]
        a = stratified(rng, n, 0.0, MAX_GAP)
        u = stratified(rng, n, 0.0, 1.0)
        l = MIN_SEPARATION + u * (separation_span(a, 0.0) - MIN_SEPARATION)
        self.searches += [("find_optimal_gap", float(x), float(y)) for x, y in zip(a, l)]
        a = stratified(rng, n, 0.0, MAX_GAP)
        d = MAX_DELTA - stratified(rng, n, 0.0, MAX_DELTA)  # in (0, 35]
        self.searches += [("find_crossover", float(x), float(y)) for x, y in zip(a, d)]
        sample = np.random.default_rng([seed, 1])
        self.eval_sample = [sample.choice(BATCH_SIZE, EVAL_SAMPLE, replace=False)
                            for _ in range(BATCHES)]

        self.ops = [Op("batch", f"batch {i}", self._batch(*b)) for i, b in enumerate(self.batches)]
        self.ops += [Op("sweep", f"sweep {i}", self._sweep(*s)) for i, s in enumerate(self.sweeps)]
        self.ops += [Op("search", f"search {i}", self._search(*s))
                     for i, s in enumerate(self.searches)]

    def inputs(self):
        """Every generated input, for the same-seed self-test."""
        return self.batches, self.sweeps, self.searches, self.eval_sample

    # functions are looked up at call time, so that traced passes see the
    # tracer's wrappers

    def _batch(self, a, d, l):
        closedform = self.pkg.closedform
        return lambda: closedform.concurrence_values(a, d, l, COUPLING)

    def _sweep(self, axis, values, fixed):
        analysis = self.pkg.analysis
        cfg = self.pkg.closedform.DetectorPairConfig(*fixed, COUPLING)
        return lambda: analysis.sweep(axis, values, cfg)

    def _search(self, kind, x, y):
        analysis = self.pkg.analysis
        return lambda: _call(getattr(analysis, kind), x, y)

    def warm_up(self):
        a, d, l = (v[:100] for v in self.batches[0])
        self._batch(a, d, l)()
        for axis, values, fixed in self.sweeps[:3]:
            self._sweep(axis, values[:10], fixed)()
        for s in (0, SEARCHES_PER_KIND, 2 * SEARCHES_PER_KIND):
            self._search(*self.searches[s])()

    def request_kinds(self):
        return {"search"}

    def collect(self, op, output):
        if op.kind == "batch":
            self.keep(op.label, output, _same_array)
        elif op.kind == "sweep":
            value = (np.asarray(output.axis_values), np.asarray(output.concurrences()))
            self.keep(op.label, value, lambda x, y: _same_array(x[0], y[0]) and
                      _same_array(x[1], y[1]))
        else:
            self.keep(op.label, output, _same_outcome)

    def check(self, checks, reference):
        exc = {name: getattr(self.pkg.analysis, name)
               for name in ("BracketingFailure", "NoHarvestingRegion", "NoCrossover")}
        concurrence_values = self.pkg.closedform.concurrence_values
        for i, (a, d, l) in enumerate(self.batches):
            if self.broken(checks, f"batch {i}"):
                continue
            out = self.outputs[f"batch {i}"]
            for k in self.eval_sample[i]:
                x, y, z = float(a[k]), float(d[k]), float(l[k])
                ok, known = _certify(reference.value_ok, x, y, z, float(out[k]))
                checks.record(ok, f"concurrence_values({x!r}, {y!r}, {z!r})", known)
        for i, (axis, values, (a, d, l)) in enumerate(self.sweeps):
            if self.broken(checks, f"sweep {i}"):
                continue
            got_axis, got = self.outputs[f"sweep {i}"]
            points = np.empty((values.size, 3))
            points[:] = (a, d, l)
            points[:, SWEEP_AXES.index(axis)] = values
            want = np.array([concurrence_values(*p, COUPLING) for p in points.tolist()])
            ok = _same_array(got_axis, values) and _same_array(got, want)
            checks.record(ok, f"sweep {axis} at {tuple(map(float, (a, d, l)))!r}")
        for i, (kind, x, y) in enumerate(self.searches):
            if self.broken(checks, f"search {i}"):
                continue
            out = self.outputs[f"search {i}"]
            if kind == "find_lmax":
                ok, known = _certify(reference.lmax_ok, x, y, out, exc)
            elif kind == "find_optimal_gap":
                ok, known = _certify(reference.optimal_gap_ok, x, y, max(4.0, y), out)
            else:
                bound = max(10.0, 4.0 * math.sqrt(x * (x + y)))
                ok, known = _certify(reference.crossover_ok, x, y, bound, out, exc)
            checks.record(ok, f"{kind}({x!r}, {y!r}) -> {_describe(out)}", known)


def _certify(certificate, *args):
    """(ok, known): whether the output passes the certificate against the
    exact reference and, if it does not, whether a known defect of the
    program explains the failure."""
    ok = certificate(*args)
    return ok, not ok and certificate(*args, known=True)


def _same_outcome(x, y):
    if isinstance(x, BaseException) or isinstance(y, BaseException):
        return type(x) is type(y) and str(x) == str(y)
    return (x.location, tuple(x.bracket), x.iterations) == (
        y.location, tuple(y.bracket), y.iterations)


def _describe(outcome):
    if isinstance(outcome, BaseException):
        return type(outcome).__name__
    return f"location {outcome.location!r}"


WORKLOADS = {w.name: w for w in (Survey, Certify, Explore)}


# Speed probes: three at the start and three at the end of every pass, and
# one before an operation when this long (seconds) has passed since the last
# probe, so that every long operation has a probe on either side.
PROBE_INTERVAL = 0.1
EDGE_PROBES = 3

_PROBE_X = np.linspace(-3.0, 3.0, 2048)
_PROBE_Z = np.linspace(-4.0, 4.0, 256) + 1j * np.linspace(0.1, 4.0, 256)


def speed_probe(clock=time.perf_counter):
    """Seconds taken by a fixed mix of interpreter, numpy and Faddeeva work
    (about 2 ms), independent of the program.  One untimed round first
    brings its code and data into the caches, so the timed rounds do not
    depend on what ran before.  Its median over a pass tracks how fast the
    machine was running during that pass."""
    s = 0.0
    for rounds in (1, 24):
        t0 = clock()
        for _ in range(rounds):
            s += float(np.exp(-_PROBE_X * _PROBE_X).sum())
            s += float(np.abs(wofz(_PROBE_Z)).sum())
            for v in range(100):
                s += math.exp(-0.01 * v)
    return clock() - t0


def run_pass(ops, on_op=None, clock=time.perf_counter):
    """Run one pass; returns (wall seconds without the probes,
    [(op, seconds, output, k)], [probe seconds]) where the operation ran
    between probes k - 1 and k."""
    done, probes = [], []
    probing = 0.0

    def probe():
        nonlocal probing
        s = clock()
        probes.append(speed_probe(clock))
        probing += clock() - s

    t0 = clock()
    for _ in range(EDGE_PROBES):
        probe()
    last = clock()
    for op in ops:
        if clock() - last >= PROBE_INTERVAL:
            probe()
            last = clock()
        if on_op:
            on_op(op)
        s = clock()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation fails its check
            out = Raised(exc.with_traceback(None))
        done.append((op, clock() - s, out, len(probes)))
    for _ in range(EDGE_PROBES):
        probe()
    return clock() - t0 - probing, done, probes

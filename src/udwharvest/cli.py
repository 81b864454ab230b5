"""Command-line front end.

Subcommands::

    eval        closed-form report for one scenario
    verify      closed forms against the integral oracles on a fixed grid
    sweep       closed-form pipeline along one scenario axis
    lmax        largest harvesting-achievable separation
    peak        concurrence-maximizing gap difference
    crossover   separation where non-identical detectors overtake identical
    figure      regenerate the data behind the survey figures

All numeric inputs are dimensionless (rescaled by the switching duration).
Data outputs are comment-headed delimited text: a ``#`` metadata block
(tool version, parameters, settings hash, timestamp) followed by
comma-separated columns printed at full round-trip precision.  ``--format
record`` emits the same content as JSON.  Identical invocations produce
byte-identical data sections; only the manifest timestamp may differ.

Each subcommand takes only the flags and formats it honours, the first
format named being the default: ``eval`` table/csv/record; ``verify``,
``lmax``, ``peak``, ``crossover`` table/record; ``sweep``, ``figure``
csv/record.  The oracle flags ``--quad-nodes`` and ``--eps-schedule``
belong to ``verify``, whose checks each keep their own tolerance,
``figure`` takes no ``--lambda``, and ``sweep`` no flag for its swept axis.
No parser takes a prefix of a flag for the flag.  A coupling above
``COUPLING_WARN_THRESHOLD`` raises the weak-coupling warning on every
command that takes ``--lambda``: through the :class:`DetectorPairConfig`
that ``eval``, ``sweep`` and ``verify`` build, and from :func:`main` for
the searches.

Exit codes, mapped from the subcommands' exceptions by :func:`main` alone:
0 success, 1 verification failure or non-convergent oracle, 2 bad flags or
a flag or format the subcommand does not take, 3 domain errors, 4 no
harvesting region, 5 no crossover.  The parser is built once, on the first
:func:`main` call; each call runs ``cmd_<command>`` looked up by name, so
rebinding one takes effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closedform import DetectorPairConfig, _sqrt_product, _warn_strong_coupling, concurrence, \
    concurrence_values, correlation_x_values, geometric_mean_probability, transition_probability
from .oracle import (
    DEFAULT_SETTINGS,
    NonConvergence,
    OracleSettings,
    pd_double_integral,
    x_double_integral,
    x_single_integral_pv,
)
from .analysis import (
    NoCrossover,
    NoHarvestingRegion,
    find_crossover,
    find_lmax,
    find_lmax_many,
    find_optimal_gap,
    find_optimal_gap_many,
    sweep,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_DOMAIN = 3
EXIT_NO_HARVEST = 4
EXIT_NO_CROSSOVER = 5

# closed-form vs oracle comparison grid: smaller gap x gap ratio x separation,
# with one benign scenario first so truncated runs stay cheap and meaningful
_GRID_AXES = ((0.2, 0.5, 1.2), (0.0, 0.5, 1.2), (0.5, 2.0, 6.0))
VERIFICATION_GRID = [(0.5, 0.5, 2.0)] + [
    (a, r, l)
    for a in _GRID_AXES[0]
    for r in _GRID_AXES[1]
    for l in _GRID_AXES[2]
    if (a, r, l) != (0.5, 0.5, 2.0)
]


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every output."""

    command: str
    parameters: dict
    tool_version: str
    timestamp: str
    settings_hash: str

    @classmethod
    def create(cls, command: str, parameters: dict):
        canon = json.dumps(parameters, sort_keys=True, default=str)
        digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
        return cls(
            command=command,
            parameters=parameters,
            tool_version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            settings_hash=digest,
        )

    def header_lines(self):
        lines = [
            f"# tool: udwharvest {self.tool_version}",
            f"# command: {self.command}",
            f"# timestamp: {self.timestamp}",
            f"# settings_hash: {self.settings_hash}",
        ]
        for key in sorted(self.parameters):
            lines.append(f"# {key}: {_fmt(self.parameters[key])}")
        return lines


def _fmt(v):
    """Full-precision, round-trippable rendering of numbers."""
    if isinstance(v, float):
        return repr(float(v))  # shortest exact repr, numpy scalars included
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _write(out_path, text):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_record(manifest, payload, out_path):
    record = {"manifest": dataclasses.asdict(manifest), **payload}
    _write(out_path, json.dumps(record, indent=2) + "\n")


def emit_table(manifest, fields, out_path):
    lines = manifest.header_lines()
    width = max(len(k) for k in fields)
    lines += [f"{k:<{width}}  {_fmt(v)}" for k, v in fields.items()]
    _write(out_path, "\n".join(lines) + "\n")


def emit_csv(manifest, notes, columns, arrays, out_path):
    lines = manifest.header_lines()
    lines += [f"# {n}" for n in notes]
    lines.append("# columns: " + ",".join(columns))
    # repr of a Python float is _fmt's rendering, without a numpy scalar per value
    values = [np.asarray(a, dtype=float).tolist() for a in arrays]
    lines += [",".join(map(repr, row)) for row in zip(*values)]
    _write(out_path, "\n".join(lines) + "\n")


def read_data_file(path):
    """Parse a data file emitted by this tool.

    Returns (metadata dict, column names, data array of shape
    (rows, columns)).  Values round-trip bitwise with what was written.
    """
    meta, columns, rows = {}, [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    if key.strip() == "columns":
                        columns = [c.strip() for c in value.split(",")]
                    else:
                        meta[key.strip()] = value.strip()
                continue
            rows.append([float(tok) for tok in line.split(",")])
    return meta, columns, np.array(rows) if rows else np.empty((0, len(columns)))


def _single_record(args, manifest, fields):
    if args.format == "record":
        emit_record(manifest, {"result": {k: v for k, v in fields.items()}}, args.out)
    elif args.format == "csv":
        emit_csv(manifest, [], list(fields), [[v] for v in fields.values()], args.out)
    else:
        emit_table(manifest, fields, args.out)


def _emit_grid(args, manifest, notes, columns, arrays):
    if args.format == "record":
        emit_record(
            manifest,
            {"columns": columns, "data": [list(map(float, a)) for a in arrays], "notes": notes},
            args.out,
        )
    else:
        emit_csv(manifest, notes, columns, arrays, args.out)


def _config_from_args(parser, args) -> DetectorPairConfig:
    if args.omega_b is not None and args.delta_omega is not None:
        parser.error("give either --delta-omega or --omega-b, not both")
    if args.omega_b is not None:
        if args.omega_b < args.omega_a:
            parser.error("--omega-b must be >= --omega-a (A carries the smaller gap)")
        delta = args.omega_b - args.omega_a
    elif args.delta_omega is not None:
        delta = args.delta_omega
    else:
        parser.error("one of --delta-omega or --omega-b is required")
    return DetectorPairConfig(args.omega_a, delta, args.l, args.coupling)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(parser, args):
    cfg = _config_from_args(parser, args)
    report = concurrence(cfg)
    manifest = RunManifest.create("eval", dataclasses.asdict(cfg))
    fields = {
        "p_a": report.p_a,
        "p_b": report.p_b,
        "re_x": report.x.real,
        "im_x": report.x.imag,
        "abs_x": report.x_abs,
        "sqrt_pa_pb": report.geometric_mean,
        "concurrence": report.concurrence,
        "concurrence_over_lambda2": report.concurrence / cfg.coupling**2,
    }
    _single_record(args, manifest, fields)
    return EXIT_OK


@dataclasses.dataclass
class VerificationCheck:
    name: str
    scenario: str
    relative_error: float
    tolerance: float
    passed: bool


# relative tolerance of each verification check
_CHECK_TOLERANCES = {
    "x_pv_vs_closed": 1e-8,
    "x_double_vs_closed": 1e-3,
    "concurrence_oracle_vs_closed": 1e-4,
    "p_double_vs_closed": 1e-4,
    "p_zero_gap_anchor": 1e-4,
}


def run_verification(
    settings: OracleSettings = DEFAULT_SETTINGS,
    grid_size: int | None = None,
    coupling: float = 0.1,
) -> list[VerificationCheck]:
    """Closed forms against the oracles on the comparison grid.

    Checks, per scenario: the principal-value correlation route, the
    time-ordered double-integral correlation route, and the concurrence
    built from oracle values alone (the principal-value correlation and
    the double-integral probabilities).  Transition probabilities are
    checked once per distinct gap appearing on the grid, plus the zero-gap
    anchor value 1/(4 pi).  Each check has its own relative tolerance.
    """
    checks = []

    def check(name, scenario, rel):
        tol = _CHECK_TOLERANCES[name]
        rel = float(rel)
        checks.append(VerificationCheck(name, scenario, rel, tol, bool(rel <= tol)))

    grid = VERIFICATION_GRID[: grid_size if grid_size is not None else None]
    cfgs = [DetectorPairConfig(a, a * r, l, coupling) for a, r, l in grid]
    omega_a, delta, omega_b, sep = (
        np.array([getattr(cfg, name) for cfg in cfgs], dtype=float)
        for name in ("omega_a_sigma", "delta_omega_sigma", "omega_b_sigma", "l_over_sigma")
    )
    x_closed = correlation_x_values(omega_a, delta, sep, coupling)
    c_closed = concurrence_values(omega_a, delta, sep, coupling)
    x_dbls = x_double_integral(omega_a, omega_b, sep, coupling, settings)
    x_pvs = x_single_integral_pv(omega_a, omega_b, sep, coupling, settings)
    gaps = sorted({0.0, *omega_a.tolist(), *omega_b.tolist()})
    # the zero-gap anchor at unit coupling rides along as the last row
    p_oracle = pd_double_integral(gaps + [0.0], [coupling] * len(gaps) + [1.0], settings)
    p_by_gap = dict(zip(gaps, p_oracle.tolist()))
    for (a, r, l), cfg, x, c, x_dbl, x_pv in zip(grid, cfgs, x_closed, c_closed, x_dbls, x_pvs):
        tag = f"a={a} dw/wa={r} l={l}"
        check("x_pv_vs_closed", tag, abs(x_pv - x) / abs(x))
        check("x_double_vs_closed", tag, abs(x_dbl - x) / abs(x))
        gm = np.sqrt(p_by_gap[cfg.omega_a_sigma] * p_by_gap[cfg.omega_b_sigma])
        conc = 2.0 * max(0.0, abs(x_pv) - gm)
        check("concurrence_oracle_vs_closed", tag, abs(conc - c) / max(c, coupling**2 * 1e-3))

    for gap, p in p_by_gap.items():
        p_exact = transition_probability(gap, coupling)
        check("p_double_vs_closed", f"gap={gap:g}", abs(p - p_exact) / p_exact)
    check("p_zero_gap_anchor", "gap=0 coupling=1",
          abs(p_oracle[-1] - 1.0 / (4.0 * np.pi)) * 4.0 * np.pi)
    return checks


def cmd_verify(parser, args):
    if args.grid is not None and not 0 <= args.grid <= len(VERIFICATION_GRID):
        parser.error(f"verify --grid must be between 0 and {len(VERIFICATION_GRID)}, "
                     f"got {args.grid}")
    kwargs = {}
    if args.quad_nodes is not None:
        kwargs["quadrature_nodes"] = args.quad_nodes
    if args.eps_schedule is not None:
        kwargs["epsilon_schedule"] = tuple(args.eps_schedule)
    settings = OracleSettings(**kwargs) if kwargs else DEFAULT_SETTINGS
    checks = run_verification(settings, grid_size=args.grid, coupling=args.coupling)
    manifest = RunManifest.create(
        "verify",
        {
            "grid_size": args.grid if args.grid is not None else len(VERIFICATION_GRID),
            "coupling": args.coupling,
            "quadrature_nodes": settings.quadrature_nodes,
            "epsilon_schedule": list(settings.epsilon_schedule),
        },
    )
    n_bad = sum(not c.passed for c in checks)
    if args.format == "record":
        emit_record(
            manifest,
            {"checks": [dataclasses.asdict(c) for c in checks], "failures": n_bad},
            args.out,
        )
    else:
        lines = manifest.header_lines()
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name:<28} {c.scenario:<28} rel={c.relative_error:.3e}"
                f"  tol={c.tolerance:.1e}"
            )
        lines.append(
            f"{'all checks passed' if n_bad == 0 else f'{n_bad} of {len(checks)} checks FAILED'}"
        )
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if n_bad == 0 else EXIT_FAILED


_AXIS_FLAGS = {"l": "l_over_sigma", "delta-omega": "delta_omega_sigma", "omega-a": "omega_a_sigma"}


def cmd_sweep(parser, args):
    if getattr(args, args.axis.replace("-", "_")) is not None:
        parser.error(f"sweep --axis {args.axis} takes no --{args.axis}; give --start and --stop")
    axis = _AXIS_FLAGS[args.axis]
    fixed = {
        "omega_a_sigma": args.omega_a,
        "delta_omega_sigma": args.delta_omega if args.delta_omega is not None else 0.0,
        "l_over_sigma": args.l,
        "coupling": args.coupling,
    }
    # the swept field is replaced per point, so any admitted value holds
    # its place; the points themselves are checked one by one
    fixed[axis] = 1.0
    if fixed["l_over_sigma"] is None:
        parser.error("--l is required unless the sweep runs along l")
    if fixed["omega_a_sigma"] is None:
        parser.error("--omega-a is required")
    if args.points < 0:
        parser.error(f"sweep --points must be >= 0, got {args.points}")
    base = DetectorPairConfig(**fixed)
    grid = sweep(axis, np.linspace(args.start, args.stop, args.points), base)
    manifest = RunManifest.create(
        "sweep",
        {
            "axis": axis,
            "start": args.start,
            "stop": args.stop,
            "points": args.points,
            **{k: v for k, v in fixed.items() if k != axis},
        },
    )
    conc = grid.concurrence
    columns = [axis, "concurrence", "concurrence_over_lambda2", "abs_x", "sqrt_pa_pb"]
    arrays = [
        grid.axis_values,
        conc,
        conc / args.coupling**2,
        np.abs(grid.x),
        _sqrt_product(grid.p_a, grid.p_b),
    ]
    notes = [f"point_error[{i}]: {e}" for i, e in enumerate(grid.errors) if e]
    _emit_grid(args, manifest, notes, columns, arrays)
    return EXIT_OK


def _search_fields(result):
    return {
        "location": result.location,
        "value": result.value,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "iterations": result.iterations,
        "note": result.note or "-",
    }


def _separation_manifest(args):
    """Manifest of ``lmax`` and ``crossover``, which take the same flags."""
    return RunManifest.create(
        args.command,
        {
            "omega_a_sigma": args.omega_a,
            "delta_omega_sigma": args.delta_omega,
            "coupling": args.coupling,
            "scan_step": args.scan_step,
        },
    )


def cmd_lmax(parser, args):
    manifest = _separation_manifest(args)
    result = find_lmax(args.omega_a, args.delta_omega, args.coupling, scan_step=args.scan_step)
    _single_record(args, manifest, _search_fields(result))
    return EXIT_OK


def cmd_peak(parser, args):
    manifest = RunManifest.create(
        "peak",
        {
            "omega_a_sigma": args.omega_a,
            "l_over_sigma": args.l,
            "coupling": args.coupling,
            "gap_bound": args.gap_bound,
        },
    )
    result = find_optimal_gap(args.omega_a, args.l, args.coupling, gap_bound=args.gap_bound)
    _single_record(args, manifest, _search_fields(result))
    return EXIT_OK


def cmd_crossover(parser, args):
    manifest = _separation_manifest(args)
    result = find_crossover(args.omega_a, args.delta_omega, args.coupling,
                            scan_step=args.scan_step)
    _single_record(args, manifest, _search_fields(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures

_FIG1_RATIOS = (0.0, 0.2, 0.5, 1.0, 1.2)
_FIG45_GAPS = (0.2, 0.5, 1.0, 1.2)


def _fig_separation(omega_a, l_hi, points):
    ls = np.linspace(0.25, l_hi, points)
    columns = ["l_over_sigma"]
    arrays = [ls]
    for r in _FIG1_RATIOS:
        columns.append(f"conc_ratio_{r:g}")
        arrays.append(concurrence_values(omega_a, omega_a * r, ls, 1.0))
    notes = [f"curves: concurrence/coupling^2 vs separation at dw/wa in {list(_FIG1_RATIOS)}"]
    return {"omega_a_sigma": omega_a, "l_max_emitted": l_hi}, notes, columns, arrays


def _fig_gap_sweep(omega_a, l_set, points):
    ratios = np.linspace(0.0, 3.0, points)
    columns = ["dw_over_wa"]
    arrays = [ratios]
    notes = ["curves: concurrence/coupling^2 vs gap ratio; peak markers below"]
    peaks = find_optimal_gap_many(omega_a, np.array(l_set), 1.0, gap_bound=3.0 * omega_a)
    for l, location, value in zip(l_set, peaks.location, peaks.value):
        columns.append(f"conc_l_{l:g}")
        arrays.append(concurrence_values(omega_a, omega_a * ratios, l, 1.0))
        if location == 0.0:
            notes.append(f"peak[l={l:g}]: boundary maximum at dw=0")
        else:
            notes.append(
                f"peak[l={l:g}]: dw_over_wa={_fmt(location / omega_a)} conc={_fmt(value)}"
            )
    return {"omega_a_sigma": omega_a, "l_set": list(l_set)}, notes, columns, arrays


def _fig_anatomy(points):
    omega_a, l = 0.5, 2.0
    ratios = np.linspace(0.0, 3.0, points)
    d = omega_a * ratios
    absx = np.abs(correlation_x_values(omega_a, d, l, 1.0))
    gm = geometric_mean_probability(omega_a, d, 1.0)
    peak = find_optimal_gap(omega_a, l, 1.0, gap_bound=3.0 * omega_a)
    notes = [
        "columns are per coupling^2; the excess peaks where the concurrence peaks",
        f"peak: dw_over_wa={_fmt(peak.location / omega_a)}",
    ]
    return (
        {"omega_a_sigma": omega_a, "l_over_sigma": l},
        notes,
        ["dw_over_wa", "abs_x", "sqrt_pa_pb", "excess"],
        [ratios, absx, gm, absx - gm],
    )


def _fig_peak_location(points):
    # the upper end stays inside the primary peaking regime: beyond ~4.1
    # separations (at the largest gap shown) the connected harvesting window
    # in the gap difference closes and only oscillation-revived fragments
    # remain, where the maximizer is no longer a single drifting peak
    ls = np.linspace(0.5, 4.1, points)
    columns = ["l_over_sigma"]
    arrays = [ls]
    notes = ["optimal gap ratio per separation; 0 marks a boundary maximum"]
    gaps = np.array(_FIG45_GAPS)[:, None]
    locs = find_optimal_gap_many(gaps, ls, 1.0).location / gaps
    for a, row in zip(_FIG45_GAPS, locs):
        columns.append(f"dwp_over_wa_a_{a:g}")
        arrays.append(row)
    return {"omega_a_set": list(_FIG45_GAPS)}, notes, columns, arrays


def _fig_lmax(points):
    ratios = np.linspace(0.0, 3.0, points)
    columns = ["dw_over_wa"]
    arrays = [ratios]
    notes = []
    gaps = np.array(_FIG45_GAPS)[:, None]
    # rows where the search fails (NoHarvestingRegion, or ValueError where
    # the envelope certifies no separation) come back as NaN
    lmax = find_lmax_many(gaps, gaps * ratios, 1.0).location
    for a, vals in zip(_FIG45_GAPS, lmax):
        columns.append(f"lmax_a_{a:g}")
        arrays.append(vals)
        if points:
            notes.append(f"identical_reference[a={a:g}]: {_fmt(float(vals[0]))}")
    return {"omega_a_set": list(_FIG45_GAPS)}, notes, columns, arrays


_FIGURES = {
    "fig1a": lambda points: _fig_separation(0.5, 5.0, points),
    "fig1b": lambda points: _fig_separation(1.2, 6.0, points),
    "fig2a": lambda points: _fig_gap_sweep(0.5, (0.5, 1.0, 2.0, 3.0), points),
    "fig2b": lambda points: _fig_gap_sweep(1.2, (1.0, 2.0, 3.5, 4.0), points),
    "fig3": _fig_anatomy,
    "fig4": _fig_peak_location,
    "fig5": _fig_lmax,
}
FIGURE_NAMES = tuple(_FIGURES)


def build_figure(name: str, points: int = 400):
    """Data behind one survey figure: (params, notes, columns, arrays)."""
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}")
    return _FIGURES[name](points)


def cmd_figure(parser, args):
    if args.points < 0:
        parser.error(f"figure --points must be >= 0, got {args.points}")
    params, notes, columns, arrays = build_figure(args.name, args.points)
    manifest = RunManifest.create("figure " + args.name, {**params, "points": args.points})
    _emit_grid(args, manifest, notes, columns, arrays)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_format(parser, *formats):
    """The formats a subcommand writes, its default first."""
    parser.add_argument("--format", choices=formats, default=formats[0],
                        help=f"output format (default {formats[0]})")


@functools.cache
def _build_parser():
    # one parent parser for the options of every subcommand but figure:
    # argparse copies a parent's actions faster than it adds new ones, and
    # each extra parser costs more than the copies save
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--lambda", dest="coupling", type=float, default=0.1,
                        help="coupling constant (default 0.1)")

    parser = argparse.ArgumentParser(
        prog="udwharvest",
        allow_abbrev=False,
        description="Entanglement harvesting of two static detectors with unequal gaps "
        "(all inputs dimensionless, rescaled by the switching duration).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # no parser reads a prefix of a flag as the flag: "--l" is not "--lambda"
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("eval", parents=[common], help="closed-form report for one scenario")
    _add_format(p, "table", "csv", "record")
    p.add_argument("--omega-a", type=float, required=True, help="smaller gap times duration")
    p.add_argument("--delta-omega", type=float, default=None, help="gap difference times duration")
    p.add_argument("--omega-b", type=float, default=None, help="larger gap (alternative to --delta-omega)")
    p.add_argument("--l", type=float, required=True, help="separation over duration")

    p = add_parser("verify", parents=[common], help="closed forms vs integral oracles")
    _add_format(p, "table", "record")
    p.add_argument("--grid", type=int, default=None,
                   help=f"use only the first N of the {len(VERIFICATION_GRID)} grid scenarios")
    p.add_argument("--quad-nodes", type=int, default=None,
                   help="Gauss-Legendre nodes per panel of the oracles' inner and "
                        "principal-value axes (the outer order is certified)")
    p.add_argument("--eps-schedule", type=lambda s: [float(x) for x in s.split(",")],
                   help="regulator schedule, comma separated, decreasing; every value is used")

    p = add_parser("sweep", parents=[common], help="closed-form pipeline along one axis")
    _add_format(p, "csv", "record")
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--omega-a", type=float, default=None)
    p.add_argument("--delta-omega", type=float, default=None)
    p.add_argument("--l", type=float, default=None)

    p = add_parser("lmax", parents=[common], help="largest harvesting-achievable separation")
    _add_format(p, "table", "record")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)
    p.add_argument("--scan-step", type=float, default=0.01)

    p = add_parser("peak", parents=[common], help="concurrence-maximizing gap difference")
    _add_format(p, "table", "record")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--gap-bound", type=float, default=None,
                   help="search bound for the gap difference (default max(4, l))")

    p = add_parser("crossover", parents=[common],
                       help="separation where non-identical detectors overtake identical")
    _add_format(p, "table", "record")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)
    p.add_argument("--scan-step", type=float, default=0.01)

    p = add_parser("figure", help="regenerate survey-figure data")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    _add_format(p, "csv", "record")
    p.add_argument("--points", type=int, default=400, help="grid points per axis (default 400)")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("lmax", "peak", "crossover"):
        # the other commands warn through the DetectorPairConfig they build
        _warn_strong_coupling(args.coupling)
    try:
        return globals()[f"cmd_{args.command}"](parser, args)
    except NonConvergence as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except NoHarvestingRegion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HARVEST
    except NoCrossover as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CROSSOVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

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

Exit codes: 0 success, 1 verification failure or non-convergent oracle,
2 bad flags, 3 domain errors, 4 no harvesting region, 5 no crossover.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closedform import DetectorPairConfig, concurrence, concurrence_values, \
    correlation_x, correlation_x_values, geometric_mean_probability, \
    transition_probability
from .oracle import (
    DEFAULT_SETTINGS,
    NonConvergence,
    OracleSettings,
    assemble_rho,
    pd_double_integral,
    x_double_integral,
    x_single_integral_pv,
)
from .analysis import (
    BracketingFailure,
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
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_HARVEST = 4
EXIT_NO_CROSSOVER = 5

FIGURE_NAMES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5")

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

    def as_dict(self):
        return dataclasses.asdict(self)


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
    _write(out_path, json.dumps({"manifest": manifest.as_dict(), **payload}, indent=2) + "\n")


def emit_table(manifest, fields, out_path):
    lines = manifest.header_lines()
    width = max(len(k) for k in fields)
    lines += [f"{k:<{width}}  {_fmt(v)}" for k, v in fields.items()]
    _write(out_path, "\n".join(lines) + "\n")


def emit_csv(manifest, notes, columns, arrays, out_path):
    lines = manifest.header_lines()
    lines += [f"# {n}" for n in notes]
    lines.append("# columns: " + ",".join(columns))
    for row in zip(*arrays):
        lines.append(",".join(_fmt(float(v)) for v in row))
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
    return meta, columns, np.array(rows)


def _single_record(args, manifest, fields):
    if args.format == "record":
        emit_record(manifest, {"result": {k: v for k, v in fields.items()}}, args.out)
    elif args.format == "csv":
        emit_csv(manifest, [], list(fields), [[v] for v in fields.values()], args.out)
    else:
        emit_table(manifest, fields, args.out)


def _settings_from_args(args) -> OracleSettings:
    kwargs = {}
    if args.quad_nodes is not None:
        kwargs["quadrature_nodes"] = args.quad_nodes
    if args.eps_schedule is not None:
        kwargs["epsilon_schedule"] = tuple(args.eps_schedule)
    return OracleSettings(**kwargs) if kwargs else DEFAULT_SETTINGS


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
    manifest = RunManifest.create(
        "eval",
        {
            "omega_a_sigma": cfg.omega_a_sigma,
            "delta_omega_sigma": cfg.delta_omega_sigma,
            "l_over_sigma": cfg.l_over_sigma,
            "coupling": cfg.coupling,
        },
    )
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


def run_verification(
    settings: OracleSettings = DEFAULT_SETTINGS,
    grid_size: int | None = None,
    tol_x_pv: float = 1e-8,
    tol_x_double: float = 1e-3,
    tol_p: float = 1e-4,
    tol_rho: float = 1e-6,
    coupling: float = 0.1,
) -> list[VerificationCheck]:
    """Closed forms against the oracles on the comparison grid.

    Checks, per scenario: the principal-value correlation route, the
    time-ordered double-integral correlation route, and the assembled
    joint state (validity plus concurrence consistency).  Transition
    probabilities are checked once per distinct gap appearing on the grid,
    plus the zero-gap anchor value 1/(4 pi).
    """
    grid = VERIFICATION_GRID[: grid_size if grid_size is not None else None]
    checks = []
    gaps = {0.0}
    for a, r, l in grid:
        cfg = DetectorPairConfig(a, a * r, l, coupling)
        gaps.update((cfg.omega_a_sigma, cfg.omega_b_sigma))
        tag = f"a={a} dw/wa={r} l={l}"
        x_exact = correlation_x(cfg)

        x_pv = x_single_integral_pv(cfg, settings)
        rel = float(abs(x_pv - x_exact) / abs(x_exact))
        checks.append(
            VerificationCheck("x_pv_vs_closed", tag, rel, tol_x_pv, bool(rel <= tol_x_pv))
        )

        x_dbl = x_double_integral(cfg, settings)
        rel = float(abs(x_dbl - x_exact) / abs(x_exact))
        checks.append(
            VerificationCheck(
                "x_double_vs_closed", tag, rel, tol_x_double, bool(rel <= tol_x_double)
            )
        )

        rho = assemble_rho(cfg, settings)
        rel = abs(rho.concurrence() - concurrence(cfg).concurrence)
        rel = float(rel / max(concurrence(cfg).concurrence, coupling**2 * 1e-3))
        checks.append(
            VerificationCheck("rho_concurrence", tag, rel, tol_rho, bool(rel <= tol_rho))
        )

    for gap in sorted(gaps):
        p_oracle = pd_double_integral(gap, coupling, settings)
        p_exact = transition_probability(gap, coupling)
        rel = float(abs(p_oracle - p_exact) / p_exact)
        checks.append(
            VerificationCheck(
                "p_double_vs_closed", f"gap={gap:g}", rel, tol_p, bool(rel <= tol_p)
            )
        )
    p_anchor = pd_double_integral(0.0, 1.0, settings)
    rel = float(abs(p_anchor - 1.0 / (4.0 * np.pi)) * 4.0 * np.pi)
    checks.append(
        VerificationCheck("p_zero_gap_anchor", "gap=0 coupling=1", rel, tol_p, bool(rel <= tol_p))
    )
    return checks


def cmd_verify(parser, args):
    settings = _settings_from_args(args)
    tols = {}
    if args.tolerance is not None:
        tols = dict(
            tol_x_pv=args.tolerance,
            tol_x_double=args.tolerance,
            tol_p=args.tolerance,
            tol_rho=args.tolerance,
        )
    try:
        checks = run_verification(settings, grid_size=args.grid, coupling=args.coupling, **tols)
    except NonConvergence as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return EXIT_FAILED
    manifest = RunManifest.create(
        "verify",
        {
            "grid_size": args.grid if args.grid is not None else len(VERIFICATION_GRID),
            "coupling": args.coupling,
            "quadrature_nodes": settings.quadrature_nodes,
            "epsilon_schedule": list(settings.epsilon_schedule),
            "tolerance_override": args.tolerance,
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
                f"{status}  {c.name:<22} {c.scenario:<28} rel={c.relative_error:.3e}"
                f"  tol={c.tolerance:.1e}"
            )
        lines.append(
            f"{'all checks passed' if n_bad == 0 else f'{n_bad} of {len(checks)} checks FAILED'}"
        )
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if n_bad == 0 else EXIT_FAILED


_AXIS_FLAGS = {"l": "l_over_sigma", "delta-omega": "delta_omega_sigma", "omega-a": "omega_a_sigma"}


def cmd_sweep(parser, args):
    axis = _AXIS_FLAGS[args.axis]
    fixed = {
        "omega_a_sigma": args.omega_a,
        "delta_omega_sigma": args.delta_omega if args.delta_omega is not None else 0.0,
        "l_over_sigma": args.l,
        "coupling": args.coupling,
    }
    fixed[axis] = args.start if args.start > 0 else max(args.start, 1e-6)  # placeholder, replaced per point
    if fixed["l_over_sigma"] is None:
        parser.error("--l is required (fixed or as the swept axis start)")
    if fixed["omega_a_sigma"] is None:
        parser.error("--omega-a is required")
    try:
        base = DetectorPairConfig(**fixed)
        values = np.linspace(args.start, args.stop, args.points)
        grid = sweep(axis, values, base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
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
    conc = grid.concurrences()
    columns = [axis, "concurrence", "concurrence_over_lambda2", "abs_x", "sqrt_pa_pb"]
    arrays = [
        grid.axis_values,
        conc,
        conc / args.coupling**2,
        np.array([np.nan if r is None else r.x_abs for r in grid.values]),
        np.array([np.nan if r is None else r.geometric_mean for r in grid.values]),
    ]
    notes = [f"point_error[{i}]: {e}" for i, e in enumerate(grid.errors) if e]
    if args.format == "record":
        emit_record(
            manifest,
            {"columns": columns, "data": [list(map(float, a)) for a in arrays], "notes": notes},
            args.out,
        )
    else:
        emit_csv(manifest, notes, columns, arrays, args.out)
    return EXIT_OK


def _search_fields(result):
    return {
        "location": result.location,
        "value": result.value,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "iterations": result.iterations,
        "converged": result.converged,
        "note": result.note or "-",
    }


def cmd_lmax(parser, args):
    manifest = RunManifest.create(
        "lmax",
        {
            "omega_a_sigma": args.omega_a,
            "delta_omega_sigma": args.delta_omega,
            "coupling": args.coupling,
            "scan_bound": args.scan_bound,
            "scan_step": args.scan_step,
        },
    )
    try:
        result = find_lmax(
            args.omega_a, args.delta_omega, args.coupling,
            scan_bound=args.scan_bound, scan_step=args.scan_step,
        )
    except NoHarvestingRegion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_HARVEST
    except BracketingFailure as exc:
        _single_record(
            args,
            manifest,
            {
                "location": exc.lower_bound,
                "note": "lower bound only: harvesting persists at the scan bound",
            },
        )
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
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
    try:
        result = find_optimal_gap(args.omega_a, args.l, args.coupling, gap_bound=args.gap_bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _single_record(args, manifest, _search_fields(result))
    return EXIT_OK


def cmd_crossover(parser, args):
    manifest = RunManifest.create(
        "crossover",
        {
            "omega_a_sigma": args.omega_a,
            "delta_omega_sigma": args.delta_omega,
            "coupling": args.coupling,
            "scan_bound": args.scan_bound,
            "scan_step": args.scan_step,
        },
    )
    try:
        result = find_crossover(
            args.omega_a, args.delta_omega, args.coupling,
            scan_bound=args.scan_bound, scan_step=args.scan_step,
        )
    except NoCrossover as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CROSSOVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
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
    for l in l_set:
        columns.append(f"conc_l_{l:g}")
        arrays.append(concurrence_values(omega_a, omega_a * ratios, l, 1.0))
        peak = find_optimal_gap(omega_a, l, 1.0, gap_bound=3.0 * omega_a)
        if peak.location == 0.0:
            notes.append(f"peak[l={l:g}]: boundary maximum at dw=0")
        else:
            notes.append(
                f"peak[l={l:g}]: dw_over_wa={_fmt(peak.location / omega_a)} "
                f"conc={_fmt(peak.value)}"
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
    # rows where the search fails (no harvesting, or none found below the
    # scan bound) come back as NaN
    lmax = find_lmax_many(gaps, gaps * ratios, 1.0).location
    for a, vals in zip(_FIG45_GAPS, lmax):
        columns.append(f"lmax_a_{a:g}")
        arrays.append(vals)
        notes.append(f"identical_reference[a={a:g}]: {_fmt(float(vals[0]))}")
    return {"omega_a_set": list(_FIG45_GAPS)}, notes, columns, arrays


def build_figure(name: str, points: int = 400):
    """Data behind one survey figure: (params, notes, columns, arrays)."""
    if name == "fig1a":
        return _fig_separation(0.5, 5.0, points)
    if name == "fig1b":
        return _fig_separation(1.2, 6.0, points)
    if name == "fig2a":
        return _fig_gap_sweep(0.5, (0.5, 1.0, 2.0, 3.0), points)
    if name == "fig2b":
        return _fig_gap_sweep(1.2, (1.0, 2.0, 3.5, 4.0), points)
    if name == "fig3":
        return _fig_anatomy(points)
    if name == "fig4":
        return _fig_peak_location(points)
    if name == "fig5":
        return _fig_lmax(points)
    raise ValueError(f"unknown figure {name!r}")


def cmd_figure(parser, args):
    try:
        params, notes, columns, arrays = build_figure(args.name, args.points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = RunManifest.create("figure " + args.name, {**params, "points": args.points})
    if args.format == "record":
        emit_record(
            manifest,
            {"columns": columns, "data": [list(map(float, a)) for a in arrays], "notes": notes},
            args.out,
        )
    else:
        emit_csv(manifest, notes, columns, arrays, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda", dest="coupling", type=float, default=0.1,
                        help="coupling constant (default 0.1)")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--format", choices=("table", "csv", "record"), default=None,
                        help="output format (default: table for single records, csv for grids)")
    common.add_argument("--quad-nodes", type=int, default=None,
                        help="Gauss-Legendre nodes per panel for the oracles")
    common.add_argument("--eps-schedule", type=lambda s: [float(x) for x in s.split(",")],
                        default=None, help="regulator schedule, comma separated, decreasing")

    parser = argparse.ArgumentParser(
        prog="udwharvest",
        description="Entanglement harvesting of two static detectors with unequal gaps "
        "(all inputs dimensionless, rescaled by the switching duration).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="closed-form report for one scenario")
    p.add_argument("--omega-a", type=float, required=True, help="smaller gap times duration")
    p.add_argument("--delta-omega", type=float, default=None, help="gap difference times duration")
    p.add_argument("--omega-b", type=float, default=None, help="larger gap (alternative to --delta-omega)")
    p.add_argument("--l", type=float, required=True, help="separation over duration")
    p.set_defaults(func=cmd_eval, default_format="table")

    p = sub.add_parser("verify", parents=[common], help="closed forms vs integral oracles")
    p.add_argument("--grid", type=int, default=None,
                   help=f"use only the first N of the {len(VERIFICATION_GRID)} grid scenarios")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check tolerance with one value")
    p.set_defaults(func=cmd_verify, default_format="table")

    p = sub.add_parser("sweep", parents=[common], help="closed-form pipeline along one axis")
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--omega-a", type=float, default=None)
    p.add_argument("--delta-omega", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.set_defaults(func=cmd_sweep, default_format="csv")

    p = sub.add_parser("lmax", parents=[common], help="largest harvesting-achievable separation")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)
    p.add_argument("--scan-bound", type=float, default=None,
                   help="upper end of the downward scan (default: 4x the large-gap estimate, >= 10)")
    p.add_argument("--scan-step", type=float, default=0.01)
    p.set_defaults(func=cmd_lmax, default_format="table")

    p = sub.add_parser("peak", parents=[common], help="concurrence-maximizing gap difference")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--gap-bound", type=float, default=None,
                   help="search bound for the gap difference (default max(4, l))")
    p.set_defaults(func=cmd_peak, default_format="table")

    p = sub.add_parser("crossover", parents=[common],
                       help="separation where non-identical detectors overtake identical")
    p.add_argument("--omega-a", type=float, required=True)
    p.add_argument("--delta-omega", type=float, required=True)
    p.add_argument("--scan-bound", type=float, default=None)
    p.add_argument("--scan-step", type=float, default=0.01)
    p.set_defaults(func=cmd_crossover, default_format="table")

    p = sub.add_parser("figure", parents=[common], help="regenerate survey-figure data")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--points", type=int, default=400, help="grid points per axis (default 400)")
    p.set_defaults(func=cmd_figure, default_format="csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(parser, args)
    except NonConvergence as exc:
        print(f"oracle did not converge: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

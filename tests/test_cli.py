"""Command-line interface: exit codes, output formats, round-trips."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from udwharvest import DetectorPairConfig, cli, concurrence_values, transition_probability
from udwharvest.cli import (
    FIGURE_NAMES, VERIFICATION_GRID, build_figure, main, read_data_file, run_verification,
)

FOUR_PI = 4.0 * np.pi


def run(argv):
    return main(argv)


def manifest_and_data(path):
    """Split an emitted file into header lines and raw data lines."""
    header, data = [], []
    with open(path) as fh:
        for line in fh:
            (header if line.startswith("#") else data).append(line)
    return header, data


class TestEval:
    def test_zero_gap_probabilities(self, tmp_path):
        out = tmp_path / "eval.json"
        with pytest.warns(UserWarning, match="weak-coupling"):
            code = run(
                [
                    "eval", "--omega-a", "0", "--delta-omega", "0", "--l", "1",
                    "--lambda", "1", "--format", "record", "--out", str(out),
                ]
            )
        assert code == 0
        rec = json.loads(out.read_text())["result"]
        assert rec["p_a"] == pytest.approx(1.0 / FOUR_PI, rel=1e-14)
        assert rec["p_b"] == rec["p_a"]

    def test_omega_b_below_omega_a_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["eval", "--omega-a", "0.5", "--omega-b", "0.4", "--l", "1"])
        assert err.value.code == 2

    def test_requires_one_gap_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["eval", "--omega-a", "0.5", "--l", "1"])
        assert err.value.code == 2

    def test_matches_library_to_full_precision(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(
            [
                "eval", "--omega-a", "0.5", "--delta-omega", "0.5", "--l", "2",
                "--format", "record", "--out", str(out),
            ]
        ) == 0
        rec = json.loads(out.read_text())["result"]
        expected = concurrence_values(0.5, 0.5, 2.0, 0.1)
        assert rec["concurrence"] == expected
        assert rec["concurrence_over_lambda2"] == expected / 0.1**2

    def test_large_gaps_past_lmax_report_no_concurrence(self, tmp_path):
        # P_A P_B underflows at (20, 0): the unscaled excess reported a
        # concurrence of 6.1e-181 at l = 100, past the true lmax of 40.10;
        # at l = 30 the pair harvests
        rec = {}
        for l in ("100", "30"):
            out = tmp_path / f"eval{l}.json"
            assert run(["eval", "--omega-a", "20", "--delta-omega", "0", "--l", l,
                        "--format", "record", "--out", str(out)]) == 0
            rec[l] = json.loads(out.read_text())["result"]
        assert rec["100"]["concurrence"] == 0.0 < rec["100"]["abs_x"]
        assert rec["30"]["concurrence"] == concurrence_values(20.0, 0.0, 30.0, 0.1) > 0.0

    def test_sqrt_pa_pb_where_the_product_underflows(self, tmp_path):
        # P_A = P_B = 1.9e-180 at (20, 0): their product underflows to 0, and
        # sqrt_pa_pb read 0.0 beside them
        out = tmp_path / "eval.json"
        assert run(["eval", "--omega-a", "20", "--delta-omega", "0", "--l", "100",
                    "--format", "record", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["result"]
        assert rec["p_a"] * rec["p_b"] == 0.0
        assert rec["sqrt_pa_pb"] == pytest.approx(1.9e-180, rel=0.01)
        assert rec["sqrt_pa_pb"] == pytest.approx(rec["p_a"], rel=1e-15)

    def test_domain_error_exit_code(self):
        assert run(["eval", "--omega-a", "0.5", "--delta-omega", "0", "--l", "0"]) == 3

    def test_omega_b_accepted(self, tmp_path):
        out = tmp_path / "eval.json"
        assert run(
            [
                "eval", "--omega-a", "0.5", "--omega-b", "0.75", "--l", "2",
                "--format", "record", "--out", str(out),
            ]
        ) == 0
        rec = json.loads(out.read_text())["result"]
        assert rec["p_b"] == transition_probability(0.75, 0.1)


class TestVerify:
    def test_single_scenario_smoke(self, tmp_path):
        t0 = time.perf_counter()
        code = run(["verify", "--grid", "1", "--out", str(tmp_path / "v.txt")])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 2.0
        text = (tmp_path / "v.txt").read_text()
        assert "all checks passed" in text
        assert "FAIL" not in text.replace("FAILED", "")

    def test_the_whole_grid_can_be_asked_for(self, tmp_path):
        out = tmp_path / "v.json"
        n = len(VERIFICATION_GRID)
        assert run(["verify", "--grid", str(n), "--format", "record", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["manifest"]["parameters"]["grid_size"] == n
        assert sum(c["name"] == "x_pv_vs_closed" for c in rec["checks"]) == n

    def test_unreachable_tolerance_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHECK_TOLERANCES", dict.fromkeys(cli._CHECK_TOLERANCES, 1e-15))
        code = run(["verify", "--grid", "1", "--out", str(tmp_path / "v.txt")])
        assert code == 1
        assert "FAIL" in (tmp_path / "v.txt").read_text()

    def test_perturbed_oracle_fails_the_concurrence_check(self, monkeypatch):
        # |x_pv| 1e-3 too large moves every harvesting scenario's oracle
        # concurrence by more than 1e-3 of itself
        x_pv = cli.x_single_integral_pv
        monkeypatch.setattr(cli, "x_single_integral_pv",
                            lambda *args: x_pv(*args) * (1.0 + 1e-3))
        harvesting = {
            f"a={a} dw/wa={r} l={l}"
            for a, r, l in VERIFICATION_GRID
            if concurrence_values(a, a * r, l, 0.1) > 0
        }
        rows = [c for c in run_verification() if c.name == "concurrence_oracle_vs_closed"]
        assert len(harvesting) == 16 and len(rows) == len(VERIFICATION_GRID)
        assert not any(c.passed for c in rows if c.scenario in harvesting)

    def test_record_format(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--grid", "1", "--format", "record", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["failures"] == 0
        assert all(c["passed"] for c in rec["checks"])

    def test_each_check_reports_its_tolerance(self):
        checks = run_verification(grid_size=1)
        assert {c.name: c.tolerance for c in checks} == {
            "x_pv_vs_closed": 1e-8,
            "x_double_vs_closed": 1e-3,
            "concurrence_oracle_vs_closed": 1e-4,
            "p_double_vs_closed": 1e-4,
            "p_zero_gap_anchor": 1e-4,
        }

    @pytest.mark.parametrize("grid", [["--grid", "1"], []])
    def test_nonconvergent_schedule_aborts(self, tmp_path, capsys, grid):
        out = tmp_path / "v.txt"
        code = run(["verify", *grid, "--eps-schedule", "0.9,0.85", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("verification aborted:")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--eps-schedule", "0.05,nan"],
                                       ["--quad-nodes", "100000"]])
    def test_settings_that_cannot_be_certified_are_domain_errors(self, tmp_path, flags):
        # a NaN regulator gave rel=nan FAIL lines (exit 1); 100000 nodes
        # died in numpy's allocator with a traceback
        out = tmp_path / "v.txt"
        assert run(["verify", "--grid", "1", *flags, "--out", str(out)]) == 3
        assert not out.exists()

    def test_every_regulator_of_a_longer_schedule_is_used(self, tmp_path):
        # a four-value schedule extrapolates at order three; capped at
        # order two its probability errors stay near 1e-6
        out = tmp_path / "v.json"
        assert run(
            [
                "verify", "--eps-schedule", "0.04,0.02,0.01,0.005",
                "--format", "record", "--out", str(out),
            ]
        ) == 0
        rec = json.loads(out.read_text())
        errors = [c["relative_error"] for c in rec["checks"] if c["name"] == "p_double_vs_closed"]
        assert errors and max(errors) < 1e-7


class TestSearchCommands:
    def test_lmax_large_gap(self, tmp_path):
        out = tmp_path / "lmax.json"
        assert run(
            [
                "lmax", "--omega-a", "4", "--delta-omega", "0",
                "--format", "record", "--out", str(out),
            ]
        ) == 0
        loc = json.loads(out.read_text())["result"]["location"]
        assert abs(loc - 8.0) <= 0.8

    @pytest.mark.parametrize("argv", [
        ["lmax", "--omega-a", "0.5", "--delta-omega", "0.25"],
        ["peak", "--omega-a", "0.5", "--l", "2"],
        ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25"],
    ])
    def test_searches_warn_outside_the_weak_coupling_regime_as_eval_does(self, argv, tmp_path):
        out = str(tmp_path / "out")
        with pytest.warns(UserWarning, match="weak-coupling") as caught:
            assert run(argv + ["--lambda", "3", "--out", out]) == 0
        assert len(caught) == 1 and caught[0].filename == cli.__file__
        # nothing at the threshold itself (a UserWarning fails this suite)
        assert run(argv + ["--lambda", "0.3", "--out", out]) == 0

    @pytest.mark.parametrize("argv", [
        ["lmax", "--omega-a", "0.5", "--delta-omega", "0.25"],
        ["peak", "--omega-a", "0.5", "--l", "2"],
        ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25"],
    ])
    def test_search_result_fields(self, argv, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert run(argv + ["--format", "record", "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["result"]) == {
            "location", "value", "bracket_lo", "bracket_hi", "iterations", "note"}
        assert run(argv) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]
        assert rows == ["location", "value", "bracket_lo", "bracket_hi", "iterations", "note"]

    def test_lmax_no_harvest_exit(self):
        code = run(
            [
                "lmax", "--omega-a", "0.2", "--delta-omega", "0", "--scan-step", "5",
            ]
        )
        assert code == 4

    # every grid ends at its certified cut: the searches take no cap
    @pytest.mark.parametrize("command", ["lmax", "crossover"])
    def test_a_scan_bound_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            run([command, "--omega-a", "0.5", "--delta-omega", "0.25", "--scan-bound", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --scan-bound 5" in capsys.readouterr().err

    def test_peak_boundary_flag(self, tmp_path):
        out = tmp_path / "peak.json"
        assert run(
            [
                "peak", "--omega-a", "0.5", "--l", "0.5",
                "--format", "record", "--out", str(out),
            ]
        ) == 0
        rec = json.loads(out.read_text())["result"]
        assert rec["location"] == 0.0
        assert "boundary" in rec["note"]

    def test_crossover_ordering(self, tmp_path):
        locs = []
        for d in ("0.05", "0.3"):
            out = tmp_path / f"c{d}.json"
            assert run(
                [
                    "crossover", "--omega-a", "0.5", "--delta-omega", d,
                    "--format", "record", "--out", str(out),
                ]
            ) == 0
            locs.append(json.loads(out.read_text())["result"]["location"])
        assert locs[0] < locs[1]

    def test_crossover_not_found_exit(self):
        code = run(
            ["crossover", "--omega-a", "1.1", "--delta-omega", "2.7"]
        )
        assert code == 5

    def test_crossover_ahead_from_the_first_point_exits_0(self, capsys):
        # the difference is positive from l = 0.01: it exited 5 with "never
        # exceeds"
        assert run(["crossover", "--omega-a", "0", "--delta-omega", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "non-identical pair ahead from the first scanned separation" in out
        assert "bracket_lo  0.0\nbracket_hi  0.01\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["lmax", "--omega-a", "-1", "--delta-omega", "0"],
            ["peak", "--omega-a", "-1", "--l", "2"],
            ["lmax", "--omega-a", "0.5", "--delta-omega", "40"],
        ],
    )
    def test_searches_outside_the_domain_exit_like_eval(self, argv, capsys):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("omega_a_sigma" in err or "delta_omega" in err)

    # past the coupling bound P_A P_B overflows; from about 1.3e154 on
    # coupling**2 raised OverflowError and each command exited 1
    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    @pytest.mark.parametrize("argv", [
        ["eval", "--omega-a", "0.5", "--delta-omega", "0.25", "--l", "1"],
        ["sweep", "--axis", "l", "--start", "0.5", "--stop", "2", "--points", "3",
         "--omega-a", "0.5", "--delta-omega", "0.25"],
        ["lmax", "--omega-a", "0.5", "--delta-omega", "0.25"],
        ["peak", "--omega-a", "0.5", "--l", "2"],
        ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25"],
    ], ids=lambda argv: argv[0])
    def test_couplings_past_the_bound_exit_3(self, argv, tmp_path, capsys):
        from udwharvest.closedform import _MAX_COUPLING
        above = float(np.nextafter(_MAX_COUPLING, np.inf))
        assert run(argv + ["--lambda", repr(_MAX_COUPLING), "--out", str(tmp_path / "o")]) == 0
        assert run(argv + ["--lambda", repr(above)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: coupling={above!r} exceeds {_MAX_COUPLING!r}; P_A P_B, " \
            "(coupling^2/4 pi)^2 at zero gap, would overflow double precision\n"

    # past the omega_a bound X's prefactor overflowed, and eval, sweep and
    # peak exited 1 with a RuntimeWarning traceback
    @pytest.mark.parametrize("argv", [
        ["eval", "--delta-omega", "0.25", "--l", "1"],
        ["sweep", "--axis", "l", "--start", "0.5", "--stop", "2", "--points", "3",
         "--delta-omega", "0.25"],
        ["peak", "--l", "2"],
    ], ids=lambda argv: argv[0])
    def test_omega_a_past_the_bound_exits_3(self, argv, tmp_path, capsys):
        from udwharvest.closedform import _MAX_OMEGA_A
        above = float(np.nextafter(_MAX_OMEGA_A, np.inf))
        assert run(argv + ["--omega-a", repr(_MAX_OMEGA_A), "--out", str(tmp_path / "o")]) == 0
        assert run(argv + ["--omega-a", repr(above)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: omega_a_sigma={above!r} exceeds {_MAX_OMEGA_A!r} = sqrt(largest " \
            "double)/2; (2 omega_a_sigma + delta_omega_sigma)^2 in X's prefactor would " \
            "overflow double precision\n"

    # past the separation bound l*l overflowed, and eval, sweep and peak
    # exited 1 with a RuntimeWarning traceback
    @pytest.mark.parametrize("argv", [
        ["eval", "--omega-a", "0.5", "--delta-omega", "0.25"],
        ["sweep", "--axis", "delta-omega", "--start", "0", "--stop", "1", "--points", "3",
         "--omega-a", "0.5"],
        ["peak", "--omega-a", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_separation_past_the_bound_exits_3(self, argv, tmp_path, capsys):
        from udwharvest.closedform import _MAX_SEPARATION
        above = float(np.nextafter(_MAX_SEPARATION, np.inf))
        assert run(argv + ["--l", repr(_MAX_SEPARATION), "--out", str(tmp_path / "o")]) == 0
        assert run(argv + ["--l", repr(above)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: l_over_sigma={above!r} exceeds {_MAX_SEPARATION!r} = sqrt(" \
            "largest double); l_over_sigma^2 would overflow double precision\n"

    # below the separation floor the concurrence overflowed at the largest
    # coupling: eval --l 1e-312, peak --l 1e-320 and sweep exited 1 with a
    # RuntimeWarning traceback even at coupling 0.1; at the floor itself the
    # concurrence at zero gaps is the largest double
    @pytest.mark.filterwarnings("ignore:coupling=.*weak-coupling:UserWarning")
    @pytest.mark.parametrize("argv", [
        ["eval", "--omega-a", "0", "--delta-omega", "0"],
        ["sweep", "--axis", "delta-omega", "--start", "0", "--stop", "1", "--points", "3",
         "--omega-a", "0"],
        ["peak", "--omega-a", "0"],
    ], ids=lambda argv: argv[0])
    def test_separation_below_the_floor_exits_3(self, argv, tmp_path, capsys):
        from udwharvest.closedform import _MAX_COUPLING, _MIN_SEPARATION, _SEPARATION_BELOW
        below = float(np.nextafter(_MIN_SEPARATION, 0.0))
        out = tmp_path / "o.json"
        assert run(argv + ["--l", repr(_MIN_SEPARATION), "--lambda", repr(_MAX_COUPLING),
                           "--format", "record", "--out", str(out)]) == 0
        if argv[0] == "eval":
            assert json.loads(out.read_text())["result"]["concurrence"] == np.finfo(float).max
        for coupling in (_MAX_COUPLING, 0.1):
            assert run(argv + ["--l", repr(below), "--lambda", repr(coupling)]) == 3
            assert capsys.readouterr().err == f"error: {_SEPARATION_BELOW}\n"

    # a NaN or infinite gap bound printed "value nan" and "converged True"
    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    def test_non_finite_gap_bound_exits_3(self, bound, capsys):
        assert run(["peak", "--omega-a", "0.5", "--l", "2", f"--gap-bound={bound}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gap_bound must be finite" in err


class TestFigure:
    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["figure", "fig9"])
        assert err.value.code == 2

    def test_fig1a_emission_and_roundtrip(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert run(["figure", "fig1a", "--points", "48", "--out", str(out)]) == 0
        meta, columns, data = read_data_file(out)
        assert columns[0] == "l_over_sigma"
        assert data.shape == (48, 6)
        # identical-gap curve dominates nearest the detectors
        assert data[0, 1] == max(data[0, 1:])
        # parsed values recompute bitwise at the recorded parameters
        a = float(meta["omega_a_sigma"])
        recomputed = concurrence_values(a, 0.2 * a, data[:, 0], 1.0)
        assert recomputed.tolist() == data[:, 2].tolist()

    def test_fig5_small_gap_column_increases(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run(["figure", "fig5", "--points", "16", "--out", str(out)]) == 0
        _, columns, data = read_data_file(out)
        col = columns.index("lmax_a_0.2")
        assert np.all(np.diff(data[:, col]) > 0)

    def test_fig3_excess_column_consistent(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["figure", "fig3", "--points", "32", "--out", str(out)]) == 0
        _, columns, data = read_data_file(out)
        assert columns == ["dw_over_wa", "abs_x", "sqrt_pa_pb", "excess"]
        assert np.max(np.abs(data[:, 1] - data[:, 2] - data[:, 3])) == 0.0

    def test_fig3_peak_matches_fig2a_marker(self, tmp_path):
        f2, f3 = tmp_path / "fig2a.csv", tmp_path / "fig3.csv"
        assert run(["figure", "fig2a", "--points", "600", "--out", str(f2)]) == 0
        assert run(["figure", "fig3", "--points", "600", "--out", str(f3)]) == 0
        meta2, _, _ = read_data_file(f2)
        marker = dict(
            kv.split("=") for kv in meta2["peak[l=2]"].split() if "=" in kv
        )
        _, columns, data = read_data_file(f3)
        ratios = data[:, 0]
        excess_peak = ratios[np.argmax(data[:, columns.index("excess")])]
        grid_step = ratios[1] - ratios[0]
        assert abs(excess_peak - float(marker["dw_over_wa"])) <= grid_step

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_zero_points_give_an_empty_data_section(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert run(["figure", name, "--points", "0", "--out", str(out)]) == 0
        _, columns, data = read_data_file(out)
        assert columns == build_figure(name, 2)[2] and data.size == 0

    def test_zero_points_keep_the_column_count(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert run(["figure", "fig1a", "--points", "0", "--out", str(out)]) == 0
        assert read_data_file(out)[2].shape == (0, 6)

    def test_byte_identical_data_sections(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["figure", "fig2a", "--points", "40", "--out", str(f1)]) == 0
        assert run(["figure", "fig2a", "--points", "40", "--out", str(f2)]) == 0
        h1, d1 = manifest_and_data(f1)
        h2, d2 = manifest_and_data(f2)
        assert d1 == d2
        differing = [(a, b) for a, b in zip(h1, h2) if a != b]
        assert all(a.startswith("# timestamp:") for a, _ in differing)


class TestSweepCommand:
    ARGS = [
        "sweep", "--axis", "l", "--start", "0.5", "--stop", "3.0", "--points", "40",
        "--omega-a", "0.5", "--delta-omega", "0.25",
    ]

    def test_roundtrip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        meta, columns, data = read_data_file(out)
        assert columns[0] == "l_over_sigma"
        # the sweep is one array call over the axis: the same call on the
        # emitted axis reproduces the concurrence column bit for bit
        assert concurrence_values(0.5, 0.25, data[:, 0], 0.1).tolist() == data[:, 1].tolist()

    def test_zero_points_keep_the_column_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--axis", "l", "--start", "0.5", "--stop", "3.0", "--points", "0",
                    "--omega-a", "0.5", "--delta-omega", "0.25", "--out", str(out)]) == 0
        assert read_data_file(out)[2].shape == (0, 5)

    def test_sqrt_pa_pb_where_the_product_underflows(self, tmp_path):
        # P_A = P_B = 1.9e-180 at (20, 0): their product underflows to 0, and
        # the column read 0.0 where eval reports the same sqrt(P_A P_B) as here
        out, record = tmp_path / "sweep.csv", tmp_path / "eval.json"
        assert run(["sweep", "--axis", "l", "--start", "50", "--stop", "100", "--points", "2",
                    "--omega-a", "20", "--delta-omega", "0", "--out", str(out)]) == 0
        assert run(["eval", "--omega-a", "20", "--delta-omega", "0", "--l", "50",
                    "--format", "record", "--out", str(record)]) == 0
        _, columns, data = read_data_file(out)
        rec = json.loads(record.read_text())["result"]
        assert rec["sqrt_pa_pb"] == 1.8979547353680723e-180
        assert data[:, columns.index("sqrt_pa_pb")].tolist() == [rec["sqrt_pa_pb"]] * 2
        # where the product is normal the column is its square root, bit for bit
        assert run(self.ARGS + ["--out", str(out)]) == 0
        _, columns, data = read_data_file(out)
        p_a, p_b = transition_probability(0.5, 0.1), transition_probability(0.75, 0.1)
        assert data[:, columns.index("sqrt_pa_pb")].tolist() == [np.sqrt(p_a * p_b)] * 40

    @pytest.mark.parametrize("start,stop", [(40.0, 30.0), (30.0, 40.0)])
    def test_points_outside_the_domain_are_flagged_wherever_they_sit(
        self, tmp_path, start, stop
    ):
        # the fixed config does not take the swept axis from --start, so a
        # sweep that starts outside the domain flags its first points too
        out = tmp_path / "sweep.json"
        code = run([
            "sweep", "--axis", "delta-omega", "--start", str(start), "--stop", str(stop),
            "--points", "5", "--omega-a", "0.5", "--l", "2",
            "--format", "record", "--out", str(out),
        ])
        assert code == 0
        rec = json.loads(out.read_text())
        axis = rec["data"][0]
        assert len(axis) == 5
        expected = []
        for i, d in enumerate(axis):
            try:
                DetectorPairConfig(0.5, d, 2.0, 0.1)
            except ValueError as exc:
                expected.append(f"point_error[{i}]: {exc}")
        assert sorted(d for d in axis if d > 35.0) == [37.5, 40.0]
        assert rec["notes"] == expected and len(expected) == 2


class TestCommandSurface:
    """Each subcommand takes only the flags and formats it honours."""

    ARGS = {
        "eval": ["eval", "--omega-a", "0.5", "--delta-omega", "0.25", "--l", "2"],
        "verify": ["verify", "--grid", "1"],
        "sweep": [
            "sweep", "--axis", "l", "--start", "0.5", "--stop", "3", "--points", "8",
            "--omega-a", "0.5", "--delta-omega", "0.25",
        ],
        "lmax": ["lmax", "--omega-a", "0.5", "--delta-omega", "0.25"],
        "peak": ["peak", "--omega-a", "0.5", "--l", "2"],
        "crossover": ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25"],
        "figure": ["figure", "fig1a", "--points", "8"],
    }
    # the formats each subcommand writes, its default first
    FORMATS = {
        "eval": ("table", "csv", "record"),
        "verify": ("table", "record"),
        "sweep": ("csv", "record"),
        "lmax": ("table", "record"),
        "peak": ("table", "record"),
        "crossover": ("table", "record"),
        "figure": ("csv", "record"),
    }

    @pytest.mark.parametrize(
        "command,fmt", [(c, f) for c, formats in FORMATS.items() for f in formats]
    )
    def test_every_accepted_format_round_trips(self, tmp_path, command, fmt):
        out = tmp_path / "out"
        # the default format is reached by leaving --format out
        chosen = [] if fmt == self.FORMATS[command][0] else ["--format", fmt]
        assert run(self.ARGS[command] + chosen + ["--out", str(out)]) == 0
        if fmt == "csv":
            meta, columns, data = read_data_file(out)
            assert meta["command"].split()[0] == command
            assert data.shape == (len(data), len(columns)) and len(data) > 0
        elif fmt == "record":
            assert json.loads(out.read_text())["manifest"]["command"].split()[0] == command
        else:
            header, body = manifest_and_data(out)
            assert header and body

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--omega-a", "0.5", "--delta-omega", "0.25", "--l", "2",
             "--quad-nodes", "8"],
            ["figure", "fig1a", "--lambda", "0.3"],
            ARGS["sweep"] + ["--format", "table"],
            ["verify", "--format", "csv"],
            ["lmax", "--omega-a", "0.5", "--delta-omega", "0.25", "--format", "csv"],
            ["figure", "fig1a", "--points", "-1"],
            # a negative count would drop grid scenarios silently, or reach
            # numpy's linspace; one above the 27 scenarios would be recorded
            # as run
            ["verify", "--grid", "-1"],
            ["verify", "--grid", "28"],
            ["verify", "--grid", "40"],
            ARGS["sweep"] + ["--points", "-1"],
            # one value cannot serve checks whose tolerances span 1e-8 to 1e-3
            ["verify", "--tolerance", "0.5"],
        ],
    )
    def test_flags_and_formats_a_command_does_not_take_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        # crossover takes no --l: read as a prefix of --lambda, it ran at
        # coupling 2
        ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25", "--l", "2"],
        ARGS["eval"] + ["--lam", "0.2"],
        ARGS["verify"] + ["--quad", "8"],
        ARGS["figure"] + ["--form", "record"],
    ])
    def test_a_prefix_of_a_flag_is_not_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["l", "omega-a", "delta-omega"])
    def test_sweep_takes_no_flag_for_its_swept_axis(self, axis, capsys):
        # the swept field comes from --start/--stop; a value for it would be
        # ignored, so it is refused rather than dropped
        argv = [
            "sweep", "--axis", axis, "--start", "1", "--stop", "2", "--points", "2",
            "--omega-a", "0.5", "--delta-omega", "0.25", "--l", "7",
        ]
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert f"takes no --{axis}" in capsys.readouterr().err


CROSSOVER = ["crossover", "--omega-a", "0.5", "--delta-omega", "0.25", "--format", "record"]


def record_of(argv, out):
    assert run(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def untimed(record):
    """A record with its manifest timestamp, the one field that may differ, dropped."""
    record["manifest"].pop("timestamp")
    return record


class TestParserReuse:
    """One parser per process; each call dispatches to ``cmd_<command>`` by name."""

    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        record_of(CROSSOVER, tmp_path / "one.json")
        record_of(CROSSOVER, tmp_path / "two.json")
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the common parent, the top-level parser and its seven subparsers
        assert len(built) == 9 and built.count("udwharvest") == 1

    def test_a_command_rebound_after_the_parser_is_built_is_called(self, tmp_path, monkeypatch):
        record_of(CROSSOVER, tmp_path / "first.json")
        seen = []
        monkeypatch.setattr(cli, "cmd_crossover", lambda parser, args: seen.append(args) or 7)
        assert run(CROSSOVER) == 7
        assert [a.command for a in seen] == ["crossover"] and seen[0].omega_a == 0.5

    def test_subcommands_are_the_cmd_functions(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        commands = {n[len("cmd_"):] for n, f in vars(cli).items()
                    if n.startswith("cmd_") and callable(f)}
        assert set(sub.choices) == commands and len(commands) == 7

    def test_no_state_leaks_between_calls(self, tmp_path):
        base = record_of(CROSSOVER, tmp_path / "base.json")
        strong = record_of(CROSSOVER + ["--lambda", "0.2"], tmp_path / "strong.json")
        assert strong["manifest"]["parameters"]["coupling"] == 0.2
        after = record_of(CROSSOVER, tmp_path / "after.json")
        assert after["manifest"]["parameters"]["coupling"] == 0.1
        with pytest.raises(SystemExit) as err:
            run(CROSSOVER + ["--gap-bound", "3"])
        assert err.value.code == 2
        again = record_of(CROSSOVER, tmp_path / "again.json")
        assert untimed(after) == untimed(base) and untimed(again) == base


class TestSubprocess:
    """``python -m udwharvest`` as a separate process."""

    @staticmethod
    def spawn(*args):
        env = dict(os.environ)
        root = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_crossover_output_equals_the_in_process_one(self, tmp_path):
        done = self.spawn("-m", "udwharvest", *CROSSOVER)
        assert done.returncode == 0, done.stderr
        out = tmp_path / "in.json"
        record_of(CROSSOVER, out)
        # the printed text, every result digit included, apart from the timestamp
        assert [ln for ln in done.stdout.splitlines() if '"timestamp"' not in ln] == \
            [ln for ln in out.read_text().splitlines() if '"timestamp"' not in ln]
        assert json.loads(done.stdout)["result"]["location"] > 0

    def test_a_bad_flag_exits_2(self):
        done = self.spawn("-m", "udwharvest", *CROSSOVER, "--no-such-flag")
        assert done.returncode == 2 and "unrecognized arguments" in done.stderr

    # the search raised its ValueError after an overflow warning of the
    # envelope: with warnings as errors the command exited 1 with a traceback
    @pytest.mark.parametrize("command", ["lmax", "crossover"])
    def test_a_subnormal_scan_step_exits_3_without_a_warning(self, command):
        done = self.spawn("-W", "error::RuntimeWarning", "-m", "udwharvest", command,
                          "--omega-a", "0.5", "--delta-omega", "0.25", "--scan-step", "1e-320")
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: ") and "certifies no separation" in done.stderr
        assert len(done.stderr.splitlines()) == 1

    def test_importing_the_cli_builds_no_parser(self):
        done = self.spawn("-c", "import udwharvest.cli as c; "
                                "print(c._build_parser.cache_info().misses)")
        assert done.returncode == 0 and done.stdout.strip() == "0", done.stderr

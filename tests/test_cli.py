import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qabcert
from qabcert.cli import COMMANDS, RunConfig, main
from qabcert.linalg import hermitize
from qabcert.qab_core import Trajectory
from qabcert.quantum import PAULI_Z, choi_from_kraus, depolarizing_choi, random_density
from qabcert.serialize import (
    complex_matrix_to_pairs,
    load_report,
    save_channel,
    save_trajectory,
)

from conftest import BAD_STATE_EDITS, isometry_kraus_2to3, random_kraus, solve_trajectory


def run(*argv):
    return main(list(argv))


def data_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, row.split(","))) for row in lines[1:]]


FAST = ("--samples", "100", "--iters", "60")


class TestSweep:
    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ("sweep", "--p-min", "0.04", "--p-max", "0.1", "--p-steps", "3", *FAST)
        assert run(*args, "--out", str(out)) == 0
        first = out.read_bytes()
        assert run(*args, "--out", str(out)) == 0
        assert out.read_bytes() == first

    def test_single_point_matches_solve(self, tmp_path):
        sweep_out, solve_out = tmp_path / "sweep.csv", tmp_path / "solve.csv"
        assert (
            run("sweep", "--p-min", "0.05", "--p-max", "0.05", "--p-steps", "1", *FAST,
                "--out", str(sweep_out))
            == 0
        )
        assert (
            run("solve", "--channel-m", "depolarizing:0.05", *FAST, "--out", str(solve_out))
            == 0
        )
        _, sweep_rows = data_rows(sweep_out)
        _, solve_rows = data_rows(solve_out)
        assert sweep_rows == solve_rows

    def test_p_zero_reports_infinity(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert (
            run("sweep", "--p-min", "0", "--p-max", "0", "--p-steps", "1", *FAST,
                "--out", str(out))
            == 0
        )
        _, rows = data_rows(out)
        assert rows[0]["status"] == "infinite"
        assert float(rows[0]["value"]) == math.inf

    def test_certified_column_and_gap(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run("sweep", "--p-min", "0.05", "--p-max", "0.05", "--p-steps", "1", *FAST,
                "--out", str(out))
            == 0
        )
        _, rows = data_rows(out)
        assert rows[0]["certified"] == "true"
        assert float(rows[0]["gap"]) < 1e-3

    def test_log_base_two(self, tmp_path):
        out_e, out_2 = tmp_path / "e.csv", tmp_path / "two.csv"
        args = ("sweep", "--p-min", "0.05", "--p-max", "0.05", "--p-steps", "1", *FAST)
        run(*args, "--out", str(out_e))
        run(*args, "--log-base", "2", "--out", str(out_2))
        _, rows_e = data_rows(out_e)
        _, rows_2 = data_rows(out_2)
        assert float(rows_2[0]["value"]) == pytest.approx(
            float(rows_e[0]["value"]) / math.log(2), rel=1e-12
        )
        # Ratio columns are unit free.
        assert rows_2[0]["a1_max"] == rows_e[0]["a1_max"]

    @pytest.mark.parametrize(
        "command, extra", [("sweep", ()), ("oracle-compare", ("--grid-resolution", "8"))]
    )
    def test_lockstep_rows_equal_each_point_solved_alone(
        self, command, extra, tmp_path, monkeypatch
    ):
        # p = 0 is infinite and stays out of the lockstep run; the other four
        # points run in one qab_run_many call.  Refusing that call makes
        # every point run alone, as solve runs its one point.
        args = (command, "--p-min", "0", "--p-max", "0.1", "--p-steps", "5", *FAST, *extra)
        out = tmp_path / "rows.csv"
        many, sizes = qabcert.cli.qab_run_many, []

        def counted(obj, runs):
            sizes.append(len(runs))
            return many(obj, runs)

        def refused(obj, runs):
            raise ValueError("lockstep run refused")

        monkeypatch.setattr(qabcert.cli, "qab_run_many", counted)
        assert run(*args, "--out", str(out)) == 0
        assert sizes == [4]
        lockstep = out.read_bytes()
        _, rows = data_rows(out)
        assert [row["status"] for row in rows] == ["infinite"] + ["ok"] * 4
        monkeypatch.setattr(qabcert.cli, "qab_run_many", refused)
        assert run(*args, "--out", str(out)) == 0
        assert out.read_bytes() == lockstep

    def test_requires_sweepable_channel(self, tmp_path):
        assert run("sweep", "--channel-m", "depolarizing:0.05", "--out", "-") == 2


class TestUsageErrors:
    def test_bad_gamma(self):
        assert run("solve", "--gamma", "0", "--out", "-") == 2

    @pytest.mark.parametrize(
        "option", ["--gamma", "--eps-max", "--stop-kl"], ids=["gamma", "eps_max", "stop_kl"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_is_usage_error(self, option, value):
        # A NaN passed the old sign checks; JSON output needs finite values.
        assert run("certify", option, value, "--out", "-") == 2

    def test_unknown_channel(self):
        assert run("solve", "--channel-n", "nosuch:1", "--out", "-") == 2

    def test_bad_log_base(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--log-base", "10", "--out", "-")
        assert exc.value.code == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert run("solve", "--config", str(cfg), "--out", "-") == 2

    def test_workers_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--workers", "2", "--out", "-")
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        assert run("sweep", "--config", str(cfg), "--out", "-") == 2

    # No FAST here: its --samples/--iters would override a bad value.
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--iters", "0"],
            ["sweep", "--p-steps", "0"],
            ["sweep", "--samples", "0"],
            ["sweep", "--seed", "-1"],
            ["sweep", "--p-min", "1.5"],
            ["sweep", "--p-min", "0.2", "--p-max", "0.1"],
            ["oracle-compare", "--grid-resolution", "1"],
        ],
        ids=["iters", "p_steps", "samples", "seed", "p_min_range", "p_order", "grid_resolution"],
    )
    def test_out_of_range_value_exits_two_with_one_error_line(self, argv, capsys):
        assert run(*argv, "--out", "-") == 2
        captured = capsys.readouterr()
        assert one_error_line(captured.err)
        assert captured.out == ""

    def test_config_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 5000, "p_steps": 1, "p_min": 0.05, "p_max": 0.05}))
        out = tmp_path / "out.csv"
        assert run("sweep", "--config", str(cfg), "--samples", "100", "--iters", "50",
                   "--out", str(out)) == 0
        header = out.read_text()
        assert "# samples=100" in header
        assert "# p_steps=1" in header


class TestCertifyCommand:
    def test_inline_certification(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("certify", "--channel-m", "depolarizing:0.05", *FAST, "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["certified"] is True
        assert doc["config"]["samples"] == 100
        assert doc["version"]

    def test_from_trajectory_file(self, tmp_path):
        traj_path = tmp_path / "traj.json"
        run("solve", "--channel-m", "depolarizing:0.05", *FAST,
            "--save-trajectory", str(traj_path), "--out", str(tmp_path / "row.csv"))
        out = tmp_path / "report.json"
        code = run("certify", "--channel-m", "depolarizing:0.05", *FAST,
                   "--trajectory", str(traj_path), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["certified"] is True
        # The stored run is certified as the fresh one was: same solve, same cert seed.
        _, [row] = data_rows(tmp_path / "row.csv")
        for check in ("a1", "a2", "a3"):
            for stat in ("min", "max"):
                assert float(row[f"{check}_{stat}"]) == report[check][stat]

    @pytest.fixture
    def saved_trajectory(self, tmp_path):
        path = tmp_path / "traj.json"
        run("solve", "--channel-m", "depolarizing:0.05", *FAST,
            "--save-trajectory", str(path), "--out", str(tmp_path / "row.csv"))
        return path

    def test_gamma_mismatch_is_usage_error(self, saved_trajectory, capsys):
        code = run("certify", "--channel-m", "depolarizing:0.05", *FAST, "--gamma", "2",
                   "--trajectory", str(saved_trajectory), "--out", "-")
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma=1.0" in err and "--gamma is 2.0" in err

    def test_trajectory_without_gamma_is_usage_error(self, saved_trajectory, capsys):
        doc = json.loads(saved_trajectory.read_text())
        del doc["gamma"]
        saved_trajectory.write_text(json.dumps(doc))
        code = run("certify", "--channel-m", "depolarizing:0.05", *FAST,
                   "--trajectory", str(saved_trajectory), "--out", "-")
        assert code == 2
        assert "no recorded gamma" in capsys.readouterr().err

    def test_failed_closed_report_is_strict_json(self, saved_trajectory, tmp_path):
        doc = json.loads(saved_trajectory.read_text())
        doc["step_kl"][2] = "Infinity"
        saved_trajectory.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = run("certify", "--channel-m", "depolarizing:0.05", *FAST,
                   "--trajectory", str(saved_trajectory), "--out", str(out))
        assert code == 1

        def reject(constant):
            raise ValueError(constant)

        report = json.loads(out.read_text(), parse_constant=reject)["report"]
        assert report["a3"]["max"] == "NaN" and report["a3_pass"] is False

    def test_report_file_loads_with_the_verdict_of_the_exit_code(self, saved_trajectory, tmp_path):
        doc = json.loads(saved_trajectory.read_text())
        doc["step_kl"][2] = "Infinity"  # fails (a3) closed
        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(doc))
        codes = []
        for traj in (saved_trajectory, failing):
            out = tmp_path / "report.json"
            codes.append(run("certify", "--channel-m", "depolarizing:0.05", *FAST,
                             "--trajectory", str(traj), "--out", str(out)))
            assert codes[-1] == (0 if load_report(out).certified else 1)
        assert codes == [0, 1]

    def test_loaded_report_derives_its_verdicts_from_its_stats(self, saved_trajectory, tmp_path):
        doc = json.loads(saved_trajectory.read_text())
        doc["step_kl"][2] = "Infinity"  # fails (a3) closed
        saved_trajectory.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run("certify", "--channel-m", "depolarizing:0.05", *FAST,
                   "--trajectory", str(saved_trajectory), "--out", str(out)) == 1
        doc = json.loads(out.read_text())
        doc["report"].update(a3_pass=True, certified=True, a2_tolerance=1.0)
        out.write_text(json.dumps(doc))
        report = load_report(out)
        assert report.a3_pass is False and report.certified is False
        assert report.a2_tolerance == 1e-9

    def test_missing_trajectory_is_usage_error(self, tmp_path):
        assert (
            run("certify", "--trajectory", str(tmp_path / "none.json"), "--out", "-") == 2
        )


class TestEnergyCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert run("energy", *FAST, "--out", str(out)) == 0
        header, rows = data_rows(out)
        assert header[:3] == ["t", "objective", "divergence_estimate"]
        residuals = [abs(float(r["residual_0"])) for r in rows]
        assert max(residuals) <= 1e-8
        objectives = [float(r["objective"]) for r in rows]
        assert np.all(np.diff(objectives) <= 1e-9)

    def test_infeasible_constraint_exits_one(self, tmp_path):
        assert (
            run("energy", "--constraint", "sigma-z=2.0", *FAST,
                "--out", str(tmp_path / "x.csv"))
            == 1
        )

    def test_start_projection_failure_exits_one_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr("qabcert.mixture.MAX_NEWTON_STEPS", 0)
        assert run("energy", "--iters", "5", "--samples", "10", "--out", "-") == 1
        err = capsys.readouterr().err
        prefix = "energy run failed: iteration 0 failed: e-projection did not converge"
        assert one_error_line(err, prefix)

    def test_boundary_target_reaches_the_pure_state_value(self, tmp_path):
        # <Z> = 1 admits only |0><0|, whose divergence is ln(1/0.975); the
        # projected start has a zero eigenvalue that the run floors.
        out = tmp_path / "energy.csv"
        assert run("energy", "--constraint", "sigma-z=1", "--iters", "30", "--samples", "50",
                   "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert max(abs(float(r["residual_0"])) for r in rows) <= 1e-8
        last = float(rows[-1]["divergence_estimate"])
        assert abs(last - math.log(1 / 0.975)) <= 1e-6

    def test_constraints_file_merges_with_flags(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"constraints": [
            {"matrix": complex_matrix_to_pairs(PAULI_Z), "target": -0.25}]}))
        merged, flags = tmp_path / "merged.csv", tmp_path / "flags.csv"
        assert run("energy", "--constraints-file", str(path), "--constraint", "sigma-x=0.1",
                   *FAST, "--out", str(merged)) == 0
        assert run("energy", "--constraint", "sigma-z=-0.25", "--constraint", "sigma-x=0.1",
                   *FAST, "--out", str(flags)) == 0
        header, rows = data_rows(merged)
        assert header[-2:] == ["residual_0", "residual_1"]
        assert (header, rows) == data_rows(flags)

    def test_empty_constraint_matches_solve_trace(self, tmp_path):
        # An explicitly empty family runs the unconstrained path.
        out = tmp_path / "energy.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constraints": []}))
        assert run("energy", "--config", str(cfg), *FAST, "--out", str(out)) == 0
        header, rows = data_rows(out)
        assert "residual_0" not in header
        assert len(rows) >= 2


class TestEqualChannels:
    # The objective of a channel against itself is +0.0; its divergence must not read -0.
    ARGS = ("--channel-n", "dephasing:0.4", "--channel-m", "dephasing:0.4", "--samples", "20")

    def test_solve_value_is_zero(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run("solve", *self.ARGS, "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert rows[0]["value"] == "0"

    def test_energy_estimate_is_zero(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert run("energy", *self.ARGS, "--iters", "3", "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert [row["divergence_estimate"] for row in rows] == ["0"] * len(rows)


class TestOracleCompare:
    def test_bell_pair_rows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run("oracle-compare", "--p-min", "0.05", "--p-max", "0.1", "--p-steps", "2",
                   "--grid-resolution", "21", *FAST, "--out", str(out))
        assert code == 0
        _, rows = data_rows(out)
        for row in rows:
            assert float(row["gap_bell"]) < 1e-3
            assert float(row["gap_brute"]) < 0.05

    def test_non_bell_pair_is_usage_error(self, tmp_path):
        k0 = np.array([[1, 0], [0, np.sqrt(0.7)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex)
        path = tmp_path / "ad.json"
        save_channel(path, choi_from_kraus([k0, k1]))
        assert (
            run("oracle-compare", "--channel-n", str(path), "--out", "-") == 2
        )


class TestOneRowBuilder:
    EDGE = ("--channel-n", "depolarizing:1e-12", "--channel-m", "dephasing",
            "--p-min", "0", "--p-max", "0.4", "--p-steps", "2", *FAST)

    @pytest.mark.parametrize(
        "command, extra, oracle, gap",
        [("sweep", (), "oracle", "gap"),
         ("oracle-compare", ("--grid-resolution", "8"), "bell_oracle", "gap_bell")],
    )
    def test_pair_leaking_below_the_tolerance_has_a_finite_oracle(
        self, command, extra, oracle, gap, tmp_path
    ):
        # At p = 0.4 channel-n leaks 1e-12 of its mass outside channel-m's
        # support, below OUTSIDE_MASS_TOL, so the pair is finite; the oracle
        # printed inf there while the solver certified a finite value.
        out = tmp_path / "edge.csv"
        assert run(command, *self.EDGE, *extra, "--out", str(out)) == 0
        _, [zero, edge] = data_rows(out)
        assert zero["status"] == "infinite"
        assert float(zero["value"]) == float(zero[oracle]) == math.inf
        assert math.isnan(float(zero[gap]))
        assert edge["status"] == "ok"
        assert abs(float(edge[oracle]) - float(edge["value"])) <= 1e-9
        assert float(edge[gap]) <= 1e-9

    def test_oracle_compare_rows_are_sweep_rows(self, tmp_path):
        grid = ("--p-min", "0", "--p-max", "0.1", "--p-steps", "3", *FAST)
        sweep_out, compare_out = tmp_path / "sweep.csv", tmp_path / "compare.csv"
        assert run("sweep", *grid, "--out", str(sweep_out)) == 0
        assert run("oracle-compare", *grid, "--grid-resolution", "8",
                   "--out", str(compare_out)) == 0
        _, sweep_rows = data_rows(sweep_out)
        _, compare_rows = data_rows(compare_out)
        assert [row["status"] for row in sweep_rows] == ["infinite", "ok", "ok"]
        assert [(r["value"], r["bell_oracle"], r["gap_bell"]) for r in compare_rows] == [
            (r["value"], r["oracle"], r["gap"]) for r in sweep_rows
        ]


class TestIdentityChannel:
    def test_solve_fills_the_oracle_column(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run("solve", "--channel-n", "identity", "--channel-m", "depolarizing:0.05",
                   *FAST, "--out", str(out)) == 0
        _, [row] = data_rows(out)
        assert row["status"] == "ok"
        oracle = float(row["oracle"])
        assert oracle == pytest.approx(-math.log(1 - 0.75 * 0.05), rel=1e-12)
        assert abs(float(row["value"]) - oracle) < 1e-3


class TestChannelFiles:
    def test_solve_from_channel_file(self, tmp_path):
        from qabcert import dephasing_choi

        path = tmp_path / "deph.json"
        save_channel(path, dephasing_choi(0.4))
        out = tmp_path / "row.csv"
        assert (
            run("solve", "--channel-n", str(path), "--channel-m", "depolarizing:0.05",
                *FAST, "--out", str(out))
            == 0
        )
        _, rows = data_rows(out)
        assert float(rows[0]["value"]) == pytest.approx(1.9715, abs=1e-3)

    def test_finite_ququart_pair_solves(self, tmp_path):
        # Ququart rank 4 vs rank 16 (full-rank Gamma_M): the divergence is
        # finite even where the iterate nears the boundary of the state space.
        for name, seed, rank in (("n4", 31, 4), ("m4", 32, 16)):
            save_channel(tmp_path / f"{name}.json", choi_from_kraus(random_kraus(seed, 4, 4, rank)))
        out = tmp_path / "row.csv"
        argv = ("--channel-n", str(tmp_path / "n4.json"), "--channel-m", str(tmp_path / "m4.json"))
        assert run("solve", *argv, "--samples", "20", "--iters", "100", "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert rows[0]["status"] == "ok"
        assert math.isfinite(float(rows[0]["value"]))

    def test_kraus_file_with_more_outputs_than_inputs(self, tmp_path):
        path = tmp_path / "k23.json"
        path.write_text(json.dumps(kraus_doc(isometry_kraus_2to3(), dim_a=2, dim_b=3)))
        out = tmp_path / "row.csv"
        assert (
            run("solve", "--channel-n", str(path), "--channel-m", str(path), *FAST,
                "--out", str(out))
            == 0
        )
        _, rows = data_rows(out)
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["value"]) == pytest.approx(0.0, abs=1e-12)

    def test_kraus_file_with_wrong_dim_b(self, tmp_path, capsys):
        path = tmp_path / "k23.json"
        path.write_text(json.dumps(kraus_doc(isometry_kraus_2to3(), dim_a=2, dim_b=2)))
        out = tmp_path / "row.csv"
        assert run("solve", "--channel-n", str(path), *FAST, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert one_error_line(err) and "dim_b=2" in err and "(3, 2)" in err
        assert not out.exists()


def kraus_doc(kraus, dim_a, dim_b) -> dict:
    return {"format": "kraus", "dim_a": dim_a, "dim_b": dim_b,
            "kraus": [complex_matrix_to_pairs(k) for k in kraus]}


def one_error_line(err: str, prefix: str = "error:") -> bool:
    return err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


# Each case: files to write into tmp_path, then argv with "{tmp}" standing
# for tmp_path.
BAD_INPUTS = {
    "channel-file-not-json": ({"c.json": "{not json"}, ["solve", "--channel-n", "{tmp}/c.json"]),
    "channel-file-without-dim_a": (
        {"c.json": json.dumps({"format": "choi", "dim_b": 2, "choi": []})},
        ["solve", "--channel-n", "{tmp}/c.json"],
    ),
    "matrix-file-without-matrix": (
        {"h.json": json.dumps({"rows": complex_matrix_to_pairs(np.eye(2))})},
        ["energy", "--constraint", "{tmp}/h.json=0.1"],
    ),
    "constraints-file-without-target": (
        {"f.json": json.dumps({"constraints": [{"matrix": complex_matrix_to_pairs(np.eye(2))}]})},
        ["energy", "--constraints-file", "{tmp}/f.json"],
    ),
    "config-is-a-list": ({"cfg.json": "[1, 2]"}, ["solve", "--config", "{tmp}/cfg.json"]),
    "trajectory-not-json": ({"t.json": "{not json"}, ["certify", "--trajectory", "{tmp}/t.json"]),
    "trajectory-of-one-state": (
        {"t.json": json.dumps({"gamma": 1.0, "values": [0.0], "step_kl": [], "step_domega": [],
                               "states": [complex_matrix_to_pairs(np.eye(2) / 2)]})},
        ["certify", "--trajectory", "{tmp}/t.json"],
    ),
    "trajectory-without-states": (
        {"t.json": json.dumps({"gamma": 1.0, "values": [0.0, 0.0], "step_kl": [0.0],
                               "step_domega": [0.0], "tau_history": []})},
        ["certify", "--trajectory", "{tmp}/t.json"],
    ),
    **{
        f"trajectory-state-{edit}": (
            {"t.json": solve_trajectory(edit)},
            ["certify", "--trajectory", "{tmp}/t.json"],
        )
        for edit in BAD_STATE_EDITS
    },
    "channel-parameter-not-a-number": ({}, ["solve", "--channel-m", "depolarizing:abc"]),
    "config-int-as-string": (
        {"cfg.json": '{"samples": "100"}'},
        ["solve", "--config", "{tmp}/cfg.json"],
    ),
    "config-float-as-bool": (
        {"cfg.json": '{"gamma": true}'},
        ["solve", "--config", "{tmp}/cfg.json"],
    ),
    "config-list-as-string": (
        {"cfg.json": '{"constraints": "sigma-z=0.1"}'},
        ["energy", "--config", "{tmp}/cfg.json"],
    ),
    "builtin-channel-without-parameter": ({}, ["solve", "--channel-m", "depolarizing"]),
    "constraint-without-target": ({}, ["energy", "--constraint", "sigma-z"]),
    "constraint-target-not-a-number": ({}, ["energy", "--constraint", "sigma-z=abc"]),
    "dependent-constraints": (
        {},
        ["energy", "--constraint", "sigma-z=0.1", "--constraint", "sigma-z=0.2"],
    ),
    "channel-file-of-unknown-format": (
        {"c.json": json.dumps({"format": "stinespring", "dim_a": 2, "dim_b": 2})},
        ["solve", "--channel-n", "{tmp}/c.json"],
    ),
    "constraint-matrix-not-hermitian": (
        {"h.json": json.dumps({"matrix": complex_matrix_to_pairs(np.array([[1, 1], [0, -1]]))})},
        ["energy", "--constraint", "{tmp}/h.json=-0.25"],
    ),
    "constraint-target-nan": ({}, ["energy", "--constraint", "sigma-z=nan"]),
    "constraint-matrix-file-a-bare-list": (
        {"h.json": json.dumps(complex_matrix_to_pairs(PAULI_Z))},
        ["energy", "--constraint", "{tmp}/h.json=0.1"],
    ),
    "channel-file-choi-one-sided-off-diagonal": (
        {"c.json": json.dumps({
            "format": "choi", "dim_a": 2, "dim_b": 2,
            "choi": complex_matrix_to_pairs(depolarizing_choi(0.3).mat + np.diag([0.2, 0, 0], 1)),
        })},
        ["solve", "--channel-n", "{tmp}/c.json"],
    ),
    "config-int-beyond-float-range": (
        {"cfg.json": '{"p_min": 1' + "0" * 400 + "}"},
        ["sweep", "--config", "{tmp}/cfg.json"],
    ),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_two_with_one_error_line(self, case, tmp_path, capsys):
        files, argv = case
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        out = tmp_path / "out"
        assert run(*argv, *FAST, "--out", str(out)) == 2
        assert one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--save-trajectory"])
    def test_unwritable_output_path(self, flag, tmp_path, capsys):
        paths = {"--out": str(tmp_path / "row.csv"), flag: str(tmp_path / "no-dir" / "file")}
        assert run("solve", *FAST, *[arg for item in paths.items() for arg in item]) == 2
        assert one_error_line(capsys.readouterr().err)

    def test_channel_file_with_colon_in_path(self, tmp_path):
        path = tmp_path / "dep:0.05.json"
        save_channel(path, depolarizing_choi(0.05))
        out = tmp_path / "row.csv"
        assert run("solve", "--channel-m", str(path), *FAST, "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert rows[0]["p"] == "nan"
        assert float(rows[0]["value"]) == pytest.approx(1.9715, abs=1e-3)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_qutrit_channel_against_qubit_channel(self, command, tmp_path, capsys):
        path = tmp_path / "qutrit.json"
        save_channel(path, choi_from_kraus([np.eye(3)]))
        out = tmp_path / "out"
        assert run(command, "--channel-n", str(path), "--out", str(out)) == 2
        assert one_error_line(capsys.readouterr().err)
        assert not out.exists()

    def test_constraint_of_other_dimension(self, tmp_path, capsys):
        path = tmp_path / "h3.json"
        path.write_text(json.dumps({"matrix": complex_matrix_to_pairs(np.diag([1.0, 0.0, -1.0]))}))
        out = tmp_path / "out.csv"
        assert run("energy", "--constraint", f"{path}=0.1", *FAST, "--out", str(out)) == 2
        assert "input dimension is 2" in capsys.readouterr().err

    def test_trajectory_of_other_dimension(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        state = np.eye(3, dtype=complex) / 3
        save_trajectory(path, Trajectory([state, state], [0.0, 0.0], [0.0], [0.0], gamma=1.0))
        assert run("certify", "--trajectory", str(path), *FAST, "--out", "-") == 2
        assert one_error_line(capsys.readouterr().err)


class TestFailedRows:
    def test_nothing_kept_status_names_a_public_error(self, tmp_path):
        # With eps_max 1e-9 every (a1) draw has D ~ 1e-18, below the skip tolerance.
        out = tmp_path / "row.csv"
        argv = ("solve", "--channel-m", "depolarizing:0.05", "--eps-max", "1e-9", "--samples", "5")
        assert run(*argv, "--out", str(out)) == 1
        _, rows = data_rows(out)
        assert rows[0]["status"] == "failed:NothingKeptError"
        assert "NothingKeptError" in qabcert.__all__

    def test_lapack_failure_fails_only_its_row(self, monkeypatch, capsys):
        # Decomposing point 0's start fails, in a stack of starts and alone.
        eigh = np.linalg.eigh
        start = hermitize(random_density(2, np.random.default_rng([RunConfig().seed, 0, 0])))

        def eigh_failing_on_point_0(a, *args, **kwargs):
            if np.shape(a)[-2:] == start.shape and np.any(np.all(a == start, axis=(-2, -1))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_point_0)
        argv = ("sweep", "--p-steps", "2", "--samples", "20", "--iters", "20", "--out", "-")
        assert run(*argv) == 1
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        statuses = [dict(zip(header, line.split(",")))["status"] for line in lines[1:]]
        assert statuses == ["failed:LinAlgError", "ok"]


class TestInfiniteDivergence:
    @pytest.mark.parametrize("command", ["energy", "certify"])
    def test_single_run_command_exits_one_naming_leaked_mass(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(command, "--channel-m", "depolarizing:0", *FAST, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert one_error_line(err, f"{command} run failed:") and "leaked mass" in err
        assert not out.exists()

    def test_solve_reports_infinite_row(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run("solve", "--channel-m", "depolarizing:0", *FAST, "--out", str(out)) == 0
        _, rows = data_rows(out)
        assert rows[0]["status"] == "infinite"
        assert float(rows[0]["value"]) == math.inf


class TestUnreadSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--constraint", "sigma-z=-0.25"),
            ("sweep", "--p-steps", "1", "--save-trajectory", "{tmp}/t.json"),
        ],
        ids=["solve-constraint", "sweep-save-trajectory"],
    )
    def test_flag_is_rejected(self, argv, tmp_path):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            run(*argv, *FAST, "--out", str(tmp_path / "out.csv"))
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_config_key_is_rejected_naming_key_and_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constraints": ["sigma-z=-0.25"]}))
        assert run("solve", "--config", str(cfg), *FAST, "--out", str(tmp_path / "row.csv")) == 2
        err = capsys.readouterr().err
        assert one_error_line(err) and "'constraints'" in err and "solve" in err

    def test_each_setting_is_read_by_some_command(self):
        settings = [name for command in COMMANDS.values() for name in command.fields]
        assert set(settings) == set(vars(RunConfig())) - {"command"}
        assert len(settings) == 60


def test_module_entry_point_reports_usage_error(tmp_path):
    src = str(Path(qabcert.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qabcert", "solve", "--channel-n", "missing.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 2
    assert one_error_line(proc.stderr)

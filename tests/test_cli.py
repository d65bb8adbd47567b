import json
import math

import numpy as np
import pytest

from qabcert.cli import main
from qabcert.quantum import choi_from_kraus
from qabcert.serialize import save_channel


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

    def test_requires_sweepable_channel(self, tmp_path):
        assert run("sweep", "--channel-m", "depolarizing:0.05", "--out", "-") == 2


class TestUsageErrors:
    def test_bad_gamma(self):
        assert run("solve", "--gamma", "0", "--out", "-") == 2

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
        assert json.loads(out.read_text())["report"]["certified"] is True

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

    def test_empty_constraint_matches_solve_trace(self, tmp_path):
        # An explicitly empty family runs the unconstrained path.
        out = tmp_path / "energy.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constraints": []}))
        assert run("energy", "--config", str(cfg), *FAST, "--out", str(out)) == 0
        header, rows = data_rows(out)
        assert "residual_0" not in header
        assert len(rows) >= 2


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

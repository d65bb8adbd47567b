"""The benchmark's workloads: inputs derived from a seed, CLI commands, output checks.

Each workload is a list of ``qabcert`` CLI commands, run in-process through
``qabcert.cli.main`` exactly as a user would type them.  Every input (the
CLI ``--seed``, channel parameters, channel files, constraint targets) is
derived from the benchmark seed, so the same seed gives the same commands.

Why these three (README.md has the layer map):

* ``sweep``: the paper's experiment; (a1) neighbourhood sampling dominates.
* ``oracle``: ``oracle-compare`` at a fine Bloch grid; the batched
  brute-force oracle (10^5 matrices per ``linalg`` call) dominates.
* ``iterate``: long iterations on non-Bell qubit pairs, ``dim_a = 3`` pairs
  and energy-constrained runs; the fixed-point step itself (one small matrix
  per ``linalg`` call) dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qabcert.channel_re import ChannelPair, brute_force_oracle
from qabcert.linalg import matrix_inv_sqrt
from qabcert.quantum import choi_from_kraus, dephasing_choi, depolarizing_choi
from qabcert.serialize import save_channel

# Run sizes.  ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "sweep": {"p_steps": 25, "samples": 1000},
        "oracle": {"p_steps": 2, "samples": 100, "resolution": 50},
        "iterate": {"samples": 100, "iters": 600, "check_resolution": 40},
    },
    "tiny": {
        "sweep": {"p_steps": 3, "samples": 20},
        "oracle": {"p_steps": 1, "samples": 20, "resolution": 8},
        "iterate": {"samples": 20, "iters": 15, "check_resolution": 12},
    },
}

# Tolerances of the output checks (acceptance criteria 1 and 6).
VALUE_TOL = 1e-3
RESIDUAL_TOL = 1e-8
ROUNDING = 1e-9

# The paper's Bell-diagonal family: dephasing(0.4) against depolarizing(p).
PAPER_DEPHASING = "dephasing:0.4"
PAPER_P_RANGE = (0.004, 0.1)


@dataclass
class Command:
    """One CLI invocation and what its output is checked against."""

    kind: str
    argv: list
    out: Path
    expect_rows: int = 1
    pair: tuple | None = None  # (choi_n, choi_m) for the brute-force check


@dataclass
class Outcome:
    """Check result of one command's output."""

    ops: int = 0
    failed: int = 0
    solved: int = 0
    certified: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _cli_seed(seed: int, index: int) -> str:
    return str(int(_rng(seed, 0, index).integers(2**31 - 1)))


def _random_kraus(rng: np.random.Generator, dim: int, rank: int) -> list:
    """Kraus operators of a random channel: blocks of a Haar-like isometry."""
    g = rng.standard_normal((rank * dim, dim)) + 1j * rng.standard_normal((rank * dim, dim))
    v = g @ matrix_inv_sqrt(np.conj(g.T) @ g)
    return [v[i * dim : (i + 1) * dim] for i in range(rank)]


def _amplitude_damping(g: float) -> list:
    return [np.array([[1, 0], [0, math.sqrt(1 - g)]]), np.array([[0, math.sqrt(g)], [0, 0]])]


def _sweep(seed: int, work: Path, size: dict) -> list:
    out = work / "sweep.csv"
    argv = [
        "sweep",
        "--channel-n", PAPER_DEPHASING,
        "--channel-m", "depolarizing",
        "--p-min", repr(PAPER_P_RANGE[0]),
        "--p-max", repr(PAPER_P_RANGE[1]),
        "--p-steps", str(size["p_steps"]),
        "--gamma", "1",
        "--iters", "100",
        "--stop-kl", "1e-10",
        "--samples", str(size["samples"]),
        "--seed", _cli_seed(seed, 0),
        "--out", str(out),
    ]  # fmt: skip
    return [Command("sweep", argv, out, expect_rows=size["p_steps"])]


def _oracle(seed: int, work: Path, size: dict) -> list:
    # The grid is the paper's range, not seeded: the brute-force cost per
    # point depends on p by up to 20%, which would read as run-to-run spread.
    # The seed sets the solver's initial states and the (a1) draws.  Each
    # point is its own oracle-compare command, so the speed probe between
    # commands (speed.py) samples the host's speed every second or two.
    p_min, p_max = PAPER_P_RANGE
    steps = size["p_steps"]
    cli_seed = _cli_seed(seed, 1)
    commands = []
    grid = [p_min] if steps == 1 else np.linspace(p_min, p_max, steps)
    for i, p in enumerate(grid):
        out = work / f"oracle_{i}.csv"
        commands.append(
            Command(
                "oracle",
                [
                    "oracle-compare",
                    "--channel-n", PAPER_DEPHASING,
                    "--channel-m", "depolarizing",
                    "--p-min", repr(float(p)),
                    "--p-max", repr(float(p)),
                    "--p-steps", "1",
                    "--samples", str(size["samples"]),
                    "--grid-resolution", str(size["resolution"]),
                    "--seed", cli_seed,
                    "--out", str(out),
                ],  # fmt: skip
                out,
            )
        )
        out = work / f"certify_{i}.json"
        commands.append(
            Command(
                "certify",
                [
                    "certify",
                    "--channel-n", PAPER_DEPHASING,
                    "--channel-m", f"depolarizing:{float(p)!r}",
                    "--samples", str(size["samples"]),
                    "--seed", cli_seed,
                    "--out", str(out),
                ],  # fmt: skip
                out,
            )
        )
    return commands


def _iterate(seed: int, work: Path, size: dict) -> list:
    rng = _rng(seed, 2)
    iters = str(size["iters"])
    samples = str(size["samples"])
    commands = []

    def channel_file(name: str, choi) -> str:
        path = work / f"{name}.json"
        save_channel(path, choi)
        return str(path)

    def solve(name: str, spec_n: str, spec_m: str, pair: tuple, fixed_length: bool) -> None:
        index = len(commands)
        out = work / f"{name}.csv"
        argv = ["solve", "--channel-n", spec_n, "--channel-m", spec_m,
                "--samples", samples, "--iters", iters, "--seed", _cli_seed(seed, 10 + index),
                "--out", str(out),
                "--save-trajectory", str(work / f"{name}.traj.json")]  # fmt: skip
        if fixed_length:
            argv += ["--stop-kl", "0"]
        commands.append(Command("solve", argv, out, pair=pair))

    # Non-Bell pairs run exactly --iters steps (no early stop), so the
    # step count does not depend on the seed.  None of them certifies at
    # the seed commit (ROADMAP item 1).
    g = float(rng.uniform(0.1, 0.4))
    p = float(rng.uniform(0.3, 0.6))
    choi_ad, choi_dep = choi_from_kraus(_amplitude_damping(g)), depolarizing_choi(p)
    solve("amp_damping", channel_file("amp_damping", choi_ad), f"depolarizing:{p!r}",
          (choi_ad, choi_dep), True)  # fmt: skip
    for name, dim, rank in (("kraus2", 2, 2), ("kraus3", 3, 2)):
        choi_n = choi_from_kraus(_random_kraus(rng, dim, rank))
        choi_m = choi_from_kraus(_random_kraus(rng, dim, dim * dim))
        solve(name, channel_file(f"{name}_n", choi_n), channel_file(f"{name}_m", choi_m),
              (choi_n, choi_m), True)  # fmt: skip

    # Bell-diagonal control from the paper's family, run as ``sweep`` runs
    # it (default early stop); it certifies at the seed commit.
    p_bell = float(rng.uniform(*PAPER_P_RANGE))
    solve("bell", PAPER_DEPHASING, f"depolarizing:{p_bell!r}",
          (dephasing_choi(0.4), depolarizing_choi(p_bell)), False)  # fmt: skip

    cz = float(rng.uniform(-0.4, 0.4))
    cx = float(rng.uniform(-0.4, 0.4))
    for constraints in ([f"sigma-z={cz!r}"], [f"sigma-z={cz!r}", f"sigma-x={cx!r}"]):
        index = len(commands)
        out = work / f"energy_{len(constraints)}.csv"
        argv = ["energy", "--channel-n", PAPER_DEPHASING, "--channel-m", f"depolarizing:{p_bell!r}",
                "--samples", samples, "--iters", iters, "--stop-kl", "0",
                "--seed", _cli_seed(seed, 10 + index), "--out", str(out)]  # fmt: skip
        for c in constraints:
            argv += ["--constraint", c]
        commands.append(Command("energy", argv, out, expect_rows=size["iters"] + 1))
    return commands


_BUILDERS = {"sweep": _sweep, "oracle": _oracle, "iterate": _iterate}


def build(name: str, seed: int, work: Path, size: str = "full") -> list:
    """Generate the workload's inputs under ``work`` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work, SIZES[size][name])


def _csv_rows(text: str) -> list:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= VALUE_TOL


def check(cmd: Command, rc, text, brute_cache: dict, resolution: int) -> Outcome:
    """Check one command's exit code and output; never raises on bad output.

    ``brute_cache`` memoizes the (untimed) brute-force reference per pair.
    """
    # An energy run or a certify call is one operation; otherwise each row is.
    res = Outcome(ops=1 if cmd.kind in ("energy", "certify") else cmd.expect_rows)
    if rc is None or text is None:
        res.fail(f"{cmd.kind}: crashed or wrote no output", res.ops)
        return res
    try:
        _check_output(cmd, rc, text, res, brute_cache, resolution)
    except (ValueError, KeyError, IndexError) as exc:
        res = Outcome(ops=res.ops)
        res.fail(f"{cmd.kind}: unreadable output ({exc!r})", res.ops)
    return res


def _check_output(cmd: Command, rc: int, text: str, res: Outcome, brute_cache: dict,
                  resolution: int) -> None:  # fmt: skip
    if cmd.kind == "certify":
        # Exit 1 means "not certified", which is a verdict, not an error.
        if rc not in (0, 1):
            res.fail(f"certify: exit code {rc}")
            return
        certified = bool(json.loads(text)["report"]["certified"])
        if certified != (rc == 0):
            res.fail("certify: exit code disagrees with the report")
        res.solved, res.certified = 1, int(certified)
        return

    rows = _csv_rows(text)
    if len(rows) != cmd.expect_rows:
        res.fail(f"{cmd.kind}: {len(rows)} rows, expected {cmd.expect_rows}", res.ops)
        return
    if rc != 0:
        res.fail(f"{cmd.kind}: exit code {rc}")
    for row in rows:
        if cmd.kind == "energy":
            residuals = [abs(float(v)) for k, v in row.items() if k.startswith("residual_")]
            if not math.isfinite(float(row["objective"])) or max(residuals) > RESIDUAL_TOL:
                res.fail(f"energy: residual {max(residuals):.3e} at t={row['t']}")
                break
            continue
        if cmd.kind == "solve" and row["status"] == "infinite" and row["oracle"] == "nan":
            # Every M here has a full-rank Choi matrix, so the divergence is
            # finite and `infinite` is wrong: a near-pure iterate trips the
            # support check (ROADMAP items 1 and 2).  Like any uncertified
            # non-Bell row it lowers certified_frac instead of failing.
            res.solved += 1
            res.notes.append(f"solve: status infinite for {Path(cmd.argv[2]).name}")
            continue
        if row["status"] != "ok":
            res.fail(f"{cmd.kind}: row status {row['status']}")
            continue
        value = float(row["value"])
        if cmd.kind == "oracle":
            bell, brute = float(row["bell_oracle"]), float(row["brute_oracle"])
            if not float(row["gap_bell"]) <= VALUE_TOL:
                res.fail(f"oracle: gap_bell {row['gap_bell']} at p={row['p']}")
            elif not brute <= bell + ROUNDING * max(1.0, abs(bell)):
                res.fail(f"oracle: grid value {brute} exceeds Bell oracle {bell}")
            continue
        res.solved += 1
        certified = row["certified"] == "true"
        res.certified += certified
        oracle = float(row["oracle"])
        if math.isfinite(oracle) and not _close(value, oracle):
            res.fail(f"{cmd.kind}: value {value} vs oracle {oracle} at p={row['p']}")
        elif cmd.kind == "solve" and certified and cmd.pair[0].dim_a == 2:
            key = tuple(cmd.argv)
            if key not in brute_cache:
                pair = ChannelPair(choi_n=cmd.pair[0], choi_m=cmd.pair[1])
                brute_cache[key] = -brute_force_oracle(pair, resolution)[0]
            if not _close(value, brute_cache[key]):
                res.fail(f"solve: certified value {value} vs grid {brute_cache[key]}")

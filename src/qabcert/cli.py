"""Command-line interface reproducing the channel-divergence experiments.

Commands: ``sweep`` (divergence vs. depolarizing parameter with per-point
certification), ``solve`` (one channel pair), ``certify`` (certification of
a stored or freshly computed trajectory), ``energy`` (energy-constrained
run, per-iteration trace) and ``oracle-compare`` (solver vs. the two
independent oracles).

Exit codes: 0 success (and, for ``certify``, all conditions passed),
1 numeric or certification failure, 2 usage error.  Identical configs
produce byte-identical output files; every output embeds the resolved
config and the library version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import certify
from .channel_re import (
    ChannelObjective,
    ChannelPair,
    OracleInapplicableError,
    SupportViolationError,
    bell_diagonal_oracle,
    brute_force_oracle,
    solve_energy_constrained,
    solve_unconstrained,
)
from .linalg import hermitize
from .mixture import InfeasibleFamilyError, MixtureFamily
from .qab_core import IterationError, QabOptions, qab_run
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ChoiMatrix,
    choi_from_kraus,
    dephasing_choi,
    depolarizing_choi,
    random_density,
)
from .serialize import (
    load_channel,
    load_constraints,
    load_trajectory,
    pairs_to_complex_matrix,
    report_to_dict,
    save_trajectory,
)

__all__ = ["main", "RunConfig", "UsageError"]

_BUILTIN_MATRICES = {"sigma-x": PAULI_X, "sigma-y": PAULI_Y, "sigma-z": PAULI_Z}

SWEEP_COLUMNS = (
    "p",
    "value",
    "oracle",
    "gap",
    "a1_min",
    "a1_max",
    "a2_min",
    "a2_max",
    "a3_min",
    "a3_max",
    "certified",
    "xme_bound",
    "iterations",
    "status",
)

ORACLE_COLUMNS = (
    "p",
    "value",
    "bell_oracle",
    "brute_oracle",
    "gap_bell",
    "gap_brute",
    "status",
)


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclasses.dataclass
class RunConfig:
    """Resolved run configuration (config file merged with flags)."""

    command: str = ""
    channel_n: str = "dephasing:0.4"
    channel_m: str = "depolarizing"
    p_min: float = 0.004
    p_max: float = 0.1
    p_steps: int = 25
    gamma: float = 1.0
    iterations: int = 100
    seed: int = 20240801
    samples: int = 10000
    eps_max: float = 0.1
    stop_kl: float = 1e-10
    log_base: str = "e"
    out: str = ""
    grid_resolution: int = 50
    constraints: list | None = None  # None means "use the command default"
    constraints_file: str = ""
    trajectory: str = ""
    save_trajectory: str = ""

    def validate(self) -> None:
        if self.gamma <= 0:
            raise UsageError("gamma must be positive")
        if self.iterations < 1:
            raise UsageError("iterations must be >= 1")
        if self.p_steps < 1:
            raise UsageError("p-steps must be >= 1")
        if not (0.0 <= self.p_min <= 1.0 and 0.0 <= self.p_max <= 1.0):
            raise UsageError("p-min and p-max must lie in [0, 1]")
        if self.p_min > self.p_max:
            raise UsageError("p-min must not exceed p-max")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if self.eps_max <= 0:
            raise UsageError("eps-max must be positive")
        if self.stop_kl < 0:
            raise UsageError("stop-kl must be >= 0 (0 disables the early stop)")
        if self.log_base not in ("e", "2"):
            raise UsageError("log-base must be 'e' or '2'")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.grid_resolution < 2:
            raise UsageError("grid-resolution must be >= 2")

    @property
    def log_scale(self) -> float:
        return 1.0 if self.log_base == "e" else math.log(2.0)

    @property
    def stop(self):
        return None if self.stop_kl == 0 else self.stop_kl


def _derive_seed(*keys) -> int:
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)[0])


def _parse_channel(spec: str, parameter: float | None = None) -> ChoiMatrix:
    """Resolve a channel source: builtin name[:param] or a channel file path."""
    name, _, arg = spec.partition(":")
    if name in ("dephasing", "depolarizing"):
        if arg == "" and parameter is None:
            raise UsageError(f"channel '{spec}' needs a parameter (e.g. {name}:0.4)")
        value = parameter if arg == "" else float(arg)
        try:
            return dephasing_choi(value) if name == "dephasing" else depolarizing_choi(value)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if spec == "identity":
        return choi_from_kraus([np.eye(2)])
    path = Path(spec)
    if path.exists():
        return load_channel(path)
    raise UsageError(f"unknown channel source {spec!r} (not a builtin, not a file)")


def _channel_pair(cfg: RunConfig, p: float | None = None) -> ChannelPair:
    """The configured pair; ``p`` parameterizes a parameterless channel-m."""
    return ChannelPair(
        choi_n=_parse_channel(cfg.channel_n), choi_m=_parse_channel(cfg.channel_m, parameter=p)
    )


def _parse_constraint(entry: str):
    source, sep, target = entry.rpartition("=")
    if not sep or not source:
        raise UsageError(f"constraint {entry!r} must look like matrix-file=target")
    try:
        value = float(target)
    except ValueError as exc:
        raise UsageError(f"constraint target {target!r} is not a number") from exc
    if source in _BUILTIN_MATRICES:
        return _BUILTIN_MATRICES[source], value
    path = Path(source)
    if not path.exists():
        raise UsageError(f"constraint matrix file {source!r} does not exist")
    doc = json.loads(path.read_text())
    rows = doc["matrix"] if isinstance(doc, dict) else doc
    return hermitize(pairs_to_complex_matrix(rows)), value


def _build_family(cfg: RunConfig) -> MixtureFamily:
    obs, targets = [], []
    if cfg.constraints_file:
        fam = load_constraints(cfg.constraints_file)
        obs.extend(fam.observables)
        targets.extend(fam.targets)
    for entry in cfg.constraints or []:
        h, c = _parse_constraint(entry)
        obs.append(h)
        targets.append(c)
    try:
        return MixtureFamily(observables=tuple(obs), targets=tuple(targets))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _config_values(cfg: RunConfig) -> dict:
    """Resolved config by field name, with list values joined by ';'."""
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig)}
    return {k: ";".join(v) if isinstance(v, list) else v for k, v in values.items()}


def _config_header(cfg: RunConfig) -> list:
    lines = [f"# qabcert-version={__version__}"]
    for name, value in _config_values(cfg).items():
        lines.append(f"# {name}={'' if value is None else _fmt(value)}")
    return lines


def _write_csv(path: str, cfg: RunConfig, columns, rows) -> None:
    lines = _config_header(cfg)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _qab_options(cfg: RunConfig, pair: ChannelPair, index: int) -> QabOptions:
    initial = random_density(pair.dim_a, np.random.default_rng([cfg.seed, index, 0]))
    return QabOptions(
        initial=initial,
        gamma=cfg.gamma,
        max_iters=cfg.iterations,
        divergence_stop=cfg.stop,
    )


def _solve_point(cfg: RunConfig, pair: ChannelPair, index: int):
    return solve_unconstrained(
        pair,
        _qab_options(cfg, pair, index),
        n_samples=cfg.samples,
        eps_max=cfg.eps_max,
        cert_seed=_derive_seed(cfg.seed, index, 1),
    )


def _sweep_row(cfg: RunConfig, p: float, index: int):
    """Compute one grid row; returns (row, SolveResult or None)."""
    scale = cfg.log_scale
    row = {c: float("nan") for c in SWEEP_COLUMNS}
    row.update(p=p, certified=False, iterations=0, status="ok")
    try:
        pair = _channel_pair(cfg, p)
    except UsageError:
        raise
    except Exception as exc:  # invalid parameter for this point
        row["status"] = f"failed:{type(exc).__name__}"
        return row, None
    try:
        row["oracle"] = bell_diagonal_oracle(pair) / scale
    except OracleInapplicableError:
        pass
    try:
        result = _solve_point(cfg, pair, index)
    except SupportViolationError:
        row["value"] = float("inf")
        row["status"] = "infinite"
        return row, None
    except (IterationError, ValueError) as exc:
        row["status"] = f"failed:{type(exc).__name__}"
        return row, None
    report = result.report
    row.update(
        value=result.value / scale,
        a1_min=report.a1.min,
        a1_max=report.a1.max,
        a2_min=report.a2.min,
        a2_max=report.a2.max,
        a3_min=report.a3.min,
        a3_max=report.a3.max,
        certified=report.certified,
        xme_bound=pair.dim_a * report.bound_value / scale,
        iterations=len(result.trajectory.states) - 1,
    )
    if math.isfinite(row["oracle"]):
        row["gap"] = abs(row["value"] - row["oracle"])
    return row, result


def _grid(cfg: RunConfig) -> list:
    """The p grid of a sweep over a parameterless builtin channel-m."""
    if cfg.channel_m not in ("dephasing", "depolarizing"):
        raise UsageError(
            f"{cfg.command} needs a parameterless builtin channel-m (got {cfg.channel_m!r})"
        )
    if cfg.p_steps == 1:
        return [cfg.p_min]
    return list(np.linspace(cfg.p_min, cfg.p_max, cfg.p_steps))


def cmd_sweep(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    _parse_channel(cfg.channel_n)  # validate before computing
    rows = [_sweep_row(cfg, float(p), index)[0] for index, p in enumerate(grid)]
    _write_csv(cfg.out or "sweep.csv", cfg, SWEEP_COLUMNS, rows)
    return 1 if any(str(r["status"]).startswith("failed") for r in rows) else 0


def cmd_solve(cfg: RunConfig) -> int:
    _channel_pair(cfg)  # validate before computing
    _, _, arg = cfg.channel_m.partition(":")
    p = float(arg) if arg else float("nan")
    row, result = _sweep_row(cfg, p, 0)
    if result is not None and cfg.save_trajectory:
        save_trajectory(cfg.save_trajectory, result.trajectory)
    _write_csv(cfg.out or "solve.csv", cfg, SWEEP_COLUMNS, [row])
    return 1 if str(row["status"]).startswith("failed") else 0


def cmd_certify(cfg: RunConfig) -> int:
    pair = _channel_pair(cfg)
    obj = ChannelObjective(pair)
    if cfg.trajectory:
        path = Path(cfg.trajectory)
        if not path.exists():
            raise UsageError(f"trajectory file {cfg.trajectory!r} does not exist")
        traj = load_trajectory(path)
        if not traj.states:
            raise UsageError("trajectory file does not contain state dumps")
    else:
        traj = qab_run(obj, _qab_options(cfg, pair, 0))
    report = certify(
        traj,
        obj,
        cfg.gamma,
        n_samples=cfg.samples,
        eps_max=cfg.eps_max,
        seed=_derive_seed(cfg.seed, 0, 1),
    )
    doc = {
        "version": __version__,
        "config": _config_values(cfg),
        "report": report_to_dict(report),
    }
    text = json.dumps(doc, indent=1)
    if cfg.out and cfg.out != "-":
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text + "\n")
    return 0 if report.certified else 1


def cmd_energy(cfg: RunConfig) -> int:
    pair = _channel_pair(cfg)
    if cfg.constraints is None and not cfg.constraints_file:
        cfg.constraints = ["sigma-z=-0.25"]
    family = _build_family(cfg)
    try:
        result = solve_energy_constrained(
            pair,
            family,
            _qab_options(cfg, pair, 0),
            n_samples=cfg.samples,
            eps_max=cfg.eps_max,
            cert_seed=_derive_seed(cfg.seed, 0, 1),
        )
    except (InfeasibleFamilyError, IterationError) as exc:
        print(f"energy run failed: {exc}", file=sys.stderr)
        return 1
    traj = result.trajectory
    scale = cfg.log_scale
    columns = ["t", "objective", "divergence_estimate"] + [
        f"residual_{j}" for j in range(family.size)
    ]
    rows = []
    for t, state in enumerate(traj.states):
        resid = family.residuals(state)
        row = {
            "t": t,
            "objective": traj.values[t] / scale,
            "divergence_estimate": -pair.dim_a * traj.values[t] / scale,
        }
        for j, r in enumerate(resid):
            row[f"residual_{j}"] = float(r)
        rows.append(row)
    _write_csv(cfg.out or "energy.csv", cfg, columns, rows)
    return 0


def cmd_oracle_compare(cfg: RunConfig) -> int:
    grid = _grid(cfg)
    # The Bell oracle must apply to the whole sweep: check both channels now.
    try:
        bell_diagonal_oracle(_channel_pair(cfg, grid[0]))
    except OracleInapplicableError as exc:
        raise UsageError(f"oracle-compare requires a Bell-diagonal pair: {exc}") from exc

    scale = cfg.log_scale
    rows = []
    failed = False
    for index, p in enumerate(grid):
        pair = _channel_pair(cfg, float(p))
        row = {c: float("nan") for c in ORACLE_COLUMNS}
        row.update(p=float(p), status="ok")
        row["bell_oracle"] = bell_diagonal_oracle(pair) / scale
        try:
            result = _solve_point(cfg, pair, index)
            row["value"] = result.value / scale
            brute, _ = brute_force_oracle(pair, cfg.grid_resolution)
            row["brute_oracle"] = -brute / scale
            row["gap_bell"] = abs(row["value"] - row["bell_oracle"])
            row["gap_brute"] = abs(row["value"] - row["brute_oracle"])
        except SupportViolationError:
            row["value"] = float("inf")
            row["status"] = "infinite"
        except (IterationError, ValueError) as exc:
            row["status"] = f"failed:{type(exc).__name__}"
            failed = True
        rows.append(row)
    _write_csv(cfg.out or "oracle_compare.csv", cfg, ORACLE_COLUMNS, rows)
    return 1 if failed else 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file with RunConfig field names")
    sub.add_argument("--channel-n", dest="channel_n")
    sub.add_argument("--channel-m", dest="channel_m")
    sub.add_argument("--p-min", dest="p_min", type=float)
    sub.add_argument("--p-max", dest="p_max", type=float)
    sub.add_argument("--p-steps", dest="p_steps", type=int)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--iters", dest="iterations", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--eps-max", dest="eps_max", type=float)
    sub.add_argument("--stop-kl", dest="stop_kl", type=float)
    sub.add_argument("--log-base", dest="log_base", choices=("e", "2"))
    sub.add_argument("--out")
    sub.add_argument("--grid-resolution", dest="grid_resolution", type=int)
    sub.add_argument(
        "--constraint",
        dest="constraints",
        action="append",
        help="repeatable 'matrix-file=target' (builtins: sigma-x, sigma-y, sigma-z)",
    )
    sub.add_argument("--constraints-file", dest="constraints_file")
    sub.add_argument("--trajectory")
    sub.add_argument("--save-trajectory", dest="save_trajectory")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    doc = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {args.config!r} does not exist")
        doc = json.loads(path.read_text())
        valid = {f.name for f in dataclasses.fields(RunConfig)}
        for key, value in doc.items():
            if key not in valid:
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    cfg.command = args.command
    single_pair = cfg.command in ("solve", "certify", "energy")
    if single_pair and args.channel_m is None and "channel_m" not in doc:
        cfg.channel_m = "depolarizing:0.05"
    if cfg.constraints is not None:
        cfg.constraints = list(cfg.constraints)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qabcert",
        description="Certified fixed-point computation of the relative entropy of channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("sweep", cmd_sweep),
        ("solve", cmd_solve),
        ("certify", cmd_certify),
        ("energy", cmd_energy),
        ("oracle-compare", cmd_oracle_compare),
    ):
        sub = subs.add_parser(name)
        _add_common_flags(sub)
        sub.set_defaults(func=fn)

    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

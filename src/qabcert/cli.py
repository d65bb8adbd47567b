"""Command-line interface reproducing the channel-divergence experiments.

Commands: ``sweep`` (divergence vs. depolarizing parameter with per-point
certification), ``solve`` (one channel pair, the one-point path of
``sweep``), ``certify`` (certification of a stored or freshly computed
trajectory), ``energy`` (energy-constrained run, per-iteration trace) and
``oracle-compare`` (the ``sweep`` rows plus the brute-force oracle's
columns).  Two or more finite points are iterated in lockstep
(``qab_run_many``), each trajectory certified as ``certify --trajectory``
does; rows are as if run one by one.

Each command takes only the settings it reads (``COMMANDS`` lists them),
as flags or as ``--config`` JSON keys; flags win.  Outputs echo the whole
resolved ``RunConfig`` and the library version; identical configs produce
byte-identical output files.

Exit codes: 0 success (for ``certify``: all conditions passed), 1 a numeric
or certification failure, 2 any input error, reported as one ``error:``
line: a flag or config key the command does not read, a wrong-typed or
out-of-range value, a missing or malformed input file, an unwritable output
path, or dimensions that disagree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .channel_re import (
    ChannelObjective,
    ChannelPair,
    OracleInapplicableError,
    PairStack,
    SupportViolationError,
    bell_diagonal_oracle,
    brute_force_oracle,
    solve,
)
from .mixture import MixtureFamily
from .qab_core import IterationError, QabOptions, qab_run_many
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    choi_from_kraus,
    dephasing_choi,
    depolarizing_choi,
    random_density,
)
from .serialize import (
    load_channel,
    load_constraints,
    load_matrix,
    load_trajectory,
    report_to_dict,
    save_trajectory,
)

__all__ = ["COMMANDS", "main", "RunConfig", "UsageError"]

_BUILTIN_MATRICES = {"sigma-x": PAULI_X, "sigma-y": PAULI_Y, "sigma-z": PAULI_Z}
_FAMILIES = {"dephasing": dephasing_choi, "depolarizing": depolarizing_choi}

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
        if not 0 < self.gamma < math.inf:
            raise UsageError("gamma must be positive and finite")
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
        if not 0 < self.eps_max < math.inf:
            raise UsageError("eps-max must be positive and finite")
        if not 0 <= self.stop_kl < math.inf:
            raise UsageError("stop-kl must be finite and >= 0 (0 disables the early stop)")
        if self.log_base not in ("e", "2"):
            raise UsageError("log-base must be 'e' or '2'")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if self.grid_resolution < 2:
            raise UsageError("grid-resolution must be >= 2")

    @property
    def log_scale(self) -> float:
        return 1.0 if self.log_base == "e" else math.log(2.0)


# The type each setting's flag converts to (str for the constraint list); a
# config file value must have that type, or be an int where it is a float.
_KINDS = {
    f.name: {float: float, int: int}.get(type(f.default), str)
    for f in dataclasses.fields(RunConfig)
}
_FLAG_NAMES = {"iterations": "--iters", "constraints": "--constraint"}
_FLAG_OPTIONS = {
    "log_base": {"choices": ("e", "2")},
    "constraints": {
        "action": "append",
        "help": "repeatable 'matrix-file=target' (builtins: sigma-x, sigma-y, sigma-z)",
    },
}


def _read(kind: str, path: str, load: Callable):
    """``load(path)``, with a missing or malformed file as a UsageError."""
    if not Path(path).exists():
        raise UsageError(f"{kind} file {path!r} does not exist")
    try:
        return load(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise UsageError(f"{kind} file {path!r} is malformed: {exc!r}") from exc


def _channel(spec: str, p: float = math.nan) -> tuple:
    """(p, Choi matrix) of a channel source.

    A builtin is ``dephasing:p`` or ``depolarizing:p`` (a bare name takes
    the given ``p``) or ``identity``; any other source is a channel file.
    p stays NaN unless the channel is a parameterized builtin.
    """
    name, sep, arg = spec.partition(":")
    if name in _FAMILIES:
        if not sep and math.isnan(p):
            raise UsageError(f"channel '{spec}' needs a parameter (e.g. {name}:0.4)")
        try:
            p = float(arg) if sep else p
            return p, _FAMILIES[name](p)
        except ValueError as exc:  # not a number, or outside [0, 1]
            raise UsageError(f"channel {spec!r}: {exc}") from exc
    if spec == "identity":
        return p, choi_from_kraus([np.eye(2)])
    return p, _read("channel", spec, load_channel)


def _pairs(cfg: RunConfig) -> list:
    """Every (p, pair) the command runs, built and checked before any solve.

    A command that reads the p grid takes the builtin channel-m at each grid
    point; the others take channel-m as given.
    """
    _, choi_n = _channel(cfg.channel_n)
    if "p_steps" in COMMANDS[cfg.command].fields:
        if cfg.channel_m not in _FAMILIES:
            raise UsageError(
                f"{cfg.command} needs a parameterless builtin channel-m (got {cfg.channel_m!r})"
            )
        grid = np.linspace(cfg.p_min, cfg.p_max, cfg.p_steps)
        points = [_channel(cfg.channel_m, float(p)) for p in grid]
    else:
        points = [_channel(cfg.channel_m)]
    try:
        return [(p, ChannelPair(choi_n=choi_n, choi_m=choi_m)) for p, choi_m in points]
    except ValueError as exc:
        raise UsageError(f"channel-n and channel-m do not form a pair: {exc}") from exc


def _build_family(cfg: RunConfig, dim_a: int) -> MixtureFamily:
    obs, targets = [], []
    if cfg.constraints_file:
        fam = _read("constraints", cfg.constraints_file, load_constraints)
        obs.extend(fam.observables)
        targets.extend(fam.targets)
    for entry in cfg.constraints or []:
        source, sep, target = entry.rpartition("=")
        if not sep or not source:
            raise UsageError(f"constraint {entry!r} must look like matrix-file=target")
        try:
            targets.append(float(target))
        except ValueError as exc:
            raise UsageError(f"constraint target {target!r} is not a number") from exc
        matrix = _BUILTIN_MATRICES.get(source)
        obs.append(_read("constraint matrix", source, load_matrix) if matrix is None else matrix)
    try:
        family = MixtureFamily(observables=tuple(obs), targets=tuple(targets))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if family.size and family.dim != dim_a:
        raise UsageError(
            f"constraint observables are {family.dim}x{family.dim}, "
            f"but the channels' input dimension is {dim_a}"
        )
    return family


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


def _table(cfg: RunConfig, columns, rows) -> tuple:
    """(CSV text of ``rows`` under the config header, whether no row failed)."""
    lines = [f"# qabcert-version={__version__}"]
    for name, value in _config_values(cfg).items():
        lines.append(f"# {name}={'' if value is None else _fmt(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    ok = not any(str(row.get("status", "")).startswith("failed") for row in rows)
    return "\n".join(lines) + "\n", ok


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _failed(cfg: RunConfig, error: Exception) -> tuple:
    """The outcome of a single-run command whose run failed: no output, exit 1."""
    print(f"{cfg.command} run failed: {error}", file=sys.stderr)
    return None, False


def _options(cfg: RunConfig, pair: ChannelPair, index: int, family=MixtureFamily()):
    """The run of point ``index``: its seeded initial state and the config's settings."""
    initial = random_density(pair.dim_a, np.random.default_rng([cfg.seed, index, 0]))
    stop = None if cfg.stop_kl == 0 else cfg.stop_kl
    return QabOptions(
        initial, gamma=cfg.gamma, max_iters=cfg.iterations, family=family, divergence_stop=stop
    )


def _solve(cfg: RunConfig, pair: ChannelPair, index: int, family=MixtureFamily(), traj=None):
    """Solve and certify point ``index`` (or certify ``traj``): (result, status, error).

    The status is ``ok``, ``infinite`` (S_N leaks out of the support of S_M,
    so the divergence is +inf) or ``failed:<error type>``; the result is
    None and the error the exception unless the status is ``ok``.
    """
    seed = int(np.random.SeedSequence([cfg.seed, index, 1]).generate_state(1, np.uint64)[0])
    try:
        run = _options(cfg, pair, index, family) if traj is None else traj
        result = solve(pair, run, n_samples=cfg.samples, eps_max=cfg.eps_max, cert_seed=seed)
    except SupportViolationError as exc:
        return None, "infinite", exc
    except (IterationError, ValueError) as exc:
        return None, f"failed:{type(exc).__name__}", exc
    return result, "ok", None


def _solve_points(cfg: RunConfig, points: list) -> list:
    """``_solve`` of each (p, pair) point; if their lockstep run fails, each runs alone."""
    finite = [i for i, (_, pair) in enumerate(points) if pair.finite]
    trajs = {}
    if len(finite) > 1:
        try:
            obj = ChannelObjective(PairStack([points[i][1] for i in finite]))
            runs = [_options(cfg, points[i][1], i) for i in finite]
            trajs = dict(zip(finite, qab_run_many(obj, runs)))
        except (IterationError, ValueError):
            trajs = {}
    return [_solve(cfg, pair, i, traj=trajs.get(i)) for i, (_, pair) in enumerate(points)]


def _row(p: float, status: str, **fields) -> dict:
    """A result row: NaN cells but for ``p``, ``status`` and ``fields``."""
    row = dict.fromkeys(SWEEP_COLUMNS + ORACLE_COLUMNS, math.nan)
    row.update(fields, p=p, status=status)
    if status == "infinite":
        row["value"] = math.inf
    return row


def cmd_sweep(cfg: RunConfig) -> tuple:
    """The rows of ``sweep``, ``solve`` (its one-point path) and ``oracle-compare``.

    The Bell oracles come before any solve and stand or fall together (a
    grid's channel-m is a Bell-diagonal builtin); a gap needs a finite oracle.
    """
    compare = "grid_resolution" in COMMANDS[cfg.command].fields
    bell, bell_gap = ("bell_oracle", "gap_bell") if compare else ("oracle", "gap")
    scale = cfg.log_scale
    points = _pairs(cfg)
    try:
        oracles = [bell_diagonal_oracle(pair) / scale for _, pair in points]
    except OracleInapplicableError as exc:
        if compare:
            raise UsageError(f"oracle-compare requires a Bell-diagonal pair: {exc}") from exc
        oracles = [math.nan] * len(points)
    rows = []
    for (p, pair), oracle, (result, status, _) in zip(points, oracles, _solve_points(cfg, points)):
        row = _row(p, status, certified=False, iterations=0, **{bell: oracle})
        rows.append(row)
        if result is None:
            continue
        if cfg.save_trajectory:
            save_trajectory(cfg.save_trajectory, result.trajectory)
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
            xme_bound=result.bound / scale,
            iterations=len(result.trajectory.states) - 1,
        )
        if compare:
            row["brute_oracle"] = -brute_force_oracle(pair, cfg.grid_resolution)[0] / scale
        for gap, reference in ((bell_gap, bell), ("gap_brute", "brute_oracle")):
            if math.isfinite(row[reference]):
                row[gap] = abs(row["value"] - row[reference])
    return _table(cfg, ORACLE_COLUMNS if compare else SWEEP_COLUMNS, rows)


def cmd_certify(cfg: RunConfig) -> tuple:
    [(_, pair)] = _pairs(cfg)
    traj = None
    if cfg.trajectory:
        traj = _read("trajectory", cfg.trajectory, load_trajectory)
        if traj.gamma != cfg.gamma:
            made_with = "no recorded gamma" if traj.gamma is None else f"gamma={traj.gamma}"
            raise UsageError(
                f"trajectory file was made with {made_with}, but --gamma is {cfg.gamma}"
            )
        if traj.states[0].shape != (pair.dim_a, pair.dim_a):  # one shape (load_trajectory)
            raise UsageError(f"trajectory states do not match the input dimension {pair.dim_a}")
    result, _, error = _solve(cfg, pair, 0, traj=traj)
    if result is None:
        return _failed(cfg, error)
    report = result.report
    doc = {"version": __version__, "config": _config_values(cfg), "report": report_to_dict(report)}
    return json.dumps(doc, indent=1, allow_nan=False) + "\n", report.certified


def cmd_energy(cfg: RunConfig) -> tuple:
    [(_, pair)] = _pairs(cfg)
    if cfg.constraints is None and not cfg.constraints_file:
        cfg.constraints = ["sigma-z=-0.25"]
    family = _build_family(cfg, pair.dim_a)
    result, _, error = _solve(cfg, pair, 0, family)
    if result is None:
        return _failed(cfg, error)
    traj, obj = result.trajectory, ChannelObjective(pair)
    scale = cfg.log_scale
    rows = []
    for t, (state, value) in enumerate(zip(traj.states, traj.values)):
        residuals = {f"residual_{j}": float(r) for j, r in enumerate(family.residuals(state))}
        row = {"t": t, "objective": value / scale}
        row["divergence_estimate"] = obj.channel_scale(value) / scale
        rows.append(row | residuals)
    return _table(cfg, list(rows[0]), rows)  # a trajectory holds at least one state


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: its function, the RunConfig fields it reads, its defaults."""

    run: Callable  # RunConfig -> (output text or None, whether it succeeded)
    fields: tuple
    out: str  # output path when --out is not given; "-" is stdout
    channel_m: str = "depolarizing:0.05"


_RUN = ("gamma", "iterations", "seed", "samples", "eps_max", "stop_kl")
_SWEEP = ("channel_n", "channel_m", "p_min", "p_max", "p_steps", *_RUN, "log_base", "out")
_PAIR = ("channel_n", "channel_m", *_RUN)

COMMANDS = {
    "sweep": Command(cmd_sweep, _SWEEP, "sweep.csv", channel_m="depolarizing"),
    "solve": Command(cmd_sweep, (*_PAIR, "log_base", "out", "save_trajectory"), "solve.csv"),
    "certify": Command(cmd_certify, (*_PAIR, "out", "trajectory"), "-"),
    "energy": Command(
        cmd_energy, (*_PAIR, "log_base", "out", "constraints", "constraints_file"), "energy.csv"
    ),
    "oracle-compare": Command(
        cmd_sweep, (*_SWEEP, "grid_resolution"), "oracle_compare.csv", channel_m="depolarizing"
    ),
}


def _config_value(key: str, value):
    """A config file value, checked against the type its flag converts to."""
    kind, many = _KINDS[key], key == "constraints"
    items = value if many else [value]
    valid = (int, float) if kind is float else kind
    if not isinstance(items, list) or any(
        isinstance(v, bool) or not isinstance(v, valid) for v in items
    ):
        of = "a list of " if many else ""
        raise UsageError(f"config key {key!r} must be {of}{kind.__name__}, got {value!r}")
    if kind is float and abs(value) > sys.float_info.max:
        raise UsageError(f"config key {key!r} is beyond the range of a float")
    return float(value) if kind is float else value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = COMMANDS[args.command]
    cfg = RunConfig(command=args.command, channel_m=command.channel_m)
    if args.config:
        doc = _read("config", args.config, lambda path: json.loads(Path(path).read_text()))
        if not isinstance(doc, dict):
            raise UsageError(f"config file {args.config!r} must hold a JSON object")
        for key, value in doc.items():
            if key not in command.fields:
                raise UsageError(f"config key {key!r} is not a setting of {args.command}")
            setattr(cfg, key, _config_value(key, value))
    for name in command.fields:
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qabcert",
        description="Certified fixed-point computation of the relative entropy of channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="JSON config file with this command's settings")
        for field in command.fields:
            flag = _FLAG_NAMES.get(field, "--" + field.replace("_", "-"))
            sub.add_argument(flag, dest=field, type=_KINDS[field], **_FLAG_OPTIONS.get(field, {}))

    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        text, ok = COMMANDS[cfg.command].run(cfg)
        if text is not None:
            _write(cfg.out or COMMANDS[cfg.command].out, text)
    except (UsageError, OSError) as exc:  # inputs are read by _read, so an OSError is a write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1

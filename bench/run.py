"""qabcert benchmark: one command per workload, end-to-end or per-layer metrics.

Usage, from the root of a qabcert checkout:

    python3 bench/run.py --workload {sweep,oracle,iterate} --seed N --seconds S --trace {0,1}

The workload's commands run in-process through ``qabcert.cli.main``, in
rounds, until ``--seconds`` have passed (at least three rounds).  A fixed
speed probe (speed.py) runs before and after every command, and the
end-to-end times are normalised by it to a reference host speed.  Every
round's output is checked after the timed loop.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` rounds alternate untraced and traced and the JSON holds
the per-layer metrics.  The lines before it print every metric with its
unit, the error rate and the environment.  README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep", "oracle", "iterate")
SETUP_PROBES = 9
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _use_source_tree() -> None:
    """Import ``qabcert`` from the checkout's ``src/``; fail if it is absent."""
    package = ROOT / "src" / "qabcert" / "__init__.py"
    if not package.is_file():
        raise SystemExit(
            f"error: {package.relative_to(ROOT)} not found; run from a qabcert checkout"
        )
    for path in (str(ROOT / "src"), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _setup_probe(workload: str, seed: int, work: Path) -> tuple:
    """Time to import qabcert and generate the workload's inputs.

    Returns (normalised seconds, raw seconds).  The set-up is normalised by
    the speed probes of the CPU it ended on, run in this interpreter right
    after it.
    """
    start = time.perf_counter()
    _use_source_tree()
    import workloads

    workloads.build(workload, seed, work)
    seconds = time.perf_counter() - start
    import speed

    cpu = speed.current_cpu()
    probe = speed.SpeedProbe()
    factors = [speed.speed_factor(s, s, cpu, busy=1.0)[0] for s in (probe(), probe(), probe())]
    return seconds / statistics.median(factors), seconds


def _setup_seconds(workload: str, seed: int, work: Path) -> tuple:
    """Median of several set-ups, each in a fresh interpreter.

    Returns (normalised seconds, raw seconds).
    """
    times, raw = [], []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"setup_{i}"
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(probe_dir)],  # fmt: skip
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        normalised, seconds = map(float, done.stdout.split()[-2:])
        shutil.rmtree(probe_dir, ignore_errors=True)
        times.append(normalised)
        raw.append(seconds)
    return statistics.median(times), statistics.median(raw)


class Round(NamedTuple):
    """One round of the workload's commands."""

    wall_s: float  # normalised to the reference host speed
    cpu_s: float  # normalised likewise, by the probe's CPU time
    raw_wall_s: float
    raw_cpu_s: float
    probe: float  # median wall time of the round's speed probes, in REF_PROBE_S
    outputs: list  # [(exit code, output text)] per command


def _run_round(cli, commands, probe) -> Round:
    """Run every command once, with the speed probe before and after each."""
    import speed

    wall = cpu = raw_wall = raw_cpu = 0.0
    probes = [probe()]
    outputs = []
    for cmd in commands:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            print(f"{cmd.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
        dwall = time.perf_counter() - wall0
        dcpu = time.process_time() - cpu0
        ran_on = speed.current_cpu()
        probes.append(probe())
        wall_factor, cpu_factor = speed.speed_factor(*probes[-2:], ran_on, dcpu / dwall)
        wall += dwall / wall_factor
        cpu += dcpu / cpu_factor
        raw_wall += dwall
        raw_cpu += dcpu
        text = cmd.out.read_text() if cmd.out.exists() else None
        cmd.out.unlink(missing_ok=True)
        outputs.append((rc, text))
    probe_wall = statistics.median(w for p in probes for w, _ in p.values())
    return Round(wall, cpu, raw_wall, raw_cpu, probe_wall, outputs)


def _blas_threads() -> str:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):  # fmt: skip
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _environment(workload: str, seed: int, commands) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}",
        "lapack": f"{deps.get('lapack', {}).get('name')} {deps.get('lapack', {}).get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "cli_args": [cmd.argv for cmd in commands],
    }


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple:
    """Run one workload; returns (result dict, human-readable lines)."""
    _use_source_tree()
    import importlib

    import speed
    import tracer
    import workloads

    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, raw_setup_s = (None, None) if trace else _setup_seconds(workload, seed, work)
        probe = speed.SpeedProbe()
        commands = workloads.build(workload, seed, work / "inputs", size)
        cli = importlib.import_module("qabcert.cli")

        # One untimed round first: numpy's and the allocator's first-use costs
        # (page faults on fresh large arrays) otherwise skew the first rounds.
        _run_round(cli, commands, probe)
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_ROUNDS or time.perf_counter() < deadline:
            plain.append(_run_round(cli, commands, probe))
            if trace:
                with tracer.Tracer() as t:
                    traced.append(_run_round(cli, commands, probe))
                layers.append(t.layer_metrics())
        # Before the checks, whose brute-force references are not the workload's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        totals = workloads.Outcome()
        brute_cache: dict = {}
        resolution = workloads.SIZES[size]["iterate"]["check_resolution"]
        for r in plain + traced:
            for cmd, (rc, text) in zip(commands, r.outputs):
                outcome = workloads.check(cmd, rc, text, brute_cache, resolution)
                totals.ops += outcome.ops
                totals.failed += outcome.failed
                totals.solved += outcome.solved
                totals.certified += outcome.certified
                totals.problems.extend(outcome.problems)
                totals.notes.extend(outcome.notes)
        env = _environment(workload, seed, commands)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    certified_frac = totals.certified / totals.solved if totals.solved else 0.0
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["certify.certified_frac"] = certified_frac
        metrics["trace.overhead_s"] = statistics.median(
            r.raw_wall_s for r in traced
        ) - statistics.median(r.raw_wall_s for r in plain)
        metrics["host.probe_ms"] = (
            1000 * speed.REF_PROBE_S * statistics.median(r.probe for r in plain + traced)
        )
        units = tracer.LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.ops,
        "failed": totals.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    lines = [
        f"workload={workload} seed={seed} trace={int(trace)} rounds={len(plain)}"
        + (f"+{len(traced)} traced" if trace else ""),
        "env: " + json.dumps(env),
    ]
    lines += [f"{k} = {m['value']!r} {m['unit']}" for k, m in result["metrics"].items()]
    if not trace:
        lines += [
            f"raw setup_s = {raw_setup_s!r} s",
            f"raw wall_s = {statistics.median(r.raw_wall_s for r in plain)!r} s",
            f"raw cpu_s = {statistics.median(r.raw_cpu_s for r in plain)!r} s",
            f"probe = {1000 * speed.REF_PROBE_S * statistics.median(r.probe for r in plain)!r} ms"
            f" (reference {1000 * speed.REF_PROBE_S!r} ms)",
        ]
        lines.append(
            f"certified_frac = {certified_frac!r} ratio ({totals.certified}/{totals.solved})"
        )
    lines.append(
        f"error_rate = {totals.failed / totals.ops!r} ratio ({totals.failed}/{totals.ops})"
    )
    lines += [f"problem: {p}" for p in dict.fromkeys(totals.problems)]
    lines += [f"note: {n}" for n in dict.fromkeys(totals.notes)]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        print(*_setup_probe(args.workload, args.seed, Path(args.setup_probe)))
        return 0
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

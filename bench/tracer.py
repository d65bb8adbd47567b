"""Span tracer that wraps ``qabcert``'s public functions from outside the package.

The tracer replaces each wrapped function at every place it is bound: modules
bind names with ``from .linalg import eigh``, so patching only the defining
module would miss most calls.  ``qabcert.certify`` is the *function* (the
package ``__init__`` shadows the submodule), so modules are reached through
``importlib.import_module``.  ``np.linalg.eigh`` and ``np.linalg.eigvalsh``
are wrapped as the ``lapack`` layer, the numpy boundary several modules call
directly.

Each call records a span ``(name, start, end, parent)`` in a per-thread list
(the sweep command runs a thread pool, so span stacks are per thread) and
adds to per-thread counters.  :meth:`Tracer.layer_metrics` merges the threads
and derives the per-layer metrics listed in ``bench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

def _batch(a) -> int:
    """Number of matrices in a stack of shape (..., d, d)."""
    return math.prod(np.shape(a)[:-2])


def _count_batch(key):
    def count(st, args, kwargs, result):
        st.counts[key] += _batch(args[0])

    return count


def _count_relative_entropy(st, args, kwargs, result):
    shape = np.broadcast_shapes(np.shape(args[0])[:-2], np.shape(args[1])[:-2])
    st.counts["quantum.relative_entropy.matrices"] += math.prod(shape)


def _count_check_a1(st, args, kwargs, result):
    n_samples = args[3] if len(args) > 3 else kwargs["n_samples"]
    st.counts["certify.a1.samples"] += n_samples
    st.counts["certify.a1.accepted"] += result.count
    st.counts["certify.a1.skipped"] += result.skipped


def _count_qab_run(st, args, kwargs, result):
    st.counts["qab_core.steps"] += len(result.states) - 1


def _count_e_project(st, args, kwargs, result):
    st.counts["mixture.newton_iters"] += result[1].iterations


def _count_brute_force(st, args, kwargs, result):
    resolution = args[1] if len(args) > 1 else kwargs["grid_resolution"]
    st.counts["channel_re.brute_force_oracle.points"] += resolution**3


def _count_save_trajectory(st, args, kwargs, result):
    st.counts["serialize.trajectory_bytes"] += Path(args[0]).stat().st_size


def _count_lapack(st, args, kwargs, result):
    st.counts["lapack.eig.matrices"] += _batch(args[0])
    if st.open["qab_core.qab_run"]:
        st.counts["lapack.eig.calls_in_qab_run"] += 1


# (module, attribute, span name, counter); ``Class.method`` wraps a method.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("channel_re", "omega1", "channel_re.omega1", _count_batch("channel_re.omega1.states")),
    ("channel_re", "ChannelObjective.omega", "channel_re.ChannelObjective.omega", None),
    (
        "channel_re",
        "objective_value",
        "channel_re.objective_value",
        _count_batch("channel_re.objective_value.states"),
    ),
    ("channel_re", "brute_force_oracle", "channel_re.brute_force_oracle", _count_brute_force),
    ("qab_core", "qab_run", "qab_core.qab_run", _count_qab_run),
    ("mixture", "e_project", "mixture.e_project", _count_e_project),
    ("mixture", "free_energy_gradient", "mixture.free_energy_gradient", None),
    ("certify", "check_a1", "certify.check_a1", _count_check_a1),
    ("certify", "check_a2", "certify.check_a2", None),
    ("certify", "check_a3", "certify.check_a3", None),
    ("certify", "xme_bound", "certify.xme_bound", None),
    ("quantum", "sandwich", "quantum.sandwich", _count_batch("quantum.sandwich.matrices")),
    ("quantum", "relative_entropy", "quantum.relative_entropy", _count_relative_entropy),
    ("linalg", "eigh", "linalg.eigh", _count_batch("linalg.eigh.matrices")),
    ("linalg", "matrix_fn", "linalg.matrix_fn", None),
    ("serialize", "load_channel", "serialize.load_channel", None),
    ("serialize", "save_trajectory", "serialize.save_trajectory", _count_save_trajectory),
)

LAPACK_TARGETS = ("eigh", "eigvalsh")

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "certify.check_a1.s": "s",
    "certify.check_a1.self_s": "s",
    "certify.a1.samples": "count",
    "certify.a1.accept_ratio": "ratio",
    "certify.a1.skipped": "count",
    "certify.check_a23.s": "s",
    "certify.certified_frac": "ratio",
    "qab_core.qab_run.s": "s",
    "qab_core.steps": "count",
    "qab_core.step_ms": "ms",
    "qab_core.eig_per_step": "count",
    "mixture.e_project.calls": "count",
    "mixture.e_project.s": "s",
    "mixture.newton_iters": "count",
    "mixture.gradients_per_newton": "count",
    "channel_re.omega1.calls": "count",
    "channel_re.omega1.states": "count",
    "channel_re.omega1.self_s": "s",
    "channel_re.objective_value.states": "count",
    "channel_re.brute_force_oracle.s": "s",
    "channel_re.brute_force_oracle.points_per_s": "1/s",
    "quantum.sandwich.matrices": "count",
    "quantum.sandwich.self_s": "s",
    "quantum.relative_entropy.calls": "count",
    "quantum.relative_entropy.matrices": "count",
    "quantum.relative_entropy.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.matrices": "count",
    "linalg.eigh.s": "s",
    "linalg.matrix_fn.calls": "count",
    "linalg.matrix_fn.self_s": "s",
    "lapack.eig.calls": "count",
    "lapack.eig.matrices": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "serialize.load_channel.s": "s",
    "serialize.save_trajectory.s": "s",
    "serialize.trajectory_bytes": "bytes",
    "trace.overhead_s": "s",
    "host.probe_ms": "ms",
}


class _ThreadState:
    """Span stack, finished spans and counters of one thread."""

    def __init__(self):
        self.stack: list = []
        self.spans: list = []
        self.open = Counter()
        self.counts = Counter()


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads: list = []
        self._tls = threading.local()
        self._restore: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "state", None)
        if st is None:
            st = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name: str, fn, count):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            index = len(st.spans)
            st.spans.append(None)
            st.stack.append(index)
            st.open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.open[name] -= 1
                st.spans[index] = (name, start, end, st.stack[-1] if st.stack else -1)
            if count is not None:
                count(st, args, kwargs, result)
            return result

        return wrapper

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every qabcert module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qabcert" or mod_name.startswith("qabcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def __enter__(self):
        for module, attr, name, count in TARGETS:
            mod = importlib.import_module(f"qabcert.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, count))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._replace(original, self._wrap(name, original, count))
        for attr in LAPACK_TARGETS:
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._wrap("lapack.eig", original, _count_lapack))
            self._restore.append((np.linalg, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def layer_metrics(self) -> dict:
        """Per-layer totals over everything traced so far (all threads)."""
        with self._lock:
            threads = list(self._threads)
        total, self_time, calls, counts = Counter(), Counter(), Counter(), Counter()
        for st in threads:
            counts.update(st.counts)
            child = [0.0] * len(st.spans)
            # Children finish before their parents, so their time is known
            # when the parent is reached in reverse order.
            for index in range(len(st.spans) - 1, -1, -1):
                span = st.spans[index]
                if span is None:
                    continue
                name, start, end, parent = span
                duration = end - start
                total[name] += duration
                self_time[name] += duration - child[index]
                calls[name] += 1
                if parent >= 0:
                    child[parent] += duration
        steps = counts["qab_core.steps"]
        newton = counts["mixture.newton_iters"]
        samples = counts["certify.a1.samples"]
        brute_s = total["channel_re.brute_force_oracle"]
        return {
            "certify.check_a1.s": total["certify.check_a1"],
            "certify.check_a1.self_s": self_time["certify.check_a1"],
            "certify.a1.samples": samples,
            "certify.a1.accept_ratio": counts["certify.a1.accepted"] / samples if samples else 0.0,
            "certify.a1.skipped": counts["certify.a1.skipped"],
            "certify.check_a23.s": total["certify.check_a2"]
            + total["certify.check_a3"]
            + total["certify.xme_bound"],
            "qab_core.qab_run.s": total["qab_core.qab_run"],
            "qab_core.steps": steps,
            "qab_core.step_ms": 1000 * total["qab_core.qab_run"] / steps if steps else 0.0,
            "qab_core.eig_per_step": counts["lapack.eig.calls_in_qab_run"] / steps
            if steps
            else 0.0,
            "mixture.e_project.calls": calls["mixture.e_project"],
            "mixture.e_project.s": total["mixture.e_project"],
            "mixture.newton_iters": newton,
            # Each call ends with one gradient that only tests convergence.
            "mixture.gradients_per_newton": (
                calls["mixture.free_energy_gradient"] - calls["mixture.e_project"]
            )
            / newton
            if newton
            else 0.0,
            "channel_re.omega1.calls": calls["channel_re.omega1"],
            "channel_re.omega1.states": counts["channel_re.omega1.states"],
            "channel_re.omega1.self_s": self_time["channel_re.omega1"],
            "channel_re.objective_value.states": counts["channel_re.objective_value.states"],
            "channel_re.brute_force_oracle.s": brute_s,
            "channel_re.brute_force_oracle.points_per_s": counts[
                "channel_re.brute_force_oracle.points"
            ]
            / brute_s
            if brute_s
            else 0.0,
            "quantum.sandwich.matrices": counts["quantum.sandwich.matrices"],
            "quantum.sandwich.self_s": self_time["quantum.sandwich"],
            "quantum.relative_entropy.calls": calls["quantum.relative_entropy"],
            "quantum.relative_entropy.matrices": counts["quantum.relative_entropy.matrices"],
            "quantum.relative_entropy.self_s": self_time["quantum.relative_entropy"],
            "linalg.eigh.calls": calls["linalg.eigh"],
            "linalg.eigh.matrices": counts["linalg.eigh.matrices"],
            "linalg.eigh.s": total["linalg.eigh"],
            "linalg.matrix_fn.calls": calls["linalg.matrix_fn"],
            "linalg.matrix_fn.self_s": self_time["linalg.matrix_fn"],
            "lapack.eig.calls": calls["lapack.eig"],
            "lapack.eig.matrices": counts["lapack.eig.matrices"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_time["cli.main"],
            "serialize.load_channel.s": total["serialize.load_channel"],
            "serialize.save_trajectory.s": total["serialize.save_trajectory"],
            "serialize.trajectory_bytes": counts["serialize.trajectory_bytes"],
        }

"""File formats: channels, constraint matrices and families, trajectories and reports.

Every file the program reads is parsed here; it writes channels and
trajectories.  Complex matrices are nested arrays of ``[re, im]`` pairs; a
constraint-matrix file is ``{"matrix": pairs}``.  A trajectory or report
document is its dataclass: one key per field, in field order, every 2-D array
(a state) as pairs, read back by walking the dataclass's field type hints, so a
new field needs no reader of its own.  A trajectory file is its document; the
one report file is the ``certify --out`` document (``report_to_dict`` builds
it), whose ``report`` member :func:`load_report` reads.  All documents are
strict JSON; floats survive a dump/load round trip bit-exactly (shortest-repr),
and a non-finite float is written as ``"NaN"``, ``"Infinity"`` or
``"-Infinity"``.  Identical inputs produce identical bytes.
:func:`load_trajectory` is a trajectory's one gate: two or more states, one
step record per step, and density matrices of one shape to ``linalg.PSD_TOL``
(finite, Hermitian, eigenvalues >= -PSD_TOL, unit trace; NaN fails each test).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from pathlib import Path

import numpy as np

from .certify import CertificationReport
from .linalg import PSD_TOL, _finite_hermitian
from .mixture import MixtureFamily
from .qab_core import Trajectory
from .quantum import ChoiMatrix, choi_from_kraus

__all__ = [
    "complex_matrix_to_pairs",
    "load_channel",
    "load_constraints",
    "load_matrix",
    "load_report",
    "load_trajectory",
    "pairs_to_complex_matrix",
    "report_to_dict",
    "save_channel",
    "save_trajectory",
]

CHOI_NORMALIZATION_TAG = "trace-dim-a"
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _encode(value):
    """The document of ``value``: dataclasses, lists and arrays walked; inf/NaN as strings."""
    if isinstance(value, float):
        x = float(value)
        if math.isfinite(x):
            return x
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return complex_matrix_to_pairs(value)
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


@functools.cache
def _init_field_hints(kind) -> dict:
    """The type hint of each ``init`` field of dataclass ``kind`` (evaluated once per class)."""
    hints = typing.get_type_hints(kind)
    return {f.name: hints[f.name] for f in dataclasses.fields(kind) if f.init}


def _decode(kind, doc):
    """Inverse of ``_encode``: the value of type ``kind`` that ``doc`` encodes.

    A dataclass is built from the document's keys for its ``init`` fields,
    each decoded by its type hint; a missing key keeps the field's default,
    and a missing required key raises ``TypeError``.
    """
    if kind is float:
        return float(_NON_FINITE[doc] if isinstance(doc, str) else doc)
    if kind is np.ndarray:
        if doc and isinstance(doc[0], list):
            return pairs_to_complex_matrix(doc)
        return np.array([_decode(float, v) for v in doc], dtype=float)
    if dataclasses.is_dataclass(kind):
        hints = _init_field_hints(kind)
        return kind(**{name: _decode(hints[name], doc[name]) for name in hints if name in doc})
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return [_decode(args[0], v) for v in doc]
    if type(None) in args:  # ``X | None``
        return None if doc is None else _decode(args[0], doc)
    return kind(doc)


def complex_matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def pairs_to_complex_matrix(rows: list) -> np.ndarray:
    return np.array(
        [[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=complex
    )


def save_channel(path, choi: ChoiMatrix) -> None:
    doc = {
        "format": "choi",
        "dim_a": choi.dim_a,
        "dim_b": choi.dim_b,
        "normalization": CHOI_NORMALIZATION_TAG,
        "choi": complex_matrix_to_pairs(choi.mat),
    }
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False))


def load_channel(path) -> ChoiMatrix:
    doc = json.loads(Path(path).read_text())
    dim_a, dim_b = int(doc["dim_a"]), int(doc["dim_b"])
    if doc.get("normalization", CHOI_NORMALIZATION_TAG) != CHOI_NORMALIZATION_TAG:
        raise ValueError(f"unsupported normalization tag {doc.get('normalization')!r}")
    if doc["format"] == "choi":
        mat = pairs_to_complex_matrix(doc["choi"])
        return ChoiMatrix(mat=mat, dim_a=dim_a, dim_b=dim_b)
    if doc["format"] == "kraus":
        ops = [pairs_to_complex_matrix(k) for k in doc["kraus"]]
        for i, k in enumerate(ops):
            if k.shape != (dim_b, dim_a):
                raise ValueError(
                    f"Kraus operator {i} has shape {k.shape}, but dim_a={dim_a} and "
                    f"dim_b={dim_b} need ({dim_b}, {dim_a})"
                )
        return choi_from_kraus(ops)
    raise ValueError(f"unknown channel format {doc['format']!r}")


def _constraint_matrix(doc) -> np.ndarray:
    """The square, non-empty matrix of a ``{"matrix": pairs}`` file or constraints entry."""
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ValueError('a constraint matrix is {"matrix": [[[re, im], ...], ...]}')
    m = pairs_to_complex_matrix(doc["matrix"])
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"constraint matrix must be square and non-empty, not of shape {m.shape}")
    return m


def load_matrix(path) -> np.ndarray:
    """The matrix of a constraint-matrix file, ``{"matrix": pairs}`` (``_constraint_matrix``)."""
    return _constraint_matrix(json.loads(Path(path).read_text()))


def load_constraints(path) -> MixtureFamily:
    """A constraints file, ``{"constraints": [{"matrix": pairs, "target": c}, ...]}``."""
    entries = json.loads(Path(path).read_text())["constraints"]
    return MixtureFamily(observables=tuple(_constraint_matrix(e) for e in entries),
                         targets=tuple(float(e["target"]) for e in entries))


def save_trajectory(path, traj: Trajectory) -> None:
    Path(path).write_text(json.dumps(_encode(traj), allow_nan=False))


def load_trajectory(path) -> Trajectory:
    traj = _decode(Trajectory, json.loads(Path(path).read_text()))
    n = len(traj.states)
    if n < 2 or len(traj.values) != n or {len(traj.step_kl), len(traj.step_domega)} != {n - 1}:
        raise ValueError("trajectory needs two or more states, a value each, a record per step")
    states = np.stack(traj.states)  # raises ValueError unless the states share one shape
    if states.ndim != 3 or states.shape[1] != states.shape[2]:
        raise ValueError(f"trajectory states must be square matrices, not {states.shape[1:]}")
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry fails the tests
        ok = _finite_hermitian(states) & (np.abs(np.trace(states, axis1=1, axis2=2) - 1) <= PSD_TOL)
    ok[ok] = np.linalg.eigvalsh(states[ok])[:, 0] >= -PSD_TOL  # finite Hermitian states only
    if not ok.all():
        raise ValueError(f"trajectory state {int(np.argmin(ok))} is not a density matrix to "
                         f"{PSD_TOL} (Hermitian, eigenvalues >= -{PSD_TOL}, unit trace)")
    return traj


def report_to_dict(report: CertificationReport) -> dict:
    """The report document, every threshold and seed included; strict JSON."""
    return _encode(report)


def load_report(path) -> CertificationReport:
    """Read the ``report`` member of a ``certify --out`` document.

    The verdicts and recorded constants are not read: the report derives
    them from its stats, so a file cannot pass what its stats fail.
    """
    doc = json.loads(Path(path).read_text())
    return _decode(CertificationReport, doc["report"])

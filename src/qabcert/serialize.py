"""File formats: channels, constraint families, trajectories and reports.

Complex matrices are encoded as nested arrays of ``[re, im]`` pairs.  A
trajectory or report document is its dataclass: one key per field, in field
order, with every 2-D array (a state) written as pairs whatever its dtype.
It is read back by walking the same dataclass's field type hints, so a new
field needs no reader of its own.  A trajectory file is its document; the
one report file is the ``certify --out`` document, whose ``report`` member
is the report's (``qabcert certify`` writes it, :func:`load_report` reads
it).  All documents are strict JSON; floats survive a dump/load round trip
bit-exactly (Python renders them with shortest-repr), and a non-finite
float is written as the string ``"NaN"``, ``"Infinity"`` or
``"-Infinity"``.  Identical inputs produce identical bytes.
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
from .mixture import MixtureFamily
from .qab_core import Trajectory
from .quantum import ChoiMatrix, choi_from_kraus

__all__ = [
    "complex_matrix_to_pairs",
    "load_channel",
    "load_constraints",
    "load_report",
    "load_trajectory",
    "pairs_to_complex_matrix",
    "report_to_dict",
    "save_channel",
    "save_constraints",
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


def save_constraints(path, fam: MixtureFamily) -> None:
    doc = {
        "constraints": [
            {"matrix": complex_matrix_to_pairs(h), "target": float(c)}
            for h, c in zip(fam.observables, fam.targets)
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False))


def load_constraints(path) -> MixtureFamily:
    doc = json.loads(Path(path).read_text())
    obs, targets = [], []
    for entry in doc["constraints"]:
        obs.append(pairs_to_complex_matrix(entry["matrix"]))
        targets.append(float(entry["target"]))
    return MixtureFamily(observables=tuple(obs), targets=tuple(targets))


def save_trajectory(path, traj: Trajectory) -> None:
    Path(path).write_text(json.dumps(_encode(traj), allow_nan=False))


def load_trajectory(path) -> Trajectory:
    traj = _decode(Trajectory, json.loads(Path(path).read_text()))
    n = len(traj.states)
    if len(traj.values) != n or len(traj.step_kl) != n - 1 or len(traj.step_domega) != n - 1:
        raise ValueError("trajectory sequences have inconsistent lengths")
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

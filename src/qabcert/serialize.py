"""File formats: channels, constraint families, trajectories and reports.

Complex matrices are encoded as nested arrays of ``[re, im]`` pairs.  A
trajectory or report document is its dataclass: one key per field, in field
order, with every 2-D array (a state) written as pairs whatever its dtype.
All documents are strict JSON; floats survive a dump/load round trip
bit-exactly (Python renders them with shortest-repr), and a non-finite float
is written as the string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, which
``float`` reads back.  Identical inputs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .certify import A1Stats, CertificationReport, RatioStats
from .mixture import MixtureFamily, TauSolution
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
    "save_report",
    "save_trajectory",
]

CHOI_NORMALIZATION_TAG = "trace-dim-a"
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _encode_float(x) -> float | str:
    """``x`` as a float, or as its ``_NON_FINITE`` string if it is not finite."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _encode(value):
    """The document of ``value``: dataclasses, lists and arrays walked, floats encoded."""
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return complex_matrix_to_pairs(value)
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _decode_non_finite(value):
    """Inverse of ``_encode_float`` for one scalar document value."""
    return _NON_FINITE.get(value, value) if isinstance(value, str) else value


def complex_matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


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


def _trajectory_from_dict(doc: dict) -> Trajectory:
    traj = Trajectory(
        states=[pairs_to_complex_matrix(s) for s in doc["states"]],
        gamma=None if doc.get("gamma") is None else float(doc["gamma"]),
        values=[float(v) for v in doc["values"]],
        step_kl=[float(v) for v in doc["step_kl"]],
        step_domega=[float(v) for v in doc["step_domega"]],
        tau_history=[
            TauSolution(
                tau=np.array(entry["tau"], dtype=float),
                gradient_norm=float(entry["gradient_norm"]),
                iterations=int(entry["iterations"]),
            )
            for entry in doc.get("tau_history", [])
        ],
    )
    traj.check_consistent()
    return traj


def save_trajectory(path, traj: Trajectory) -> None:
    Path(path).write_text(json.dumps(_encode(traj), allow_nan=False))


def load_trajectory(path) -> Trajectory:
    return _trajectory_from_dict(json.loads(Path(path).read_text()))


def report_to_dict(report: CertificationReport) -> dict:
    """The report document, every threshold and seed included; strict JSON."""
    return _encode(report)


def _report_from_dict(doc: dict) -> CertificationReport:
    fields = {f.name for f in dataclasses.fields(CertificationReport)}
    kwargs = {k: _decode_non_finite(v) for k, v in doc.items() if k in fields}
    for key, stats in (("a1", A1Stats), ("a2", RatioStats), ("a3", RatioStats)):
        kwargs[key] = stats(**{k: _decode_non_finite(v) for k, v in doc[key].items()})
    return CertificationReport(**kwargs)


def save_report(path, report: CertificationReport) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=1, allow_nan=False))


def load_report(path) -> CertificationReport:
    """Read a ``save_report`` file, or the ``report`` member of a ``certify --out`` document."""
    doc = json.loads(Path(path).read_text())
    return _report_from_dict(doc.get("report", doc))

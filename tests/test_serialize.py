import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qabcert
from qabcert import (
    ChannelObjective,
    ChannelPair,
    MixtureFamily,
    QabOptions,
    certify,
    dephasing_choi,
    depolarizing_choi,
    qab_run,
)
from qabcert.qab_core import Trajectory
from qabcert.quantum import PAULI_X, PAULI_Z, random_density
from qabcert.serialize import (
    complex_matrix_to_pairs,
    load_channel,
    load_constraints,
    load_matrix,
    load_report,
    load_trajectory,
    pairs_to_complex_matrix,
    report_to_dict,
    save_channel,
    save_trajectory,
)

from conftest import BAD_STATE_EDITS, solve_trajectory


def test_pair_encoding_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = pairs_to_complex_matrix(complex_matrix_to_pairs(m))
    assert np.array_equal(back, m)  # bit exact


def test_channel_round_trip(tmp_path):
    choi = depolarizing_choi(0.371)
    path = tmp_path / "channel.json"
    save_channel(path, choi)
    back = load_channel(path)
    assert np.array_equal(back.mat, choi.mat)
    assert (back.dim_a, back.dim_b) == (2, 2)


def test_channel_kraus_format(tmp_path):
    doc = {
        "format": "kraus",
        "dim_a": 2,
        "dim_b": 2,
        "normalization": "trace-dim-a",
        "kraus": [
            complex_matrix_to_pairs(np.sqrt(0.4) * np.eye(2)),
            complex_matrix_to_pairs(np.sqrt(0.6) * PAULI_Z),
        ],
    }
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(doc))
    back = load_channel(path)
    assert np.allclose(back.mat, dephasing_choi(0.4).mat, atol=1e-12)


def test_channel_unknown_normalization_rejected(tmp_path):
    path = tmp_path / "bad.json"
    save_channel(path, dephasing_choi(0.4))
    doc = json.loads(path.read_text())
    doc["normalization"] = "trace-one"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="normalization"):
        load_channel(path)


def test_constraint_matrix_file_is_read(tmp_path):
    h = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"matrix": complex_matrix_to_pairs(h)}))
    assert np.array_equal(load_matrix(path), h)
    path.write_text(json.dumps(complex_matrix_to_pairs(h)))  # a bare list is not the format
    with pytest.raises(ValueError, match="matrix"):
        load_matrix(path)
    shapes = [([], r"\(0,\)"), ([[]], r"\(1, 0\)"), ([[[1, 0], [0, 0], [0, 0]]], r"\(1, 3\)")]
    for rows, shape in shapes:
        path.write_text(json.dumps({"matrix": rows}))
        with pytest.raises(ValueError, match=f"square and non-empty, not of shape {shape}"):
            load_matrix(path)


def test_constraints_round_trip(tmp_path):
    fam = MixtureFamily(observables=(PAULI_Z, PAULI_X), targets=(-0.25, 0.125))
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps({"constraints": [
        {"matrix": complex_matrix_to_pairs(h), "target": c}
        for h, c in zip(fam.observables, fam.targets)]}))
    back = load_constraints(path)
    assert len(back.observables) == 2
    for a, b in zip(back.observables, fam.observables):
        assert np.array_equal(a, b)
    assert back.targets == fam.targets


def test_trajectory_round_trip(tmp_path):
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    traj = qab_run(obj, QabOptions(initial=random_density(2, 3), max_iters=8))
    path = tmp_path / "traj.json"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.values == traj.values  # bit exact
    assert back.step_kl == traj.step_kl
    assert back.step_domega == traj.step_domega
    assert back.gamma == traj.gamma == 1.0
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a, b)
    # A second dump of the loaded trajectory is byte-identical.
    path2 = tmp_path / "traj2.json"
    save_trajectory(path2, back)
    assert path.read_text() == path2.read_text()


def test_a_solve_trajectory_passes_the_gate_byte_for_byte(tmp_path):
    path, path2 = tmp_path / "t.json", tmp_path / "t2.json"
    path.write_text(solve_trajectory())
    save_trajectory(path2, load_trajectory(path))
    assert path2.read_text() == path.read_text()


@pytest.mark.parametrize("edit", BAD_STATE_EDITS)
def test_the_gate_rejects_a_state_that_is_no_density_matrix(tmp_path, edit):
    path = tmp_path / "t.json"
    path.write_text(solve_trajectory(edit))
    n_states = len(json.loads(solve_trajectory())["states"])
    index = BAD_STATE_EDITS[edit][0] % n_states
    with pytest.raises(ValueError, match=f"trajectory state {index} is not a density matrix"):
        load_trajectory(path)


def _malformed_documents() -> dict:
    """Edits of a solve's trajectory document that the gate rejects: (document, error text)."""
    doc = json.loads(solve_trajectory())
    states, qutrit = doc["states"], complex_matrix_to_pairs(np.eye(3) / 3)
    one_state = {"states": states[:1], "values": doc["values"][:1], "step_kl": [], "step_domega": []}
    return {
        "one-state": ({**doc, **one_state}, "two or more states"),
        "short-step-record": ({**doc, "step_domega": doc["step_domega"][:-1]}, "a record per step"),
        "ragged": ({**doc, "states": [*states[:-1], qutrit]}, "same shape"),
        "not-square": ({**doc, "states": [state[:1] for state in states]}, "square matrices"),
    }


MALFORMED = _malformed_documents()


@pytest.mark.parametrize("doc, match", MALFORMED.values(), ids=MALFORMED.keys())
def test_the_gate_rejects_a_malformed_document(tmp_path, doc, match):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_trajectory(path)


def save_certify_document(path, report):
    """Write ``report`` as the ``report`` member of a ``certify --out`` document."""
    doc = {"version": qabcert.__version__, "config": {}, "report": report_to_dict(report)}
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def test_report_round_trip(tmp_path):
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    traj = qab_run(obj, QabOptions(initial=random_density(2, 3), max_iters=20))
    report = certify(traj, obj, n_samples=50, seed=13)
    path = tmp_path / "report.json"
    save_certify_document(path, report)
    back = load_report(path)
    assert back == report
    assert json.dumps(report_to_dict(back)) == json.dumps(report_to_dict(report))


REPORT_KEYS = [
    "gamma", "samples", "seed", "eps_max", "divergence_skip_tol",
    "a1", "a1_pass", "a1_margin", "a2", "a2_pass", "a2_tolerance", "a3", "a3_pass",
    "bound_value", "bound_t0", "bound_certified", "certified", "proxy_note",
]  # fmt: skip


def test_report_document_keys_and_order():
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    traj = qab_run(obj, QabOptions(initial=random_density(2, 3), max_iters=20))
    doc = report_to_dict(certify(traj, obj, n_samples=50, seed=13))
    assert list(doc) == REPORT_KEYS
    assert doc["divergence_skip_tol"] == 1e-14
    ratio_keys = ["min", "max", "count", "arg_min", "arg_max", "skipped"]
    assert list(doc["a1"]) == ratio_keys + ["max_rounding"]
    assert list(doc["a2"]) == list(doc["a3"]) == ratio_keys


def test_real_states_are_written_as_pairs(tmp_path):
    states = [np.diag([0.25, 0.75]), np.eye(2) / 2]
    traj = Trajectory(states, [-0.5, -0.25], [0.125], [0.0625], gamma=2.0)
    path = tmp_path / "real.json"
    save_trajectory(path, traj)
    assert json.loads(path.read_text())["states"][0] == [[[0.25, 0.0], [0.0, 0.0]],
                                                         [[0.0, 0.0], [0.75, 0.0]]]
    back = load_trajectory(path)
    for a, b in zip(back.states, states):
        assert np.array_equal(a, b)


def test_every_trajectory_field_is_saved_and_loaded(tmp_path):
    fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    opts = QabOptions(initial=np.diag([0.375, 0.625]), gamma=2, max_iters=4, family=fam)
    traj = qab_run(ChannelObjective(pair), opts)
    path = tmp_path / "traj.json"
    save_trajectory(path, traj)
    names = [f.name for f in dataclasses.fields(Trajectory)]
    assert list(json.loads(path.read_text())) == names
    back = load_trajectory(path)
    for name in names:
        saved, loaded = getattr(traj, name), getattr(back, name)
        if name == "states":
            assert len(loaded) == len(saved) == 5
            assert all(np.array_equal(a, b) for a, b in zip(loaded, saved))
        elif name == "tau_history":
            assert len(loaded) == len(saved) == 4
            for a, b in zip(loaded, saved):
                assert np.array_equal(a.tau, b.tau)
                assert (a.gradient_norm, a.iterations) == (b.gradient_norm, b.iterations)
        else:
            assert loaded == saved
    # An int gamma is recorded as a float, so a second dump is byte-identical.
    path2 = tmp_path / "traj2.json"
    save_trajectory(path2, back)
    assert path2.read_text() == path.read_text()


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_values_are_strict_json_and_round_trip(tmp_path):
    # A floored iterate's step_kl is +inf and fails (a3) closed with NaN stats;
    # both must be written as strings that strict JSON accepts and read back.
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    traj = qab_run(obj, QabOptions(initial=random_density(2, 5), max_iters=30))
    traj.step_kl[2] = np.inf
    traj.step_domega[2] = 5.0
    traj.values[0] = -np.inf
    report = certify(traj, obj, n_samples=200)
    assert math.isnan(report.a3.min) and math.isnan(report.a3.max)

    traj_path, report_path = tmp_path / "traj.json", tmp_path / "report.json"
    save_trajectory(traj_path, traj)
    save_certify_document(report_path, report)
    doc = strict_loads(traj_path.read_text())
    assert doc["step_kl"][2] == "Infinity" and doc["values"][0] == "-Infinity"
    assert strict_loads(report_path.read_text())["report"]["a3"]["min"] == "NaN"
    strict_loads(json.dumps(report_to_dict(report)))

    back = load_trajectory(traj_path)
    assert back.step_kl == traj.step_kl and back.values == traj.values
    loaded = load_report(report_path)
    assert math.isnan(loaded.a3.min) and math.isnan(loaded.a3.max)
    assert report_to_dict(loaded) == report_to_dict(report)


def test_missing_optional_trajectory_keys_keep_their_defaults(tmp_path):
    traj = Trajectory([np.eye(2) / 2, np.diag([0.25, 0.75])], [-0.5, -0.25], [0.125], [0.0625])
    path = tmp_path / "traj.json"
    save_trajectory(path, traj)
    doc = json.loads(path.read_text())
    del doc["gamma"], doc["tau_history"]
    path.write_text(json.dumps(doc))
    back = load_trajectory(path)
    assert back.gamma is None and back.tau_history == []


def test_decoded_scalars_have_their_field_types(tmp_path):
    fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    traj = qab_run(obj, QabOptions(initial=np.diag([0.375, 0.625]), max_iters=6, family=fam))
    traj_path, report_path = tmp_path / "traj.json", tmp_path / "report.json"
    save_trajectory(traj_path, traj)
    save_certify_document(report_path, certify(traj, obj, n_samples=50, seed=13))

    doc = json.loads(traj_path.read_text())
    doc["values"][1], doc["tau_history"][0]["tau"][0] = "Infinity", "-Infinity"
    traj_path.write_text(json.dumps(doc))
    back = load_trajectory(traj_path)
    assert back.values[1] == math.inf and back.tau_history[0].tau[0] == -math.inf
    assert back.tau_history[0].tau.dtype == float
    assert all(type(t.iterations) is int for t in back.tau_history)

    doc = json.loads(report_path.read_text())
    doc["report"]["a2"]["min"], doc["report"]["a3"]["max"] = "NaN", "Infinity"
    report_path.write_text(json.dumps(doc))
    report = load_report(report_path)
    assert math.isnan(report.a2.min) and report.a3.max == math.inf
    assert not (report.a2_pass or report.a3_pass or report.certified)
    ints = (report.seed, report.bound_t0, report.a1.count, report.a2.count, report.a3.count)
    assert all(type(v) is int for v in ints)
    del doc["report"]["bound_t0"]  # a required field
    report_path.write_text(json.dumps(doc))
    with pytest.raises(TypeError):
        load_report(report_path)

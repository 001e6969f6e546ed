"""Command-line interface: exit codes, JSON payloads, file outputs."""

import json

import numpy as np
import pytest

from metriclab import (
    Embedding,
    FiniteMetricSpace,
    geometric_range_set,
    random_s_ultrametric,
    random_space,
    space_from_json,
    space_to_json,
    sup_distance,
    trial_rng,
)
from metriclab import cli, jsontext, lab
from metriclab.cli import main

GEOMETRIC_S = {"kind": "geometric", "ratio": 0.5, "scale": 1.0}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _line_space_json(positions, labels, flavor="metric"):
    pos = np.asarray(positions, dtype=float)
    matrix = np.abs(pos[:, None] - pos[None, :])
    return {"labels": list(labels), "matrix": matrix.tolist(), "flavor": flavor}


def _stdout_json(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_a_metric(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 3.0], "abc"))
    assert main(["validate", path]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload == {"valid": True, "n": 3, "flavor": "metric", "diameter": 3.0}


def test_validate_rejects_and_names_the_axiom(tmp_path, capsys):
    bad = {
        "labels": ["a", "b", "c"],
        "matrix": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
        "flavor": "metric",
    }
    path = _write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 1
    payload, _ = _stdout_json(capsys)
    assert payload["valid"] is False
    assert payload["axiom"] == "triangle"
    assert sorted(payload["indices"]) == [0, 1, 2]


def test_validate_honours_tol(tmp_path, capsys):
    # d(0,2) exceeds the path through 1 by 1e-6: valid at tol 1e-3 only.
    near = {
        "labels": ["a", "b", "c"],
        "matrix": [[0.0, 1.0, 2.000001], [1.0, 0.0, 1.0], [2.000001, 1.0, 0.0]],
        "flavor": "metric",
    }
    path = _write(tmp_path, "near.json", near)
    assert main(["validate", path, "--tol", "1e-3"]) == 0
    payload, err = _stdout_json(capsys)
    assert err == ""
    assert payload == {"valid": True, "n": 3, "flavor": "metric", "diameter": 2.000001}
    assert main(["validate", path]) == 1
    payload, _ = _stdout_json(capsys)
    assert payload["axiom"] == "triangle"


def test_validate_rejects_a_nan_tol(tmp_path, capsys):
    bad = {
        "labels": ["a", "b", "c"],
        "matrix": [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
        "flavor": "metric",
    }
    path = _write(tmp_path, "bad.json", bad)
    assert main(["validate", path, "--tol", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be nonnegative\n"


def test_validate_writes_out_file(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 2.0], "ab"))
    out = tmp_path / "result.json"
    assert main(["validate", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["valid"] is True


# ---------------------------------------------------------------------------
# moduli


def test_moduli_reports_the_three_bits(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    assert main(["moduli", path]) == 0
    payload, _ = _stdout_json(capsys)
    assert set(payload) == {"u1", "u2", "u3", "thresholds", "reports"}
    assert payload["u1"] in (0, 1)
    assert "bottleneck_matrix" not in payload["reports"]["ud"]


def test_moduli_full_includes_bottleneck_matrix(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    assert main(["moduli", path, "--full"]) == 0
    payload, _ = _stdout_json(capsys)
    matrix = payload["reports"]["ud"]["bottleneck_matrix"]
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)


def test_moduli_honors_rmin_and_beta(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    assert main(["moduli", path, "--rmin", "0.5", "--beta", "3.0"]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["reports"]["up"]["r_min"] == 0.5
    assert payload["reports"]["doubling"]["beta"] == 3.0
    assert payload["thresholds"]["beta0"] == 3.0


def test_moduli_rejects_an_infinite_rmin(tmp_path, capsys):
    # --rmin inf used to exit 0 with "radius": Infinity, which is not JSON
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    assert main(["moduli", path, "--rmin", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BadScaleCutoff")
    # a finite r_min past the diameter is still the empty window
    assert main(["moduli", path, "--rmin", "1e308"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["reports"]["up"]["degenerate"] is True
    assert payload["reports"]["up"]["r_min"] == 1e308


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_moduli_reads_thresholds_file(tmp_path, capsys):
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    thresholds = _write(
        tmp_path,
        "thresholds.json",
        {"beta0": 1.0, "c_max": 2.5, "delta_min": 0.05, "c_min": 0.05},
    )
    assert main(["moduli", path, "--thresholds", thresholds]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["thresholds"]["c_max"] == 2.5
    assert payload["reports"]["doubling"]["beta"] == 1.0


@pytest.mark.parametrize("source", ["flag", "file"])
def test_moduli_rejects_a_non_finite_beta(tmp_path, capsys, source):
    # beta = inf used to exit 0 with "beta": Infinity, which is not JSON
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 2.0, 3.0], "abcd"))
    if source == "flag":
        argv = ["moduli", path, "--beta", "inf"]
    else:
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text('{"beta0": Infinity}', encoding="utf-8")
        argv = ["moduli", path, "--thresholds", str(thresholds)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "beta must be positive and finite" in captured.err


# ---------------------------------------------------------------------------
# amalgamate


def test_amalgamate_sum_form(tmp_path, capsys):
    labels = ["p0", "p1", "p2", "p3", "p4"]
    host = _write(
        tmp_path, "host.json", _line_space_json([0.0, 0.3, 10.0, 10.2, 10.4], labels)
    )
    part = _write(
        tmp_path, "part.json", {"pieces": [[0, 1], [2, 3, 4]], "basepoints": [0, 3]}
    )
    piece0 = _write(
        tmp_path, "piece0.json", _line_space_json([0.0, 0.25], labels[:2])
    )
    piece1 = _write(
        tmp_path, "piece1.json", _line_space_json([0.0, 0.15, 0.3], labels[2:])
    )
    assert main(["amalgamate", host, part, piece0, piece1]) == 0
    payload, _ = _stdout_json(capsys)
    out = space_from_json(payload)
    assert out.matrix[0, 1] == 0.25
    assert out.matrix[2, 3] == 0.15
    assert out.matrix[1, 2] == (0.25 + 0.15) + 10.2


def test_amalgamate_max_form_over_rangeset(tmp_path, capsys):
    half = {
        "labels": ["00", "01", "10", "11"],
        "matrix": [
            [0.0, 0.5, 1.0, 1.0],
            [0.5, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.5],
            [1.0, 1.0, 0.5, 0.0],
        ],
        "flavor": "ultrametric",
    }
    host = _write(tmp_path, "uhost.json", half)
    part = _write(
        tmp_path, "upart.json", {"pieces": [[0, 1], [2, 3]], "basepoints": [0, 2]}
    )

    def piece(name, labels):
        return _write(
            tmp_path,
            name,
            {
                "labels": labels,
                "matrix": [[0.0, 0.125], [0.125, 0.0]],
                "flavor": "ultrametric",
            },
        )

    piece0 = piece("upiece0.json", ["00", "01"])
    piece1 = piece("upiece1.json", ["10", "11"])
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(["amalgamate", host, part, piece0, piece1, "--rangeset", S]) == 0
    payload, _ = _stdout_json(capsys)
    out = space_from_json(payload)
    assert out.flavor == "ultrametric"
    assert out.matrix[0, 1] == 0.125
    assert out.matrix[0, 2] == 1.0


# ---------------------------------------------------------------------------
# approximate


def test_approximate_doubling_payload(tmp_path, capsys):
    space = random_space("closure", 12, trial_rng(80, 0))
    path = _write(tmp_path, "space.json", space_to_json(space))
    assert main(
        ["approximate", path, "--property", "doubling", "--epsilon", "0.125", "--fraction"]
    ) == 0
    payload, _ = _stdout_json(capsys)
    eps = payload["epsilon"]
    assert eps == 0.125 * space.diameter
    out = space_from_json(payload["space"])
    assert sup_distance(out, space) <= 4 * eps
    embedding = Embedding(payload["embedding"]["coordinates"])
    assert embedding.dimension == payload["embedding"]["dimension"]
    assert embedding.coordinates.shape[0] == space.n
    assert np.array_equal(embedding.pairwise_linf(), out.matrix)


def test_approximate_ud_with_rangeset(tmp_path, capsys):
    S_path = _write(tmp_path, "S.json", GEOMETRIC_S)
    space = random_s_ultrametric(16, geometric_range_set(0.5), trial_rng(81, 0))
    path = _write(tmp_path, "space.json", space_to_json(space))
    assert main(
        [
            "approximate",
            path,
            "--property",
            "ud",
            "--epsilon",
            "0.125",
            "--rangeset",
            S_path,
        ]
    ) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["delta_star"] == 1.0
    out = space_from_json(payload["space"])
    assert out.flavor == "ultrametric"


@pytest.mark.parametrize("prop", ["doubling", "up"])
def test_approximate_rejects_a_rangeset_outside_ud(tmp_path, capsys, prop):
    # only the ud pipeline takes S; the others would ignore the file
    S_path = _write(tmp_path, "S.json", GEOMETRIC_S)
    space = random_space("points_linf", 12, trial_rng(82, 0))
    path = _write(tmp_path, "space.json", space_to_json(space))
    argv = ["approximate", path, "--property", prop, "--epsilon", "0.125", "--fraction"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--rangeset", S_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --rangeset applies to --property ud only, not {prop}\n"


def test_approximate_up_payload(tmp_path, capsys):
    positions = [0.0, 0.01, 0.02, 0.03, 5.0, 5.01, 5.02, 5.03]
    labels = [f"p{k}" for k in range(8)]
    host_json = _line_space_json(positions, labels)
    path = _write(tmp_path, "space.json", host_json)
    assert main(["approximate", path, "--property", "up", "--epsilon", "1.0"]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["c_star"] >= payload["heredity_floor"] > 0
    assert payload["eps_effective"] >= 1.0
    assert payload["r_min"] > 0
    out = space_from_json(payload["space"])
    host = space_from_json(host_json)
    assert sup_distance(out, host) <= 4 * payload["eps_effective"]


# ---------------------------------------------------------------------------
# cantor gen


def test_cantor_gen_from_sequence(tmp_path, capsys):
    seq = _write(tmp_path, "seq.json", {"values": [0.8, 0.4, 0.2], "envelope": None})
    assert main(["cantor", "gen", "--sequence", seq, "--depth", "3"]) == 0
    payload, _ = _stdout_json(capsys)
    out = space_from_json(payload["space"])
    assert out.n == 8
    assert out.flavor == "ultrametric"
    assert out.matrix[0, 4] == 0.8  # "000" vs "100" differ at the first letter


def test_cantor_gen_from_type(tmp_path, capsys):
    assert main(["cantor", "gen", "--type", "110", "--depth", "4", "--seed", "5"]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["type"] == "110"
    assert payload["recipe"] == "gapped-ladder"
    assert len(payload["space"]["labels"]) == 16


def test_cantor_gen_requires_exactly_one_source(tmp_path, capsys):
    assert main(["cantor", "gen", "--depth", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    seq = _write(tmp_path, "seq.json", {"values": [0.8, 0.4, 0.2], "envelope": None})
    assert main(["cantor", "gen", "--sequence", seq, "--type", "111", "--depth", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cantor_gen_reports_generation_failure(capsys):
    assert main(["cantor", "gen", "--type", "001", "--depth", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: GenerationFailed")


# ---------------------------------------------------------------------------
# rangeset


def test_rangeset_check_passes(tmp_path, capsys):
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(["rangeset", "check", S, "--a", "0.5", "--m", "1.5", "--n", "10"]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["ok"] is True
    assert payload["first_fail"] is None
    assert len(payload["witnesses"]) == 11


def test_rangeset_check_fails_with_first_window(tmp_path, capsys):
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(["rangeset", "check", S, "--a", "0.6", "--m", "1.05", "--n", "6"]) == 1
    payload, _ = _stdout_json(capsys)
    assert payload["ok"] is False
    assert payload["first_fail"] == 1


@pytest.mark.parametrize("m", ["nan", "inf"])
def test_rangeset_check_rejects_a_non_finite_m(tmp_path, capsys, m):
    # both once exited 0: NaN passed every window with witnesses 1.0, and
    # inf with witnesses 0.0
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(["rangeset", "check", S, "--a", "0.5", f"--m={m}", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: M must be finite and >= 1\n"


def test_rangeset_sequence_extracts_envelope(tmp_path, capsys):
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(
        ["rangeset", "sequence", S, "--b", "0.6", "--m", "2.0", "--length", "5"]
    ) == 0
    payload, _ = _stdout_json(capsys)
    values = payload["values"]
    assert len(values) == 5
    assert all(b < a for a, b in zip(values, values[1:]))
    assert set(payload["envelope"]) == {"a", "M"}


def test_rangeset_sequence_reports_window_miss(tmp_path, capsys):
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    assert main(
        ["rangeset", "sequence", S, "--b", "0.6", "--m", "1.05", "--length", "5"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: WindowMiss")


# ---------------------------------------------------------------------------
# experiment


def test_experiment_runs_and_passes(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {"experiment": "dense_ud", "n": 12, "trials": 2, "seed": 33},
    )
    assert main(["experiment", config]) == 0
    payload, _ = _stdout_json(capsys)
    assert payload["summary"]["all_pass"] is True
    assert payload["summary"]["rows"] == 2
    assert payload["config"]["experiment"] == "dense_ud"


def test_experiment_override_trials_and_csv(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {"experiment": "dense_ud", "n": 12, "trials": 2, "seed": 33},
    )
    assert main(["experiment", config, "--trials", "1", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert "trial" in lines[0].split(",")


def test_experiment_writes_out_file(tmp_path, capsys):
    config = _write(
        tmp_path,
        "cfg.json",
        {"experiment": "dense_ud", "n": 12, "trials": 1, "seed": 33},
    )
    out = tmp_path / "report.json"
    assert main(["experiment", config, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["summary"]["all_pass"] is True


def test_experiment_exit_code_reflects_failures(tmp_path, capsys):
    config = _write(
        tmp_path, "cfg.json", {"experiment": "type_grid", "depth": 6, "seed": 0}
    )
    assert main(["experiment", config]) == 1
    payload, _ = _stdout_json(capsys)
    assert payload["summary"]["all_pass"] is False
    assert payload["summary"]["passes"] < payload["summary"]["rows"]


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


def test_malformed_json_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_keys_is_a_clean_error(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", {})
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# JSON reads this as a Python int; converting it to a float overflows
HUGE = 10**400


@pytest.mark.parametrize(
    "obj, commands",
    [
        ({"experiment": "dense_ud", "n": 12, "epsilon": HUGE}, [["experiment", "FILE"]]),
        ({"beta0": HUGE}, [["moduli", "SPACE", "--thresholds", "FILE"]]),
        ({"c_max": HUGE}, [["moduli", "SPACE", "--thresholds", "FILE"]]),
        (
            {"labels": ["a", "b"], "matrix": [[0, HUGE], [HUGE, 0]]},
            [["validate", "FILE"], ["moduli", "FILE"]],
        ),
        (
            {"kind": "geometric", "ratio": HUGE, "scale": 1.0},
            [["rangeset", "check", "FILE", "--a", "2", "--m", "2", "--n", "3"]],
        ),
        (
            {"values": [HUGE, 0.5, 0.25], "envelope": None},
            [["cantor", "gen", "--sequence", "FILE", "--depth", "2"]],
        ),
    ],
    ids=["config_epsilon", "thresholds", "thresholds_c_max", "space_matrix", "rangeset_ratio", "sequence"],
)
def test_an_integer_too_large_for_a_float_is_a_clean_error(tmp_path, capsys, obj, commands):
    files = {
        "FILE": _write(tmp_path, "input.json", obj),
        "SPACE": _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 3.0], "abc")),
    }
    for command in commands:
        assert main([files.get(arg, arg) for arg in command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: int too large to convert to float\n"


@pytest.mark.parametrize(
    "obj",
    [[[0.0, 1.0], [1.0, 0.0]], {"labels": 5, "matrix": [[0.0]]}],
    ids=["top_level_list", "scalar_labels"],
)
def test_validate_of_a_malformed_space_is_a_clean_error(tmp_path, capsys, obj):
    path = _write(tmp_path, "space.json", obj)
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err.startswith("error: malformed space object:")


@pytest.mark.parametrize(
    "thresholds",
    [[1, 2], {"beta0": [1]}, {"c_min": True}, {"beta0": "2"}],
    ids=["list", "nested", "bool", "string"],
)
def test_malformed_thresholds_are_a_clean_error(tmp_path, capsys, thresholds):
    space = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 3.0], "abc"))
    path = _write(tmp_path, "thresholds.json", thresholds)
    assert main(["moduli", space, "--thresholds", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed thresholds object:")


def test_an_integer_threshold_beyond_uint64_is_read_as_a_float(tmp_path, capsys):
    # 2**70 is finite; checking it as a numpy array would raise TypeError
    space = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 3.0], "abc"))
    path = _write(tmp_path, "thresholds.json", {"c_max": 2**70})
    assert main(["moduli", space, "--thresholds", path]) == 0
    assert json.loads(capsys.readouterr().out)["thresholds"]["c_max"] == 2.0**70


@pytest.mark.parametrize(
    "text",
    ['{"c_max": NaN, "delta_min": Infinity}', '{"delta_min": -Infinity}', '{"c_min": NaN}'],
    ids=["c_max_nan", "delta_min_minus_inf", "c_min_nan"],
)
def test_non_finite_thresholds_are_a_clean_error(tmp_path, capsys, text):
    # NaN and inf used to exit 0: the all-ones ladder classified as 001
    # and the output held "c_max": NaN, which is not JSON
    space = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0, 3.0], "abc"))
    path = tmp_path / "thresholds.json"
    path.write_text(text, encoding="utf-8")
    assert main(["moduli", space, "--thresholds", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed thresholds object:")
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "field",
    [
        {"experiment": "dense_ud", "n": 3.5},
        {"experiment": "dense_ud", "n": 40.0},
        {"experiment": "type_grid", "depth": 6.5},
    ],
    ids=["fractional_n", "float_n", "fractional_depth"],
)
def test_non_integer_experiment_sizes_are_a_clean_error(tmp_path, capsys, field):
    config = _write(tmp_path, "cfg.json", field)
    assert main(["experiment", config]) == 1
    name = "depth" if "depth" in field else "n"
    assert capsys.readouterr().err.startswith(f"error: {name} must be an integer")


@pytest.mark.parametrize("obj", [[1, 2], "dense_ud"], ids=["list", "string"])
@pytest.mark.parametrize(
    "flags", [[], ["--seed", "3"], ["--format", "csv"]], ids=["no-flag", "seed", "format"]
)
def test_non_object_experiment_config_is_a_clean_error(tmp_path, capsys, obj, flags):
    config = _write(tmp_path, "cfg.json", obj)
    assert main(["experiment", config, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed experiment config: ")


def test_experiment_flags_override_the_file_before_validation(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"experiment": "dense_ud", "n": 12, "format": "yaml"})
    assert main(["experiment", config, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("achieved,")


def test_malformed_experiment_thresholds_are_a_clean_error(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"experiment": "dense_ud", "thresholds": [1]})
    assert main(["experiment", config]) == 1
    assert capsys.readouterr().err.startswith("error: malformed thresholds object:")


def test_experiment_out_that_is_not_a_path_is_a_clean_error(tmp_path, capsys):
    # open() takes an integer as a file descriptor: with out = 1 the
    # report would go to fd 1 and stdout would be closed
    config = _write(tmp_path, "cfg.json", {"experiment": "dense_ud", "n": 8, "out": 1})
    assert main(["experiment", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out must be a file path, got 1")


# ---------------------------------------------------------------------------
# output format


def test_outputs_are_the_indenting_encoders_bytes(tmp_path, capsys, monkeypatch):
    payloads = []

    def spy(obj):
        payloads.append(obj)
        return jsontext.dumps(obj)

    monkeypatch.setattr(cli, "dumps", spy)
    monkeypatch.setattr(lab, "dumps", spy)
    space = random_space("closure", 12, trial_rng(82, 0))
    space = _write(tmp_path, "space.json", space_to_json(space))
    ultra = random_s_ultrametric(16, geometric_range_set(0.5), trial_rng(81, 0))
    ultra = _write(tmp_path, "ultra.json", space_to_json(ultra))
    S = _write(tmp_path, "S.json", GEOMETRIC_S)
    labels = ["p0", "p1", "p2", "p3", "p4"]
    host = _write(tmp_path, "host.json", _line_space_json([0.0, 0.3, 10.0, 10.2, 10.4], labels))
    part = _write(tmp_path, "part.json", {"pieces": [[0, 1], [2, 3, 4]], "basepoints": [0, 3]})
    piece0 = _write(tmp_path, "piece0.json", _line_space_json([0.0, 0.25], labels[:2]))
    piece1 = _write(tmp_path, "piece1.json", _line_space_json([0.0, 0.15, 0.3], labels[2:]))
    seq = _write(tmp_path, "seq.json", {"values": [0.8, 0.4, 0.2], "envelope": None})
    config = _write(tmp_path, "cfg.json", {"experiment": "dense_ud", "n": 12, "trials": 2})
    approximate = ["approximate", space, "--epsilon", "0.125", "--fraction", "--property"]
    # argv, and the key paths of the output matrices the emitted object holds
    matrix = ("space", "matrix")
    for argv, matrices in (
        (["validate", space], ()),
        (["moduli", space, "--full"], (("reports", "ud", "bottleneck_matrix"),)),
        (approximate + ["doubling"], (matrix, ("embedding", "coordinates"))),
        (approximate + ["ud"], (matrix,)),
        (approximate + ["up"], (matrix,)),
        (
            ["approximate", ultra, "--property", "ud", "--epsilon", "0.125", "--rangeset", S],
            (matrix,),
        ),
        (["amalgamate", host, part, piece0, piece1], (("matrix",),)),
        (["cantor", "gen", "--type", "110", "--depth", "4"], (matrix,)),
        (["cantor", "gen", "--sequence", seq, "--depth", "3"], (matrix,)),
        (["experiment", config], ()),
    ):
        payloads.clear()
        assert main(argv) == 0, argv
        assert len(payloads) == 1
        for path in matrices:
            emitted = payloads[0]
            for key in path:
                emitted = emitted[key]
            assert type(emitted) is np.ndarray, (argv, path)  # the writer's array path
        expected = (
            json.dumps(payloads[0], sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
        )
        assert capsys.readouterr().out == expected, argv


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_output_is_a_clean_error_and_writes_nothing(tmp_path, capsys, monkeypatch, bad):
    # no command's own output holds one; a space built without validation
    # (the constructor checks no axiom) stands in for the next escape
    space = FiniteMetricSpace(("a", "b"), np.array([[0.0, bad], [bad, 0.0]]))
    monkeypatch.setattr(cli, "space_from_json", lambda obj, tol: space)
    path = _write(tmp_path, "space.json", _line_space_json([0.0, 1.0], "ab"))
    out = tmp_path / "out.json"
    for argv in (["validate", path], ["validate", path, "--out", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the scalar diameter stops json's own encoder, which names the value
        assert captured.err == (
            f"error: Out of range float values are not JSON compliant: {bad!r}\n"
        )
    assert not out.exists()

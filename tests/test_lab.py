"""Experiment configs, random instances, trial records, and reports."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

import oracles as orc
from metriclab import (
    ExperimentConfig,
    Thresholds,
    TrialRecord,
    diagnose,
    explicit_range_set,
    geometric_range_set,
    matrix_digest,
    random_s_ultrametric,
    random_space,
    render_report,
    run_experiment,
    trial_rng,
    validate,
)
from metriclab import lab
from metriclab.lab import (
    EXPERIMENTS,
    _grid_piece,
    _perturb_within_half,
    _uniform_space,
    grid_host,
)
from metriclab.rangesets import contains


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_per_experiment():
    assert ExperimentConfig("dense_doubling").n == 64
    assert ExperimentConfig("perturb_uniform").n == 32
    assert ExperimentConfig("perturb_chain").n == 33
    assert ExperimentConfig("type_grid").depth == 7
    assert ExperimentConfig("dense_ud", n=2).n == 2


def test_config_guards():
    with pytest.raises(ValueError):
        ExperimentConfig("dense_everything")
    with pytest.raises(ValueError):
        ExperimentConfig("dense_ud", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig("dense_ud", epsilon=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig("dense_ud", epsilon_mode="relative")
    with pytest.raises(ValueError):
        ExperimentConfig("dense_ud", format="yaml")
    with pytest.raises(ValueError):
        ExperimentConfig("type_grid", depth=5)
    with pytest.raises(ValueError):
        ExperimentConfig("dense_doubling", n=1)


def test_config_rejects_two_point_perfectness_hosts():
    # a 2-point space admits no piece structure with both pieces >= 2
    with pytest.raises(ValueError):
        ExperimentConfig("dense_up", n=2)
    assert ExperimentConfig("dense_up", n=3).n == 3


def test_config_json_round_trip():
    config = ExperimentConfig(
        "dense_ult_up",
        n=24,
        epsilon=0.0625,
        epsilon_mode="absolute",
        trials=3,
        seed=11,
        thresholds=Thresholds(c_min=0.1),
        format="csv",
        out="report.csv",
    )
    back = ExperimentConfig.from_json(config.to_json())
    assert back == config
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"trials": 2})
    assert ExperimentConfig.from_json({"experiment": "dense_ud"}).n == 64


@pytest.mark.parametrize(
    "fields",
    [{"trials": 2.7}, {"seed": 3.9}, {"epsilon": True}, {"trials": "3"}],
    ids=["fractional-trials", "fractional-seed", "bool-epsilon", "string-trials"],
)
def test_config_json_values_are_not_coerced(fields):
    with pytest.raises(ValueError, match="must be an integer|must be a number"):
        ExperimentConfig.from_json({"experiment": "dense_ud", **fields})


def test_config_rejects_a_fractional_trial_count():
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        ExperimentConfig("dense_ud", trials=2.5)


def test_config_stores_an_integral_epsilon_as_a_float():
    for config in (
        ExperimentConfig("dense_ud", epsilon=1),
        ExperimentConfig.from_json({"experiment": "dense_ud", "epsilon": 1}),
    ):
        assert repr(config.to_json()["epsilon"]) == "1.0"


# ---------------------------------------------------------------------------
# trial records and digests


def test_trial_record_row_shape():
    record = TrialRecord(
        trial=4,
        digest="ab" * 8,
        epsilon=0.25,
        achieved=0.5,
        bound=1.0,
        passed=True,
        before={"c_star": 0.5},
        after={"c_star": 0.25, "floor": 0.125},
    )
    row = record.to_row()
    assert row["trial"] == 4
    assert row["pass"] is True
    assert row["error"] is None
    assert row["before_c_star"] == 0.5
    assert row["after_c_star"] == 0.25
    assert row["after_floor"] == 0.125


def test_trial_record_nan_becomes_none():
    record = TrialRecord(
        trial=0,
        digest="",
        epsilon=float("nan"),
        achieved=float("nan"),
        bound=float("nan"),
        passed=False,
        error="BadScaleCutoff: no window",
    )
    row = record.to_row()
    assert row["epsilon"] is None
    assert row["achieved"] is None
    assert row["bound"] is None
    assert row["error"].startswith("BadScaleCutoff")


def test_matrix_digest_is_stable_and_short():
    rng = trial_rng(70, 0)
    space = random_space("closure", 8, rng)
    digest = matrix_digest(space)
    assert len(digest) == 16
    assert digest == matrix_digest(space)
    assert digest != matrix_digest(validate(space.labels, space.matrix * 2.0))
    int(digest, 16)  # hex


def test_trial_rng_streams_are_deterministic_and_distinct():
    a = trial_rng(5, 1).uniform(size=4)
    b = trial_rng(5, 1).uniform(size=4)
    c = trial_rng(5, 2).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# random instances


def test_random_space_modes_validate():
    rng = trial_rng(71, 0)
    closure = random_space("closure", 10, rng)
    assert diagnose(closure.labels, closure.matrix) is None
    points = random_space("points_linf", 10, rng)
    assert diagnose(points.labels, points.matrix) is None
    seq = random_space("sequential", 10, rng)
    assert seq.flavor == "ultrametric"
    assert diagnose(seq.labels, seq.matrix, flavor="ultrametric", tol=0.0) is None
    with pytest.raises(ValueError):
        random_space("fancy", 10, rng)
    with pytest.raises(ValueError):
        random_space("closure", 1, rng)


def test_random_space_is_seed_deterministic():
    one = random_space("closure", 9, trial_rng(72, 3))
    two = random_space("closure", 9, trial_rng(72, 3))
    assert matrix_digest(one) == matrix_digest(two)


def test_random_s_ultrametric_values_live_in_s():
    S = geometric_range_set(0.5)
    rng = trial_rng(73, 0)
    space = random_s_ultrametric(16, S, rng)
    assert space.flavor == "ultrametric"
    assert diagnose(space.labels, space.matrix, flavor="ultrametric", tol=0.0) is None
    for v in np.unique(space.matrix):
        assert v == 0.0 or contains(S, float(v))
    with pytest.raises(ValueError):
        random_s_ultrametric(16, explicit_range_set([0.0, 1.0]), rng)
    with pytest.raises(ValueError):
        random_s_ultrametric(1, S, rng)


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_perturb_uniform_ratios_match_subset_scan(n):
    for seed in range(3):
        report = run_experiment(ExperimentConfig("perturb_uniform", n=n, seed=seed))
        row = report["rows"][0]
        base = _uniform_space(n)
        perturbed = _perturb_within_half(base, trial_rng(seed, 0))
        assert row["digest"] == matrix_digest(perturbed)
        min_diam, max_sep = orc.subset_ratio_extremes_by_scan(
            base.matrix, perturbed.matrix
        )
        assert row["after_min_diam_ratio"] == min_diam
        assert row["after_max_sep_ratio"] == max_sep


def test_grid_host_structure():
    rng = trial_rng(75, 0)
    host = grid_host(16, rng)
    assert diagnose(host.labels, host.matrix) is None
    assert host.matrix[:8, :8].max() <= 0.02
    assert host.matrix[:8, 8:].min() >= 1.5


def test_grid_piece_styles_validate():
    labels = tuple(f"q{k}" for k in range(64))
    for style in ("geo", "ring", "gapped", "fat", "fat_offset"):
        piece = _grid_piece(style, labels, 0.25)
        assert piece.labels == labels
        assert piece.diameter <= 0.25
        flavor = piece.flavor
        assert diagnose(piece.labels, piece.matrix, flavor=flavor, tol=0.0) is None
    with pytest.raises(ValueError):
        _grid_piece("round", labels, 0.25)


# ---------------------------------------------------------------------------
# experiment runs


def test_every_dense_experiment_passes_on_small_hosts():
    for experiment in EXPERIMENTS:
        if experiment.startswith("perturb") or experiment == "type_grid":
            continue
        config = ExperimentConfig(experiment, n=16, trials=2, seed=9)
        report = run_experiment(config)
        assert report["summary"]["all_pass"], (experiment, report["rows"])
        assert report["summary"]["rows"] == 2
        for row in report["rows"]:
            assert len(row["digest"]) == 16
            assert row["error"] is None


# sha256 of render_report's JSON and CSV bytes per dense experiment at
# n = 16, seed 9, 2 trials, recorded before the five experiments were
# driven from one table.
DENSE_REPORT_DIGESTS = {
    "dense_doubling": (
        "b50daed87bb64fccdef9b3ad12d6995a9d7849dd82f5c2540c6a0593fadc7d71",
        "4021a9eb03bbc43dc690f9469d0b35d5df034527211351a94deea608f18c6ef8",
    ),
    "dense_ud": (
        "7a61157eba29afc104f0b31633c58c1f2dbd4237b699dd239adca3a64f591081",
        "0b8853555b65d99decff691548c704bbbbb99667a91044d5e4402d0dbfc53cdd",
    ),
    "dense_up": (
        "be47ceda95977d53b158f56ac41b3324cfa45bc603d2618c6d86455966e68a26",
        "bc8d2f68093eef8d370797727e4db7227ebcec5078b6d2abac56bd6f513edc50",
    ),
    "dense_ult_doubling": (
        "a9cd64ae1a10a860e4dc03084ee48b7595c1f200d699e349d72508f9c7117133",
        "1bfd07305dbd7f9ff7e3ced480ff9298abc7ca14ae5756e226092edd44e5b1a4",
    ),
    "dense_ult_up": (
        "7b994c56e54d9c7ece16033aae55546e43e9dcf147c2f0cd6d5cd285be521766",
        "b5f4c7d34973cfd232e30f7ae298afd887911cfa967e2a7487ebd36e90971de9",
    ),
}


# The same digests for the two perturbation experiments, recorded before
# every experiment kind was driven from one table.
PERTURB_REPORT_DIGESTS = {
    "perturb_uniform": (
        "8d70f3940fe68cc018475a5ce85d9f2dab4adf7d3c7a838f9918dd7d58820b7e",
        "349d61a9d0a809c38e11ce78daea0ae98e786cf253850ec75a167d4782c33884",
    ),
    "perturb_chain": (
        "9b569de525fdf49ee468c8fb454a03720126b8e73847659deb5186f18d15449d",
        "d478c8954e0b3bb68d4e11f474e5312bebfc2c80a1e50ffa8ef8d60a0ba8d008",
    ),
}


@pytest.mark.parametrize("experiment", sorted(PERTURB_REPORT_DIGESTS))
def test_perturb_reports_keep_their_bytes(experiment):
    report = run_experiment(ExperimentConfig(experiment, n=16, trials=2, seed=9))
    digests = tuple(
        hashlib.sha256(render_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "csv")
    )
    assert digests == PERTURB_REPORT_DIGESTS[experiment]


@pytest.mark.parametrize("experiment", sorted(DENSE_REPORT_DIGESTS))
def test_dense_reports_keep_their_bytes(experiment):
    """The dense reports stay byte-identical under refactors.

    ROADMAP item 1 (a positive floor for approximate_up) changes the
    dense_up digests on purpose; update them in that change only.
    """
    report = run_experiment(ExperimentConfig(experiment, n=16, trials=2, seed=9))
    digests = tuple(
        hashlib.sha256(render_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "csv")
    )
    assert digests == DENSE_REPORT_DIGESTS[experiment]


# (json, csv) digests of the depth-6 type grid at seed 9.  Only two of
# its eight rows pass at this depth (the fat-ring recipes need 81 points
# and four amalgams miss their type); the digests pin every row.
TYPE_GRID_REPORT_DIGESTS = (
    "4b66b9769a51e021385b2de5f36081a15b9e80ab599de3af033029976c17a7bc",
    "f321206ab43f076a099f914b3bea5577c376403f404f3a7ef39d1dbe5ebff892",
)


def test_type_grid_report_keeps_its_bytes():
    report = run_experiment(ExperimentConfig("type_grid", depth=6, seed=9))
    digests = tuple(
        hashlib.sha256(render_report(report, fmt).encode()).hexdigest()
        for fmt in ("json", "csv")
    )
    assert digests == TYPE_GRID_REPORT_DIGESTS


def test_perturb_uniform_small_run():
    config = ExperimentConfig("perturb_uniform", n=8, trials=2, seed=21)
    report = run_experiment(config)
    assert report["summary"]["all_pass"]
    for row in report["rows"]:
        assert row["achieved"] < 0.5
        assert row["after_min_diam_ratio"] >= 0.5
        assert row["after_max_sep_ratio"] <= 2.0


def test_perturb_uniform_check_fails_on_a_shrunk_pair(monkeypatch):
    # The uniform(-0.49, 0.49) noise keeps every entry in (0.51, 1.49), so
    # the ratio check is fed one entry at 0.45 to show that it can fail.
    def shrink_one_pair(base, rng):
        matrix = base.matrix.copy()
        matrix[0, 1] = matrix[1, 0] = 0.45
        return validate(base.labels, matrix)

    monkeypatch.setattr(lab, "_perturb_within_half", shrink_one_pair)
    report = run_experiment(ExperimentConfig("perturb_uniform", n=8, trials=2, seed=21))
    for row in report["rows"]:
        assert row["after_min_diam_ratio"] == 0.45
        assert row["pass"] is False
    assert report["summary"]["all_pass"] is False


def test_perturb_uniform_check_fails_outside_the_half_ball(monkeypatch):
    # One entry at 1.6 keeps both ratios inside their bounds (0.5 and 2),
    # so only the sup-distance check against the reported bound can fail.
    def stretch_one_pair(base, rng):
        matrix = base.matrix.copy()
        matrix[0, 1] = matrix[1, 0] = 1.6
        return validate(base.labels, matrix)

    monkeypatch.setattr(lab, "_perturb_within_half", stretch_one_pair)
    report = run_experiment(ExperimentConfig("perturb_uniform", n=8, trials=2, seed=21))
    for row in report["rows"]:
        assert row["after_max_sep_ratio"] == 1.6
        assert row["after_min_diam_ratio"] >= 0.5
        assert row["achieved"] > row["bound"] == 0.5
        assert row["pass"] is False
    assert report["summary"]["all_pass"] is False


def test_perturb_chain_small_run():
    config = ExperimentConfig("perturb_chain", n=9, trials=2, seed=22)
    report = run_experiment(config)
    assert report["summary"]["all_pass"]
    for row in report["rows"]:
        assert row["before_delta_star"] == 1.0 / 8.0
        assert row["bound"] == 4.0 / 8.0
        assert row["achieved"] <= row["bound"]


def test_run_experiment_is_deterministic():
    config = ExperimentConfig("dense_ud", n=12, trials=2, seed=33)
    first = render_report(run_experiment(config), "json")
    second = render_report(run_experiment(config), "json")
    assert first == second


def test_csv_and_json_agree_on_numbers():
    config = ExperimentConfig("dense_ud", n=12, trials=2, seed=34)
    report = run_experiment(config)
    text = render_report(report, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(report["rows"])
    for parsed, row in zip(rows, report["rows"]):
        assert float(parsed["achieved"]) == row["achieved"]
        assert float(parsed["epsilon"]) == row["epsilon"]
        assert parsed["pass"] == ("true" if row["pass"] else "false")
        assert parsed["digest"] == row["digest"]


def test_json_report_shape():
    config = ExperimentConfig("dense_doubling", n=12, trials=1, seed=35)
    report = run_experiment(config)
    text = render_report(report, "json")
    parsed = json.loads(text)
    assert parsed["config"]["experiment"] == "dense_doubling"
    assert parsed["summary"]["rows"] == 1
    assert parsed["summary"]["pass_rate"] == 1.0
    assert text == render_report(report, "json")
    assert text.endswith("\n")

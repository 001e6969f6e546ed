"""Every CLI subcommand, swept over edge-valued options and inputs, ends
in strict JSON or a clean error.

Each row is one argv for `cli.main`, run in process with `--out` set.
A row passes when main returns 0 or 1 without raising, any file it
writes parses as JSON holding no NaN or Infinity, a return of 0 writes
the file, and a return of 1 that writes nothing prints `error:` first on
stderr.  Numeric options are passed as `--opt=value`: argparse reads a
bare `-inf` as an option name and exits 2.
"""

import functools
import json
import os

import numpy as np
import pytest

from metriclab import geometric_range_set, random_s_ultrametric, space_to_json, trial_rng
from metriclab import cli
from metriclab.lab import _KINDS

FLOATS = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", "0.5", "2")
INTS = ("-1", "0", "1", "2", "13")
# Entry scales of the amalgamation pieces and hosts.
SCALES = (1e-320, 1e-300, 0.125, 1.0, 1e300, 1e308)


def _uniform(n, value):
    matrix = np.full((n, n), value)
    np.fill_diagonal(matrix, 0.0)
    labels = [f"p{i}" for i in range(n)]
    return {"labels": labels, "matrix": matrix.tolist(), "flavor": "metric"}


def _line(positions):
    pos = np.asarray(positions, dtype=float)
    labels = [f"p{i}" for i in range(len(pos))]
    matrix = np.abs(pos[:, None] - pos[None, :])
    return {"labels": labels, "matrix": matrix.tolist(), "flavor": "metric"}


def _spaces():
    s_valued = random_s_ultrametric(16, geometric_range_set(0.5), trial_rng(81, 0))
    return {
        "n1": _uniform(1, 1.0),
        "n2": _uniform(2, 1.0),
        "n5": _line([0.0, 0.3, 1.0, 1.2, 2.5]),
        "s16": space_to_json(s_valued),
        "tiny3": _uniform(3, 1e-320),
        "huge3": _uniform(3, 1e308),
    }


def _ultrametric_host(scale):
    """Two pairs at distance scale / 2, the pairs scale apart."""
    top, low = scale, scale / 2
    matrix = [
        [0.0, low, top, top],
        [low, 0.0, top, top],
        [top, top, 0.0, low],
        [top, top, low, 0.0],
    ]
    return {"labels": ["p0", "p1", "p2", "p3"], "matrix": matrix, "flavor": "ultrametric"}


def _pair(labels, value):
    return {"labels": labels, "matrix": [[0.0, value], [value, 0.0]], "flavor": "ultrametric"}


def _configs():
    """(kind, mode, epsilon) -> an experiment config at the kind's least size."""
    configs = {}
    for kind, (_, size, _, least) in _KINDS.items():
        for mode in ("fraction", "absolute"):
            for eps in FLOATS:
                obj = {"experiment": kind, size: least, "epsilon": float(eps), "epsilon_mode": mode}
                configs[kind, mode, eps] = obj
    return configs


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    paths = {}

    def write(name, obj):
        path = root / f"{name}.json"
        # json.dumps writes NaN and Infinity, which json.load reads back
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path)

    for name, obj in _spaces().items():
        write(name, obj)
    for k, scale in enumerate(SCALES):
        write(f"host{k}", _ultrametric_host(scale))
        write(f"left{k}", _pair(["p0", "p1"], scale))
        write(f"right{k}", _pair(["p2", "p3"], scale))
    write("part", {"pieces": [[0, 1], [2, 3]], "basepoints": [0, 2]})
    write("geometric", {"kind": "geometric", "ratio": 0.5, "scale": 1.0})
    write("double", {"kind": "double_exponential", "base": 0.5})
    write("explicit", {"kind": "explicit", "values": [0.0, 0.25, 0.5, 1.0]})
    write("sequence", {"values": [1.0, 0.5, 0.25, 0.125, 0.0625], "envelope": None})
    for (kind, mode, eps), obj in _configs().items():
        write(f"{kind}-{mode}-{eps}", obj)
    paths["out"] = str(root / "out.json")
    return paths


SPACES = ("n1", "n2", "n5", "s16", "tiny3", "huge3")
RANGE_SETS = ("geometric", "double", "explicit")


def _validate_rows(f):
    for name in SPACES:
        yield ["validate", f[name]]
        yield from (["validate", f[name], f"--tol={v}"] for v in FLOATS)


def _moduli_rows(f):
    for name in SPACES:
        yield ["moduli", f[name], "--full"]
        for v in FLOATS:
            yield ["moduli", f[name], f"--beta={v}"]
            yield ["moduli", f[name], f"--rmin={v}"]
    # a new seed draws a new subset table on the sampled 16-point file
    yield from (["moduli", f["n5"], f"--seed={v}"] for v in INTS)


def _amalgamate_rows(f):
    for h in range(len(SCALES)):
        for p in range(len(SCALES)):
            argv = ["amalgamate", f[f"host{h}"], f["part"], f[f"left{p}"], f[f"right{p}"]]
            yield argv
            yield argv + [f"--rangeset={f['geometric']}"]


def _approximate_rows(f):
    for name in SPACES:
        for prop in ("doubling", "ud", "up"):
            for v in FLOATS:
                argv = ["approximate", f[name], f"--property={prop}", f"--epsilon={v}"]
                yield argv
                yield argv + ["--fraction"]
    for name in ("n2", "s16"):
        for v in FLOATS:
            argv = ["approximate", f[name], "--property=ud", f"--epsilon={v}"]
            yield argv + [f"--rangeset={f['geometric']}"]
            yield argv + [f"--rangeset={f['geometric']}", "--fraction"]


def _cantor_rows(f):
    yield ["cantor", "gen", "--depth=4"]
    yield ["cantor", "gen", f"--sequence={f['sequence']}", "--type=101", "--depth=4"]
    for depth in INTS + ("4", "5"):
        yield ["cantor", "gen", f"--sequence={f['sequence']}", f"--depth={depth}"]
        yield ["cantor", "gen", "--type=101", f"--depth={depth}"]
    for bits in ("000", "111", "12", "1", "1011"):
        yield ["cantor", "gen", f"--type={bits}", "--depth=4"]
    for seed in INTS:
        yield ["cantor", "gen", "--type=110", "--depth=4", f"--seed={seed}"]


def _rangeset_rows(f):
    for name in RANGE_SETS:
        check = ["rangeset", "check", f[name]]
        sequence = ["rangeset", "sequence", f[name]]
        for v in FLOATS:
            yield check + [f"--a={v}", "--m=2", "--n=4"]
            yield check + ["--a=0.5", f"--m={v}", "--n=4"]
            yield sequence + [f"--b={v}", "--m=2", "--length=4"]
            yield sequence + ["--b=0.5", f"--m={v}", "--length=4"]
        for v in INTS:
            yield check + ["--a=0.5", "--m=2", f"--n={v}"]
            yield sequence + ["--b=0.5", "--m=2", f"--length={v}"]


def _experiment_rows(f):
    for kind, mode, eps in _configs():
        yield ["experiment", f[f"{kind}-{mode}-{eps}"]]
    config = f["dense_ud-fraction-0.5"]
    for v in INTS:
        yield ["experiment", config, f"--seed={v}"]
        yield ["experiment", config, f"--trials={v}"]


ROWS = {
    "validate": _validate_rows,
    "moduli": _moduli_rows,
    "amalgamate": _amalgamate_rows,
    "approximate": _approximate_rows,
    "cantor": _cantor_rows,
    "rangeset": _rangeset_rows,
    "experiment": _experiment_rows,
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _problem(argv, out, capsys):
    """What the row did wrong, or None."""
    if os.path.exists(out):
        os.remove(out)
    try:
        code = cli.main([*argv, f"--out={out}"])
    except (Exception, SystemExit) as exc:  # nothing may escape main
        capsys.readouterr()
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    if code not in (0, 1):
        return f"returned {code!r}"
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            try:
                json.loads(handle.read(), parse_constant=_refuse_constant)
            except ValueError as exc:
                return f"wrote {exc}"
    elif code == 0:
        return "returned 0 and wrote nothing"
    elif not err.startswith("error:"):
        return f"returned 1 with stderr {err!r}"
    return None


@pytest.mark.parametrize("command", ROWS)
def test_every_row_ends_in_strict_json_or_a_clean_error(command, files, capsys, monkeypatch):
    # one parser per test: building it is most of a small row's time
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    rows = list(ROWS[command](files))
    problems = {}
    for argv in rows:
        problem = _problem(argv, files["out"], capsys)
        if problem is not None:
            problems[" ".join(argv)] = problem
    report = [f"{len(problems)} of {len(rows)} rows:"]
    assert not problems, "\n".join(report + [f"{argv}: {why}" for argv, why in problems.items()])


def _two_points(labels, **extra):
    return {"labels": labels, "matrix": [[0.0, 1.0], [1.0, 0.0]], **extra}


def _partition(pieces=([0, 1], [2, 3]), basepoints=(0, 2)):
    return {"pieces": list(pieces), "basepoints": list(basepoints)}


# name -> (reader, file, exit code).  Each malformed value was once read
# by coercion and exits 1 now; the three rows that exit 0 are the rules
# kept.
INPUTS = {
    "labels a string": ("space", _two_points("ab"), 1),
    "labels numbers": ("space", _two_points([1, 2]), 1),
    "labels repeated": ("space", _two_points(["a", "a"]), 1),
    "index a float": ("partition", _partition(pieces=([0, 1.7], [2, 3])), 1),
    "index a bool": ("partition", _partition(pieces=([0, True], [2, 3])), 1),
    "index a string": ("partition", _partition(pieces=([0, "1"], [2, 3])), 1),
    "basepoint a float": ("partition", _partition(basepoints=(1.7, 2)), 1),
    "basepoint a bool": ("partition", _partition(basepoints=(True, 2)), 1),
    "basepoint a string": ("partition", _partition(basepoints=("1", 2)), 1),
    "scale a bool": ("rangeset", {"kind": "geometric", "ratio": 0.5, "scale": True}, 1),
    "ratio a string": ("rangeset", {"kind": "geometric", "ratio": "0.5"}, 1),
    "explicit value a bool": ("rangeset", {"kind": "explicit", "values": [0.0, 0.5, True]}, 1),
    "sequence value a bool": ("sequence", {"values": [True, 0.5, 0.25]}, 1),
    "envelope a bool": ("sequence", {"values": [1.0, 0.5], "envelope": {"a": 0.5, "M": True}}, 1),
    "no flavor reads as metric": ("space", _two_points(["a", "b"]), 0),
    "unknown keys are ignored": ("space", _two_points(["a", "b"], note="x", flavor="metric"), 0),
    "bool entries read as 1.0 and 0.0": (
        "space",
        {"labels": ["a", "b"], "matrix": [[False, True], [True, False]]},
        0,
    ),
}
NAN, INF = float("nan"), float("inf")
# name -> (reader, file, error text) for non-finite numbers in a file.
# The first three exited 0; the rest exited 1 with another error.
NON_FINITE = {
    "explicit value Infinity": (
        "rangeset",
        {"kind": "explicit", "values": [0, 1, INF]},
        "explicit values must be finite",
    ),
    "envelope M NaN": (
        "sequence",
        {"values": [1.0, 0.5], "envelope": {"a": 0.5, "M": NAN}},
        "envelope constant M must be finite and >= 1",
    ),
    "envelope M Infinity": (
        "sequence",
        {"values": [1.0, 0.5], "envelope": {"a": 0.5, "M": INF}},
        "envelope constant M must be finite and >= 1",
    ),
    "explicit value NaN": (
        "rangeset",
        {"kind": "explicit", "values": [0, NAN, 1]},
        "explicit values must be finite",
    ),
    "scale Infinity": (
        "rangeset",
        {"kind": "geometric", "ratio": 0.5, "scale": INF},
        "geometric scale must be positive and finite",
    ),
    "sequence value Infinity": (
        "sequence",
        {"values": [INF, 1.0]},
        "sequence values must be positive and finite",
    ),
    "epsilon Infinity": (
        "config",
        {"experiment": "perturb_chain", "epsilon": INF},
        "epsilon must be positive and finite",
    ),
}
INPUTS.update((name, (reader, obj, 1)) for name, (reader, obj, _) in NON_FINITE.items())


def _input_argv(reader, path, f):
    return {
        "space": ["validate", path],
        "partition": ["amalgamate", f["host3"], path, f["left3"], f["right3"]],
        "rangeset": ["rangeset", "check", path, "--a=0.5", "--m=2", "--n=1"],
        "sequence": ["cantor", "gen", f"--sequence={path}", "--depth=2"],
        "config": ["experiment", path],
    }[reader]


@pytest.mark.parametrize("name", INPUTS)
def test_every_input_rule_holds(name, files, tmp_path, capsys):
    reader, obj, code = INPUTS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main([*_input_argv(reader, str(path), files), f"--out={out}"]) == code
    assert out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert err.startswith("error:") == (code == 1)
    if name in NON_FINITE:
        assert err == f"error: {NON_FINITE[name][2]}\n"

"""Mutant table: planted faults that the test suite must catch.

    python tools/mutants.py > mutants.json        # every row, JSON on stdout

Each row is (name, file, old text, new text, test node ids).  For each
row the runner copies `src/` to a temporary directory, replaces the
row's old text in the row's file (relative to `src/`) by its new text,
and runs the row's test nodes with PYTHONPATH pointed at the copy
(pytest's own `pythonpath` setting is cleared, so the copy is what the
tests import).  A row is "killed" when the nodes fail, "survived" when
they pass, and "stale" when its old text does not occur exactly once,
so that a refactor of the mutated code has to update the table.  Run it
from the repository root; it uses only the standard library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    nodes: tuple[str, ...]


MODULI = "metriclab/moduli.py"
LAB = "metriclab/lab.py"
JSONTEXT = "metriclab/jsontext.py"
SAMPLED_ORACLE = "tests/test_moduli.py::test_doubling_sampled_matches_the_unpruned_search"
UP_LOOP_ORACLE = "tests/test_moduli.py::test_up_constant_matches_the_point_loop_exactly"
NON_FINITE_INPUTS = "tests/test_rangesets.py::test_a_non_finite_length_or_constant_is_refused"

MUTANTS = (
    Mutant(
        "floor raised by 1e-9",
        MODULI,
        "raised = max(floor(), ratios.max())",
        "raised = max(floor(), ratios.max()) * (1 + 1e-9)",
        (SAMPLED_ORACLE,),
    ),
    Mutant(
        "last row on UP ties",
        MODULI,
        "x = int(np.argmin(row_best))",
        "x = row_best.size - 1 - int(np.argmin(row_best[::-1]))",
        (UP_LOOP_ORACLE,),
    ),
    Mutant(
        "no early return past the first UP row block",
        MODULI,
        "if isolated.any():",
        "if isolated.any() and start == 0:",
        (UP_LOOP_ORACLE,),
    ),
    Mutant(
        "heads one prefix short",
        MODULI,
        "heads = (bounds >= raised) & (prefixes < r0[:, None])",
        "heads = (bounds >= raised) & (prefixes < r0[:, None] - 1)",
        ("tests/test_moduli.py::test_doubling_gathers_the_prefix_just_before_r0",),
    ),
    Mutant(
        "no running minimum",
        MODULI,
        "    enter = np.minimum.accumulate(enter, axis=1)\n",
        "",
        (SAMPLED_ORACLE,),
    ),
    Mutant(
        "tails skipped",
        MODULI,
        "tail = live & (prefixes >= r0[:, None])",
        "tail = live & (prefixes < 0)",
        (SAMPLED_ORACLE,),
    ),
    Mutant(
        "fallback gather skipped",
        MODULI,
        "np.nonzero(~(ratios * _BOUND_MARGIN < best))",
        "np.nonzero(ratios * _BOUND_MARGIN >= best)",
        ("tests/test_moduli.py::test_doubling_fallback_gather_scores_subsets_outside_both_lists",),
    ),
    Mutant(
        "last partial block dropped",
        MODULI,
        "for start in range(0, count, step):",
        "for start in range(0, count - count % step, step):",
        ("tests/test_moduli.py::test_doubling_sampled_report_is_pinned",),
    ),
    Mutant(
        "UP ratio taken as a difference",
        MODULI,
        "bounds = np.divide(dists, hi,",
        "bounds = np.subtract(dists, hi,",
        ("tests/test_symmetries.py::test_scaling_by_a_power_of_two_is_exact",),
    ),
    Mutant(
        "doubling ratio taken as diam - sep",
        MODULI,
        "cards * (safe_min / safe_max) ** beta",
        "cards * (safe_max - safe_min) ** beta",
        ("tests/test_symmetries.py::test_scaling_by_a_power_of_two_is_exact",),
    ),
    Mutant(
        "bottleneck taken as a chain sum",
        "metriclab/spaces.py",
        '    merge_tree = linkage(squareform(matrix, checks=False), method="single")\n'
        "    return squareform(cophenet(merge_tree))\n",
        "    from scipy.sparse.csgraph import shortest_path\n\n"
        "    return shortest_path(matrix)\n",
        ("tests/test_symmetries.py::test_bottleneck_commutes_with_squaring_the_entries",),
    ),
    Mutant(
        "certificate bound padded by twice the slack",
        "metriclab/spaces.py",
        "bound += slack / 2",
        "bound += 2 * slack",
        (
            "tests/test_spaces.py::"
            "test_triangle_planted_at_the_scan_boundary_matches_the_loop_oracle",
        ),
    ),
    Mutant(
        "pieces checked at the full slack",
        "metriclab/build.py",
        "half = slack / 2",
        "half = slack",
        ("tests/test_built_outputs.py::test_a_piece_short_by_the_full_slack_is_rejected",),
    ),
    Mutant(
        "closure pruned by the second-least entry",
        "metriclab/spaces.py",
        "least = np.min(m, initial=np.inf, where=~np.eye(n, dtype=bool))",
        "least = np.partition(np.append(m[np.triu_indices(n, 1)], [np.inf] * 2), 1)[1]",
        ("tests/test_spaces.py::test_closure_keeps_a_one_ulp_shortcut_through_the_least_entry",),
    ),
    Mutant(
        "S-valued pieces glued by the sum form",
        "metriclab/build.py",
        "out = amalgamate_ultrametric(d, partition, pieces, S)",
        "out = amalgamate_metric(d, partition, pieces)",
        ("tests/test_build.py::test_approximate_ud_rangeset_path",),
    ),
    Mutant(
        "every piece keeps the labels of the first piece of its size",
        "metriclab/build.py",
        "pieces.append(_relabel(built[len(piece)], labels))",
        "pieces.append(built[len(piece)])",
        ("tests/test_build.py::test_approximate_up_even_pieces_meet_the_bound",),
    ),
    Mutant(
        "no guard on a non-finite r_min",
        MODULI,
        "    if not math.isfinite(r_min):\n"
        '        raise BadScaleCutoff(f"r_min = {r_min!r} must be finite")\n',
        "",
        (
            "tests/test_moduli.py::test_up_report_rejects_a_non_finite_r_min",
            "tests/test_cli.py::test_moduli_rejects_an_infinite_rmin",
        ),
    ),
    Mutant(
        "rungs not checked for strict decrease",
        "metriclab/cantor.py",
        "if np.isfinite(table).all() and (table > 0).all() and (table[:-1] > table[1:]).all():",
        "if np.isfinite(table).all() and (table > 0).all():",
        (
            "tests/test_built_outputs.py::test_a_rung_ladder_is_what_validate_returns",
            "tests/test_built_outputs.py::test_increasing_rungs_raise_the_strong_triangle_witness",
        ),
    ),
    Mutant(
        "max-form shortcut without the host check",
        "metriclab/build.py",
        "if d._exact and all(piece._exact for piece in pieces_metrics):",
        "if all(piece._exact for piece in pieces_metrics):",
        (
            "tests/test_built_outputs.py::"
            "test_an_unmarked_host_that_breaks_the_strong_triangle_is_rejected",
            "tests/test_built_outputs.py::test_an_unmarked_host_still_takes_validate",
        ),
    ),
    Mutant(
        "closure bound without its n term",
        "metriclab/spaces.py",
        "return 4.01 * (n + 1) * 2.0**-53 <= slack / top",
        "return 4.01 * 2.0**-53 <= slack / top",
        ("tests/test_built_outputs.py::test_the_closure_certificate_refuses_below_its_bound",),
    ),
    Mutant(
        "relabelling marks unmarked spaces",
        "metriclab/build.py",
        "return _mark_exact(out) if space._exact else out",
        "return _mark_exact(out)",
        ("tests/test_built_outputs.py::test_relabelling_keeps_the_mark_and_adds_none",),
    ),
    Mutant(
        "every bottleneck read off the matrix",
        MODULI,
        "    if space._exact:\n        return space.matrix.copy()\n",
        "    return space.matrix.copy()\n",
        ("tests/test_built_outputs.py::test_an_unmarked_host_still_takes_validate",),
    ),
    Mutant(
        "the writer lets NaN and Infinity through",
        JSONTEXT,
        "allow_nan=False, check_circular=False,",
        "check_circular=False,",
        (
            "tests/test_jsontext.py::test_dumps_refuses_every_non_finite_float",
            "tests/test_cli.py::test_a_non_finite_output_is_a_clean_error_and_writes_nothing",
        ),
    ),
    Mutant(
        "the matrix path lets NaN and Infinity through",
        JSONTEXT,
        "json.dumps(distinct.view(np.float64).tolist(), allow_nan=False)",
        "json.dumps(distinct.view(np.float64).tolist())",
        (
            "tests/test_jsontext.py::test_dumps_refuses_every_non_finite_float",
            "tests/test_jsontext.py::test_dumps_writes_a_float_array_as_its_list",
        ),
    ),
    Mutant(
        "matrices spliced one level too deep",
        JSONTEXT,
        '(len(line) - len(line.lstrip(" "))) // 2',
        '(len(line) - len(line.lstrip(" "))) // 2 + 1',
        ("tests/test_jsontext.py::test_dumps_splices_matrices_at_every_depth",),
    ),
    Mutant(
        "the writer keeps its arrays until a gc pass",
        JSONTEXT,
        "        matrices.clear()\n",
        "        pass\n",
        ("tests/test_jsontext.py::test_dumps_keeps_no_array_alive",),
    ),
    Mutant(
        "the cycle check keeps the open containers",
        JSONTEXT,
        "allow_nan=False, check_circular=False, default=default",
        "allow_nan=False, default=default",
        ("tests/test_jsontext.py::test_dumps_keeps_no_array_alive",),
    ),
    Mutant(
        "pieces carved at radius eps / 128",
        "metriclab/build.py",
        "ball = remaining & (space.matrix[center] <= eps / 2)",
        "ball = remaining & (space.matrix[center] <= eps / 128)",
        (
            "tests/test_build.py::"
            "test_approximate_ud_meets_its_floor_where_the_chain_host_does_not",
        ),
    ),
    Mutant(
        "partition indices coerced",
        "metriclab/build.py",
        "if not all(map(_is_integer, indices)):",
        "if False:",
        ("tests/test_cli_sweep.py::test_every_input_rule_holds",),
    ),
    Mutant(
        "explicit values not checked for finiteness",
        "metriclab/rangesets.py",
        "            if not all(map(math.isfinite, vals)):\n"
        '                raise ValueError("explicit values must be finite")\n',
        "",
        (NON_FINITE_INPUTS,),
    ),
    Mutant(
        "envelope constant M checked only against 1",
        "metriclab/rangesets.py",
        "if not 1 <= big_m < math.inf:\n"
        '                raise ValueError("envelope constant',
        "if big_m < 1:\n"
        '                raise ValueError("envelope constant',
        (NON_FINITE_INPUTS,),
    ),
    Mutant(
        "blocks blown up without their gap",
        "metriclab/cantor.py",
        "    for lo, hi in zip(bounds[:-1], bounds[1:]):\n"
        "        matrix[lo:hi, lo:hi] = gap\n",
        "",
        ("tests/test_cantor.py::test_type_recipes_keep_their_bytes",),
    ),
    Mutant(
        "least-element bisect keeps x on the high side",
        "metriclab/rangesets.py",
        "if _element(S, mid) <= x:",
        "if _element(S, mid) < x:",
        ("tests/test_rangesets.py::test_parametric_queries_match_enumeration",),
    ),
    Mutant(
        "least-element gallop starts past n = 0",
        "metriclab/rangesets.py",
        "lo, hi = 0, 1",
        "lo, hi = 1, 2",
        ("tests/test_rangesets.py::test_parametric_queries_match_enumeration",),
    ),
    Mutant(
        "sum-form amalgam overflow unguarded",
        "metriclab/build.py",
        '    with np.errstate(over="ignore"):\n'
        "        out = combine(arm[:, None], bridge, arm[None, :])\n",
        "    out = combine(arm[:, None], bridge, arm[None, :])\n",
        (
            "tests/test_cli_sweep.py::"
            "test_every_row_ends_in_strict_json_or_a_clean_error[amalgamate]",
        ),
    ),
    Mutant(
        "triangle scan overflow unguarded",
        "metriclab/spaces.py",
        '@np.errstate(over="ignore")\ndef _first_triangle_violation(',
        "def _first_triangle_violation(",
        (
            "tests/test_cli_sweep.py::"
            "test_every_row_ends_in_strict_json_or_a_clean_error[validate]",
        ),
    ),
    Mutant(
        "every live prefix gathered",
        MODULI,
        "heads = (bounds >= raised) & (prefixes < r0[:, None])",
        "heads = live",
        ("tests/test_moduli.py::test_ball_prefixes_gather_far_fewer_than_n_cubed_entries",),
    ),
    Mutant(
        "random triples dropped with the pairs",
        MODULI,
        "& (sizes > 2))[0]",
        "& (sizes > 3))[0]",
        ("tests/test_moduli.py::test_doubling_sampled_report_is_pinned",),
    ),
    Mutant(
        "block yields the largest tied tuple",
        MODULI,
        "yield top, min(",
        "yield top, max(",
        (
            "tests/test_moduli.py::"
            "test_doubling_sampled_matches_the_unpruned_search_on_the_type_recipes",
        ),
    ),
    Mutant(
        "arm positions at stride n - 1",
        MODULI,
        "heads = positions[starts[lo:hi]] * n",
        "heads = positions[starts[lo:hi]] * (n - 1)",
        ("tests/test_moduli.py::test_doubling_sampled_report_is_pinned",),
    ),
    Mutant(
        "draw table seeded one off",
        MODULI,
        "generator = np.random.default_rng(seed)",
        "generator = np.random.default_rng(seed + 1)",
        ("tests/test_moduli.py::test_doubling_sampled_report_is_pinned",),
    ),
    Mutant(
        "two dense samplers swapped",
        LAB,
        '"dense_doubling": (_dense("closure", "doubling"), "n", 64, 2),\n'
        '    "dense_ud": (_dense("points_linf", "delta_star"),',
        '"dense_doubling": (_dense("points_linf", "doubling"), "n", 64, 2),\n'
        '    "dense_ud": (_dense("closure", "delta_star"),',
        (
            "tests/test_lab.py::test_dense_reports_keep_their_bytes[dense_doubling]",
            "tests/test_lab.py::test_dense_reports_keep_their_bytes[dense_ud]",
        ),
    ),
    Mutant(
        "a row passes when any check holds",
        LAB,
        "return all(_RELATIONS[relation](value, bound)",
        "return any(_RELATIONS[relation](value, bound)",
        ("tests/test_lab.py::test_perturb_uniform_check_fails_on_a_shrunk_pair",),
    ),
    Mutant(
        "dense_up without its c_star check",
        LAB,
        'checks = [("c_star", report.c_star, ">=", report.bound)]',
        "checks = []",
        ("tests/test_lab.py::test_every_gate_can_fail_on_its_own_data[dense_up]",),
    ),
    Mutant(
        "dense distance compared strictly",
        LAB,
        'checks.append(("distance", achieved, "<=", bound))',
        'checks.append(("distance", achieved, "<", bound))',
        (
            "tests/test_lab.py::test_dense_reports_keep_their_bytes[dense_ult_doubling]",
            "tests/test_lab.py::test_dense_reports_keep_their_bytes[dense_ult_up]",
        ),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the row's old text occurs in its file under `src/`."""
    with open(os.path.join(SRC, mutant.file), encoding="utf-8") as handle:
        return handle.read().count(mutant.old)


def run(mutant: Mutant) -> dict:
    """Apply one row to a copy of `src/` and run its nodes there."""
    row = {"name": mutant.name, "file": mutant.file, "nodes": list(mutant.nodes)}
    if occurrences(mutant) != 1:
        return {**row, "status": "stale"}
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        copy = os.path.join(tmp, "src")
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(copy, mutant.file)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": copy, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        argv += ["-o", "pythonpath=", *mutant.nodes]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; anything else (an error while
    # collecting, say) is reported as it is
    status = {0: "survived", 1: "killed"}.get(done.returncode, f"error {done.returncode}")
    tail = done.stdout.strip().splitlines()[-1:] if done.stdout.strip() else []
    return {**row, "status": status, "summary": tail[0] if tail else ""}


def main() -> int:
    json.dump([run(m) for m in MUTANTS], sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

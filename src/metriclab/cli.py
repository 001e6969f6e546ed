"""Command-line interface.

Subcommands mirror the library surface:

* validate    -- check a distance-matrix file against the axioms
* moduli      -- measure the three moduli and classify
* amalgamate  -- glue piece metrics over a partition (sum or max form)
* approximate -- run one of the three approximation pipelines
* cantor gen  -- emit a sequential or type-targeted space
* rangeset    -- exponential-window check / enveloped sequence extraction
* experiment  -- run a seeded experiment config and emit its report

Spaces, partitions, embeddings, range sets, sequences, and experiment
configs are all JSON files; see the README for the exact shapes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .build import (
    ClopenPartition,
    amalgamate_metric,
    amalgamate_ultrametric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
)
from .cantor import generate_type, sequential_metric
from .errors import MetricLabError, ValidationError
from .jsontext import dumps
from .lab import ExperimentConfig, render_report, run_experiment
from .moduli import (
    Thresholds,
    classify,
    type_vector_to_json,
)
from .rangesets import (
    exponential_sequence,
    is_exponential_window,
    rangeset_from_json,
    sequence_from_json,
    sequence_to_json,
)
from .spaces import space_from_json, space_to_json


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_space(path: str):
    return space_from_json(_load_json(path))


def _emit(obj, out: str | None, rendered: str | None = None) -> None:
    text = rendered if rendered is not None else dumps(obj)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    try:
        space = space_from_json(_load_json(args.file), tol=args.tol)
    except ValidationError as exc:
        result = {
            "valid": False,
            "axiom": exc.axiom,
            "indices": list(exc.indices),
            "message": str(exc),
        }
    else:
        result = {"valid": True, "n": space.n, "flavor": space.flavor, "diameter": space.diameter}
    _emit(result, args.out)
    return 0 if result["valid"] else 1


def _thresholds_from_args(args) -> Thresholds:
    thresholds = Thresholds()
    if getattr(args, "thresholds", None):
        thresholds = Thresholds.from_json(_load_json(args.thresholds))
    if getattr(args, "beta", None) is not None:
        thresholds = dataclasses.replace(thresholds, beta0=args.beta)
    return thresholds


def _cmd_moduli(args) -> int:
    space = _load_space(args.file)
    thresholds = _thresholds_from_args(args)
    result = classify(space, thresholds=thresholds, r_min=args.rmin, rng=args.seed)
    _emit(type_vector_to_json(result, include_matrix=args.full), args.out)
    return 0


def _cmd_amalgamate(args) -> int:
    host = _load_space(args.host)
    partition = ClopenPartition.from_json(_load_json(args.partition))
    pieces = [_load_space(path) for path in args.pieces]
    if args.rangeset:
        S = rangeset_from_json(_load_json(args.rangeset))
        out = amalgamate_ultrametric(host, partition, pieces, S)
    else:
        out = amalgamate_metric(host, partition, pieces)
    _emit(space_to_json(out), args.out)
    return 0


def _cmd_approximate(args) -> int:
    if args.rangeset and args.property != "ud":
        raise ValueError(f"--rangeset applies to --property ud only, not {args.property}")
    space = _load_space(args.file)
    eps = args.epsilon * space.diameter if args.fraction else args.epsilon
    if args.property == "doubling":
        out, embedding = approximate_doubling(space, eps)
        payload = {
            "space": space_to_json(out),
            "embedding": embedding.to_json(),
            "epsilon": eps,
        }
    elif args.property == "ud":
        S = rangeset_from_json(_load_json(args.rangeset)) if args.rangeset else None
        out, report = approximate_ud(space, eps, S=S)
        payload = {
            "space": space_to_json(out),
            "delta_star": report.delta_star,
            "epsilon": eps,
        }
    else:  # up
        out, report = approximate_up(space, eps)
        payload = {
            "space": space_to_json(out),
            "c_star": report.c_star,
            "heredity_floor": report.bound,
            "r_min": report.r_min,
            "eps_effective": report.eps_effective,
            "epsilon": eps,
        }
    _emit(payload, args.out)
    return 0


def _cmd_cantor_gen(args) -> int:
    if (args.sequence is None) == (args.type is None):
        raise ValueError("pass exactly one of --sequence or --type")
    if args.sequence:
        sequence = sequence_from_json(_load_json(args.sequence))
        space = sequential_metric(sequence, args.depth)
        payload = {"space": space_to_json(space)}
    else:
        bits = tuple(int(c) for c in args.type)
        space, recipe = generate_type(bits, args.depth, seed=args.seed)
        payload = {
            "space": space_to_json(space),
            "type": "".join(str(b) for b in bits),
            "recipe": recipe,
        }
    _emit(payload, args.out)
    return 0


def _cmd_rangeset_check(args) -> int:
    S = rangeset_from_json(_load_json(args.file))
    check = is_exponential_window(S, args.a, args.m, args.n)
    payload = {
        "ok": check.ok,
        "witnesses": list(check.witnesses),
        "first_fail": check.first_fail,
    }
    _emit(payload, args.out)
    return 0 if check.ok else 1


def _cmd_rangeset_sequence(args) -> int:
    S = rangeset_from_json(_load_json(args.file))
    sequence = exponential_sequence(S, args.b, args.m, args.length)
    _emit(sequence_to_json(sequence), args.out)
    return 0


def _cmd_experiment(args) -> int:
    obj = _load_json(args.config)
    flags = {"seed": args.seed, "trials": args.trials, "format": args.format, "out": args.out}
    if isinstance(obj, dict):  # anything else is reported as malformed by from_json
        obj.update((key, value) for key, value in flags.items() if value is not None)
    config = ExperimentConfig.from_json(obj)
    report = run_experiment(config)
    _emit(None, config.out, rendered=render_report(report, config.format))
    return 0 if report["summary"]["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriclab",
        description="finite metric spaces: validation, moduli, amalgamation, "
        "approximation pipelines, and seeded experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space file against the axioms")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9, help="relative triangle slack")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("moduli", help="measure doubling / chain / annulus moduli")
    p.add_argument("file")
    p.add_argument("--beta", type=float, default=None, help="doubling exponent")
    p.add_argument("--rmin", type=float, default=None, help="annulus scale cutoff")
    p.add_argument("--thresholds", help="JSON file with classification thresholds")
    p.add_argument("--seed", type=int, default=0, help="subset-sampling seed")
    p.add_argument("--full", action="store_true", help="include the bottleneck matrix")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_moduli)

    p = sub.add_parser("amalgamate", help="glue piece metrics over a partition")
    p.add_argument("host")
    p.add_argument("partition")
    p.add_argument("pieces", nargs="+")
    p.add_argument("--rangeset", help="range-set file: use the max form over S")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_amalgamate)

    p = sub.add_parser("approximate", help="run an approximation pipeline")
    p.add_argument("file")
    p.add_argument("--property", required=True, choices=("doubling", "ud", "up"))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument(
        "--fraction",
        action="store_true",
        help="interpret --epsilon as a fraction of the diameter",
    )
    p.add_argument("--rangeset", help="range-set file (ud only): S-valued max form")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_approximate)

    p = sub.add_parser("cantor", help="binary-string space generators")
    cantor_sub = p.add_subparsers(dest="cantor_command", required=True)
    g = cantor_sub.add_parser("gen", help="emit a sequential or type-targeted space")
    g.add_argument("--sequence", help="shrinking-sequence JSON file")
    g.add_argument("--type", help="three bits, e.g. 101")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_cantor_gen)

    p = sub.add_parser("rangeset", help="range-set exponentiality tools")
    range_sub = p.add_subparsers(dest="rangeset_command", required=True)
    c = range_sub.add_parser("check", help="do the windows [a^n/M, M a^n] all meet S?")
    c.add_argument("file")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--m", type=float, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_rangeset_check)
    s = range_sub.add_parser("sequence", help="extract an enveloped sequence from S")
    s.add_argument("file")
    s.add_argument("--b", type=float, required=True)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--length", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_rangeset_sequence)

    p = sub.add_parser("experiment", help="run a seeded experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MetricLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

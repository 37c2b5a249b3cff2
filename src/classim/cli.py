"""Command-line front end.

Each subcommand maps onto one driver function. A run option's ``dest``
is the :class:`ExperimentConfig` field it sets. Options given on the
command line win over values from ``--config``, which win over the
built-in defaults; list-valued ``n_students``/``strategy`` entries in a
config file turn one ``simulate`` invocation into a sweep of runs in
sibling directories.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .orchestrator import (
    ExperimentConfig,
    RequestFailed,
    evaluate_run,
    expand_sweep,
    render_report,
    run_baseline,
    run_dpce,
    run_ensemble,
    run_simulate,
)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus", dest="corpus_path", help="path to the item corpus JSON"
    )
    parser.add_argument("--config", help="JSON file with config fields")
    parser.add_argument("--grade", type=int, help="restrict to one grade")
    parser.add_argument("--n", type=int, dest="n_students", help="students per classroom")
    parser.add_argument(
        "--strategy",
        help="student identity strategy: none | ids | single:<name> | diverse",
    )
    parser.add_argument("--model", help="model name sent to the endpoint")
    parser.add_argument("--endpoint", help="chat-completions URL")
    parser.add_argument("--temperature", type=float, help="sampling temperature")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument(
        "--mock",
        action="store_true",
        default=None,
        help="answer offline with the built-in student model",
    )
    parser.add_argument("--out", help="run directory to create or resume")
    parser.add_argument(
        "--replicates", type=int, help="completions per student-item cell"
    )
    parser.add_argument(
        "--mask-failed",
        action="store_true",
        default=None,
        dest="mask_failed",
        help="exclude unparseable replies from the fit instead of scoring 0",
    )
    parser.add_argument(
        "--capture",
        action="store_true",
        default=None,
        help="record full request/reply pairs next to the log",
    )
    parser.add_argument("--max-retries", type=int, dest="max_retries")
    parser.add_argument("--max-in-flight", type=int, dest="max_in_flight")
    parser.add_argument("--timeout", type=float)


_FIELDS = frozenset(spec.name for spec in fields(ExperimentConfig))


def _base_mapping(args: argparse.Namespace) -> Dict[str, object]:
    base: Dict[str, object] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            base = json.load(handle)
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
    base.update(
        (name, value)
        for name, value in vars(args).items()
        if name in _FIELDS and value is not None
    )
    if "corpus_path" not in base:
        raise ValueError("a corpus is required (--corpus or config corpus_path)")
    return base


def _print_outcome(outcome) -> None:
    manifest = outcome.manifest
    status = "completed" if outcome.completed else "interrupted"
    print(
        f"{manifest['mode']} {status}: {len(outcome.responses)} of "
        f"{manifest['counts']['requests']} responses"
    )
    if outcome.parse_counts:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(outcome.parse_counts.items()))
        print(f"parse status: {parts}")
    if outcome.fit is not None:
        betas = ", ".join(f"{k}={v:.3f}" for k, v in outcome.fit.beta.items())
        print(f"abilities: {betas}")
    if outcome.out_dir is not None:
        print(f"artifacts in {outcome.out_dir}")


def _cmd_run(args: argparse.Namespace) -> int:
    base = _base_mapping(args)
    if args.mode == "simulate":
        runs = expand_sweep(base)
    else:
        runs = [("", ExperimentConfig.from_mapping(base))]
    # looked up per call, so drivers rebound after import (bench/spans.py) are run
    run = {"simulate": run_simulate, "dpce": run_dpce, "baseline": run_baseline}[args.mode]
    multi = len(runs) > 1
    if multi and not args.out:
        raise ValueError("a sweep needs --out to place its run directories")
    for name, config in runs:
        out_dir: Optional[Path] = None
        if args.out:
            out_dir = Path(args.out) / name if multi else Path(args.out)
        outcome = run(config, out_dir=out_dir)
        if multi:
            print(f"--- {name} ---")
        _print_outcome(outcome)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    evaluation = evaluate_run(args.run, corpus_path=args.corpus)
    metrics = evaluation["metrics"]
    for name in ("pearson", "spearman"):
        block = metrics[name]
        print(f"{name}: r={block['r']:.4f} p={block['p_value']:.4g} n={block['n']}")
    for name in ("auc_hard_vs_easy", "auc_hard_vs_rest"):
        block = metrics[name]
        print(f"{name}: {block['auc']:.4f} ({block['n_hard']} hard, {block['n_other']} other)")
    print(f"evaluation written to {Path(args.run)}")
    return 0


def _parse_weights(raw: Optional[str], n: int) -> Optional[List[float]]:
    if raw is None:
        return None
    weights = [float(part) for part in raw.split(",") if part.strip() != ""]
    if len(weights) != n:
        raise ValueError(f"{n} runs need {n} weights, got {len(weights)}")
    return weights


def _cmd_ensemble(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights, len(args.runs))
    payload = run_ensemble(
        args.runs, corpus_path=args.corpus, weights=weights, out_path=args.out
    )
    block = payload["metrics"]["pearson"]
    print(f"ensemble pearson: r={block['r']:.4f} n={block['n']}")
    if args.out:
        print(f"ensemble written to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = render_report(args.run)
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classim",
        description="Simulate classrooms of model personas and score the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="role-play a classroom over the corpus")
    _add_run_options(p)
    p.set_defaults(handler=_cmd_run, mode="simulate")

    p = sub.add_parser("dpce", help="ask the model for per-item success percentages")
    _add_run_options(p)
    p.add_argument(
        "--variant",
        dest="dpce_variant",
        choices=("greedy", "averaged"),
        help="greedy: one deterministic ask; averaged: ten sampled asks",
    )
    p.set_defaults(handler=_cmd_run, mode="dpce")

    p = sub.add_parser("baseline", help="solve each item once as an expert")
    _add_run_options(p)
    p.set_defaults(handler=_cmd_run, mode="baseline")

    p = sub.add_parser("evaluate", help="score a finished run against its corpus")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--corpus", help="override the corpus recorded in the run")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("ensemble", help="blend predictions from several runs")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--weights", help="comma-separated weights, one per run")
    p.add_argument("--corpus", help="corpus to score against")
    p.add_argument("--out", help="file for the blended predictions")
    p.set_defaults(handler=_cmd_ensemble)

    p = sub.add_parser("report", help="write a markdown summary of a run")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RequestFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Subcommands: validate, prepare, train, simulate, report, solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import pipeline
from .errors import TriageError, ValidationError
from .policies import POLICY_NAMES
from .simulator import SimConfig, run_simulation
from .solver import AssignmentInstance, brute_force_oracle, solve_dabt, solve_rabt


def _flag(cast, flag):
    """An argparse ``type=`` for ``flag``.  argparse would turn the
    ValueError of a bad value into its usage line and exit 2; the
    ValidationError raised instead reaches ``dispatch``, which prints one
    ``error:`` line and exits 1."""
    def parse(raw):
        try:
            return cast(raw)
        except ValueError:
            raise ValidationError(f"{flag}: expected {cast.__name__}, got {raw!r}") from None
    return parse


def _add_out(parser):
    parser.add_argument("--out", default="out", help="artifact/output directory")


def _add_common(parser):
    parser.add_argument("--data", help="bug-history JSONL file")
    parser.add_argument("--boundary", type=_flag(int, "--boundary"),
                        help="last training day (reports after it are test)")
    _add_out(parser)


def _add_train_flags(parser):
    parser.add_argument("--topics", nargs="+", type=_flag(int, "--topics"),
                        default=pipeline.DEFAULT_TOPIC_GRID,
                        help="topic counts to choose among, e.g. 4 or 2 8")
    parser.add_argument("--C", type=_flag(float, "--C"), default=pipeline.DEFAULT_C)
    parser.add_argument("--seed", type=_flag(int, "--seed"), default=0)
    parser.add_argument("--lda-iters", type=_flag(int, "--lda-iters"),
                        default=pipeline.DEFAULT_GIBBS_ITERS)


def _load_corpus(args):
    if not args.data:
        raise TriageError("--data is required")
    if args.boundary is None:
        raise TriageError("--boundary is required")
    return corpus_mod.load_events(args.data)


def cmd_validate(args) -> int:
    records = corpus_mod.load_events(args.data)
    print(f"ok: {len(records)} records")
    return 0


def cmd_prepare(args) -> int:
    records = _load_corpus(args)
    _, summary, profiles = pipeline.prepare(records, args.boundary)
    pipeline.save_prepared(summary, profiles, args.out)
    print(
        f"cleaned {summary.counts_by_step[0]} -> {summary.counts_by_step[-1]} bugs; "
        f"{len(profiles)} active developers"
    )
    return 0


def cmd_train(args) -> int:
    records = _load_corpus(args)
    cleaned, summary, profiles = pipeline.prepare(records, args.boundary)
    train, _ = corpus_mod.split_train_test(cleaned, args.boundary)
    settings = pipeline.TrainSettings(
        topic_grid=args.topics,
        C=args.C,
        seed=args.seed,
        lda_iters=args.lda_iters,
    )
    models = pipeline.train_models(train, profiles, args.boundary, settings)
    pipeline.save_models(models, args.out)
    pipeline.save_prepared(summary, profiles, args.out)
    print(
        f"trained on {len(train)} bugs: |V|={len(models.vocab)}, "
        f"K={models.topic_model.K}, D={len(models.dev_ids)}"
    )
    return 0


def _sim_configs(args, records, summary) -> list[SimConfig]:
    """One replay config per (policy, alpha) pair, in the order given."""
    horizon = args.L if args.L is not None else summary.horizon_L
    if horizon is None:
        raise ValidationError("no cleaned training bug to set the horizon L; pass --L")
    end_day = args.end if args.end is not None else max(
        r.reported_at for r in records
    ) + 30
    return [
        SimConfig(
            policy=policy,
            boundary_day=args.boundary,
            end_day=end_day,
            alpha=alpha,
            seed=args.seed,
            horizon_L=float(horizon),
        )
        for policy in args.policy for alpha in args.alpha
    ]


def cmd_simulate(args) -> int:
    records = _load_corpus(args)
    cleaned, summary, profiles = pipeline.prepare(records, args.boundary)
    configs = _sim_configs(args, records, summary)
    models = pipeline.load_models(args.out, profiles, args.boundary)
    corpus = pipeline.replay_corpus(records, cleaned, args.boundary)
    # one table for every run; the actual policy replays history and
    # reads no table rows
    end_day = args.boundary if set(args.policy) == {"actual"} else configs[0].end_day
    table = pipeline.feature_table(models, corpus, args.boundary, end_day)
    for config in configs:
        result = run_simulation(config, corpus, table, profiles)
        tag = metrics_mod.run_tag(config.policy, config.alpha)
        with open(os.path.join(args.out, f"result_{tag}.json"), "w") as fh:
            fh.write(pipeline.result_to_json(result))
        with open(os.path.join(args.out, f"decisions_{tag}.jsonl"), "w") as fh:
            for entry in result.log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        with open(os.path.join(args.out, f"daily_{tag}.csv"), "w") as fh:
            fh.write("day,mean_depth,mean_degree,n_nodes,n_arcs\n")
            for row in result.daily:
                fh.write(
                    f"{row['day']},{row['mean_depth']:.6g},{row['mean_degree']:.6g},"
                    f"{row['n_nodes']},{row['n_arcs']}\n"
                )
        report = metrics_mod.compute_report(result)
        with open(os.path.join(args.out, f"report_{tag}.json"), "w") as fh:
            fh.write(report.to_json())
        print(
            f"{tag}: assigned {report.n_assigned}, "
            f"overdue {report.pct_overdue:.1f}%, accuracy {report.accuracy_pct:.1f}%"
        )
    return 0


def cmd_report(args) -> int:
    results = [
        pipeline.read_json_file(path, pipeline.result_from_json) for path in args.results
    ]
    reports = [metrics_mod.compute_report(result) for result in results]
    csv_text, table = metrics_mod.compare_policies(reports)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "comparison.csv"), "w") as fh:
        fh.write(csv_text)
    print(table)
    return 0


def cmd_solve(args) -> int:
    instance = pipeline.read_json_file(args.instance, AssignmentInstance.from_json)
    if args.variant == "rabt":
        solution = solve_rabt(instance)
    elif args.variant == "oracle":
        solution = brute_force_oracle(instance)
    else:
        solution = solve_dabt(instance)
    print(solution.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagelab", description=__doc__, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema-check a JSONL bug history")
    p.add_argument("data")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prepare", help="clean the corpus, write the summary")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="fit text/topic/classifier artifacts")
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="replay the test phase under each policy and alpha")
    _add_common(p)
    p.add_argument("--policy", nargs="+", choices=POLICY_NAMES, default=["dabt"])
    p.add_argument("--alpha", nargs="+", type=_flag(float, "--alpha"), default=[0.5])
    p.add_argument("--seed", type=_flag(int, "--seed"), default=0,
                   help="recorded in result_*.json only: the replay draws no random numbers")
    p.add_argument("--L", type=_flag(float, "--L"),
                   help="capacity horizon override (default: training Q3)")
    p.add_argument("--end", type=_flag(int, "--end"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="recompute reports and compare runs")
    _add_out(p)
    p.add_argument("results", nargs="+", help="result_*.json files")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("solve", help="solve a standalone instance JSON")
    p.add_argument("instance")
    p.add_argument("--variant", choices=["dabt", "rabt", "oracle"], default="dabt")
    p.set_defaults(func=cmd_solve)

    return parser


def dispatch(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 2
        return args.func(args)
    except (TriageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()

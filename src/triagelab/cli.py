"""Command-line front door.

Subcommands: validate, prepare, train, simulate, report, sweep, solve.
Every flag can be overridden by an environment variable with the
``TRIAGELAB_`` prefix (e.g. ``TRIAGELAB_ALPHA=0.3``).
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
from .simulator import SimConfig
from .solver import AssignmentInstance, brute_force_oracle, solve_dabt, solve_rabt

ENV_PREFIX = "TRIAGELAB_"


def _env_default(name, fallback, cast=str):
    var = ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    return _cast(raw, cast, var)


def _cast(raw, cast, what):
    try:
        return cast(raw)
    except ValueError:
        raise ValidationError(f"{what}: expected {cast.__name__}, got {raw!r}") from None


def _flag(cast, flag):
    """An argparse ``type=`` for ``flag``.  argparse would turn the
    ValueError of a bad value into its usage line and exit 2; the
    ValidationError raised instead reaches ``dispatch``, which prints one
    ``error:`` line and exits 1."""
    return lambda raw: _cast(raw, cast, flag)


def _add_out(parser):
    parser.add_argument("--out", default=_env_default("out", "out"),
                        help="artifact/output directory")


def _add_common(parser):
    parser.add_argument("--data", default=_env_default("data", None),
                        help="bug-history JSONL file")
    parser.add_argument("--boundary", type=_flag(int, "--boundary"),
                        default=_env_default("boundary", None, int),
                        help="last training day (reports after it are test)")
    _add_out(parser)


def _add_train_flags(parser):
    parser.add_argument("--topics", default=_env_default("topics", "5-50:5"),
                        help="topic-count grid, e.g. '4' or '5-50:5' or '2,8'")
    parser.add_argument("--C", type=_flag(float, "--C"),
                        default=_env_default("c", 1000.0, float))
    parser.add_argument("--seed", type=_flag(int, "--seed"),
                        default=_env_default("seed", 0, int))
    parser.add_argument("--lda-iters", type=_flag(int, "--lda-iters"),
                        default=_env_default("lda_iters", 1000, int))


def _parse_topic_grid(spec: str):
    def num(x):
        return _cast(x, int, f"--topics {spec!r}")

    if "," in spec:
        return tuple(num(x) for x in spec.split(","))
    if "-" in spec:
        span, _, step = spec.partition(":")
        lo, _, hi = span.partition("-")
        step = num(step or "5")
        if step < 1:
            raise ValidationError(f"--topics {spec!r}: step must be at least 1")
        return tuple(range(num(lo), num(hi) + 1, step))
    return (num(spec),)


def _load_corpus(args):
    if not args.data:
        raise TriageError("--data is required")
    records = corpus_mod.load_events(args.data)
    if args.boundary is None:
        raise TriageError("--boundary is required")
    return records


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
    topic_grid = _parse_topic_grid(args.topics)
    records = _load_corpus(args)
    cleaned, summary, profiles = pipeline.prepare(records, args.boundary)
    train, _ = corpus_mod.split_train_test(cleaned, args.boundary)
    settings = pipeline.TrainSettings(
        topic_grid=topic_grid,
        C=args.C,
        seed=args.seed,
        lda_iters=args.lda_iters,
    )
    models = pipeline.train_models(train, profiles, settings)
    pipeline.save_models(models, args.out)
    pipeline.save_prepared(summary, profiles, args.out)
    print(
        f"trained on {len(train)} bugs: |V|={len(models.vocab)}, "
        f"K={models.topic_model.K}, D={len(models.dev_profiles)}"
    )
    return 0


def _sim_config(args, policy, alpha, records, summary) -> SimConfig:
    horizon = args.L if args.L is not None else summary.horizon_L
    if horizon is None:
        raise ValidationError("no cleaned training bug to set the horizon L; pass --L")
    end_day = args.end if args.end is not None else max(
        r.reported_at for r in records
    ) + 30
    return SimConfig(
        policy=policy,
        boundary_day=args.boundary,
        end_day=end_day,
        alpha=alpha,
        seed=args.seed,
        horizon_L=float(horizon),
    )


def cmd_simulate(args) -> int:
    records = _load_corpus(args)
    cleaned, summary, _ = pipeline.prepare(records, args.boundary)
    models = pipeline.load_models(args.out)
    config = _sim_config(args, args.policy, args.alpha, records, summary)
    result = pipeline.run_policy(config, records, cleaned, models)
    tag = f"{config.policy}_a{config.alpha:g}"
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
        f"{config.policy}: assigned {report.n_assigned}, "
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


def cmd_sweep(args) -> int:
    alphas = [_cast(a, float, f"--alphas {args.alphas!r}") for a in args.alphas.split(",")]
    records = _load_corpus(args)
    cleaned, summary, _ = pipeline.prepare(records, args.boundary)
    models = pipeline.load_models(args.out)
    config = _sim_config(args, "dabt", alphas[0], records, summary)
    corpus = pipeline.replay_corpus(records, cleaned, args.boundary)
    table = pipeline.feature_table(models, corpus, args.boundary, config.end_day)
    rows = metrics_mod.sweep_alpha(config, corpus, table, models.dev_profiles, alphas)
    csv_text = metrics_mod.sweep_to_csv(rows)
    with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
        fh.write(csv_text)
    print(csv_text.strip())
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

    p = sub.add_parser("simulate", help="run one policy over the test phase")
    _add_common(p)
    p.add_argument("--policy", choices=POLICY_NAMES,
                   default=_env_default("policy", "dabt"))
    p.add_argument("--alpha", type=_flag(float, "--alpha"),
                   default=_env_default("alpha", 0.5, float))
    p.add_argument("--seed", type=_flag(int, "--seed"),
                   default=_env_default("seed", 0, int))
    p.add_argument("--L", type=_flag(float, "--L"),
                   default=_env_default("l", None, float),
                   help="capacity horizon override (default: training Q3)")
    p.add_argument("--end", type=_flag(int, "--end"),
                   default=_env_default("end", None, int))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="recompute reports and compare runs")
    _add_out(p)
    p.add_argument("results", nargs="+", help="result_*.json files")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="DABT alpha sensitivity series")
    _add_common(p)
    p.add_argument("--alphas", default=_env_default("alphas", "0,0.25,0.5,0.75,1"))
    p.add_argument("--seed", type=_flag(int, "--seed"),
                   default=_env_default("seed", 0, int))
    p.add_argument("--L", type=_flag(float, "--L"),
                   default=_env_default("l", None, float))
    p.add_argument("--end", type=_flag(int, "--end"),
                   default=_env_default("end", None, int))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="solve a standalone instance JSON")
    p.add_argument("instance")
    p.add_argument("--variant", choices=["dabt", "rabt", "oracle"], default="dabt")
    p.set_defaults(func=cmd_solve)

    return parser


def dispatch(argv=None) -> int:
    try:
        parser = build_parser()  # reads the TRIAGELAB_* defaults
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

"""One benchmark invocation: set-ups, timed passes, then checks."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from triagelab import cli, corpus, pipeline, solver
from triagelab.errors import ValidationError

MINI_POLICIES = ("actual", "cbr", "costriage", "rabt", "dabt")
DEPS_POLICIES = ("cbr", "dabt")
ALPHA = "0.5"
TRAIN_FLAGS = ("--topics", "4", "--lda-iters", "20", "--seed", "0", "--C", "1000")
# Set-ups per invocation.  A deps set-up trains for several seconds, so it
# runs once; mini and solve set up half before the passes and half after,
# rewriting identical inputs, so that setup_s samples both ends of the run.
SETUPS = {"mini": 20, "deps": 1, "solve": 6}
# Passes at least measured.  One deps pass varied by about 10% with the
# host's speed, and its second pass also serves the byte-identity check in
# place of an untimed replay.  A traced run needs two passes to compare
# its counters.
MIN_PASSES = {"mini": 1, "deps": 2, "solve": 1}
OBJECTIVE_TOL = 1e-9
SOLVE_CHUNK = 10  # instances timed as one unit


class Bench:
    def __init__(self, workload, seed, work: Path, tracer, units, meter):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.units = units  # metric name -> unit, from BENCHMARK.json
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_windows = []  # tracer span ranges
        self.pass_windows = []
        self.meter = meter  # hostspeed.HostMeter, already started
        self.raw = self.scaled = 0.0  # time of the units in the current window
        self.end = workloads.DEPS_END if workload == "deps" else workloads.END
        self.corpus = None  # input paths, written by setup
        self.instances = []
        self.model_dirs = []  # artifact directories, in creation order
        self.replays = []  # (policy, artifact bytes by file name)
        self.solutions = []  # per pass: [(path, variant, assignments, objective)]

    # --- helpers ----------------------------------------------------------

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def op(self, fn, *args):
        """Run one timed unit and add its wall time and its time at the
        reference host speed (see hostspeed.py)."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.raw += end - start
        self.scaled += self.meter.scaled(start, end)
        return result

    def cli(self, *argv) -> bool:
        """One CLI command in process; its own output is discarded."""
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.dispatch([str(a) for a in argv])
        except Exception as exc:  # an operation that raises counts as failed
            code = repr(exc)
        if code != 0:
            self.fail(f"{argv[0]} gave {code}: {err.getvalue().strip()[:200]}")
        return code == 0

    def windowed(self, windows, fn):
        """Run fn, whose units are timed by op; return their (raw, scaled)
        time and remember the range of spans fn recorded."""
        mark = self.tracer.mark if self.tracer else (lambda: 0)
        start = mark()
        self.raw = self.scaled = 0.0
        fn()
        windows.append((start, mark()))
        return self.raw, self.scaled

    def timed_setup(self):
        self.op(self.setup)

    def common(self, models):
        return ("--data", self.corpus, "--boundary", workloads.BOUNDARY, "--out", models)

    # --- set-up -----------------------------------------------------------

    def setup(self):
        inputs = self.work / "input"
        if self.workload == "mini":
            self.corpus = workloads.write_corpus(workloads.mini_records(self.seed), inputs)
        elif self.workload == "deps":
            records, _ = workloads.deps_records(self.seed)
            self.corpus = workloads.write_corpus(records, inputs)
            self.model_dirs.append(self.work / f"models{len(self.model_dirs)}")
            common = self.common(self.model_dirs[-1])
            self.cli("prepare", *common)
            self.cli("train", *common, *TRAIN_FLAGS)
        else:
            shutil.rmtree(inputs, ignore_errors=True)
            self.instances = workloads.write_family(workloads.solve_family(self.seed), inputs)

    # --- passes -----------------------------------------------------------

    def run_pass(self):
        if self.workload == "mini":
            self.model_dirs.append(self.work / f"pass{len(self.model_dirs)}")
            common = self.common(self.model_dirs[-1])
            self.op(self.cli, "prepare", *common)
            self.op(self.cli, "train", *common, *TRAIN_FLAGS)
            for policy in MINI_POLICIES:
                self.simulate(policy, self.model_dirs[-1])
        elif self.workload == "deps":
            for policy in DEPS_POLICIES:
                self.simulate(policy, self.model_dirs[0])
        else:
            self.solve_family()

    def simulate(self, policy, models):
        ok = self.op(
            self.cli, "simulate", *self.common(models), "--policy", policy,
            "--alpha", ALPHA, "--end", self.end, "--seed", "0",
        )
        if ok:
            self.replays.append((policy, read_artifacts(models, policy)))

    def solve_family(self):
        solved = []
        for k in range(0, len(self.instances), SOLVE_CHUNK):
            self.op(self.solve_chunk, self.instances[k:k + SOLVE_CHUNK], solved)
        self.solutions.append(solved)

    def solve_chunk(self, paths, solved):
        for path in paths:
            for variant in ("dabt", "rabt"):
                self.attempted += 1
                try:
                    with open(path) as fh:
                        instance = solver.AssignmentInstance.from_json(fh.read())
                    solution = getattr(solver, f"solve_{variant}")(instance)
                except Exception as exc:  # an operation that raises counts as failed
                    self.fail(f"solve {path} {variant}: {exc!r}")
                    continue
                solved.append((path, variant, solution.assignments, solution.objective_value))

    # --- checks (untimed, untraced) -----------------------------------------

    def check(self):
        if self.workload == "solve":
            self.check_solutions()
            return
        if len(self.pass_windows) < 2:
            # A second dabt replay must reproduce the timed one byte for byte.
            self.simulate("dabt", self.model_dirs[-1])
        self.check_replays()

    def check_replays(self):
        records = corpus.load_events(self.corpus)
        cleaned, _, _ = pipeline.prepare(records, workloads.BOUNDARY)
        entering = {
            r.bug_id for r in cleaned
            if workloads.BOUNDARY < r.reported_at <= self.end
        }
        digests = {}
        for policy, files in self.replays:
            digest = hashlib.sha256()
            for name in sorted(files):
                digest.update(name.encode() + b"\0" + files[name])
            digests.setdefault(policy, set()).add(digest.hexdigest())
            result = json.loads(files[f"result_{policy}_a{ALPHA}.json"])
            ids = [entry["bug_id"] for entry in result["log"]]
            if len(set(ids)) != len(ids) or not set(ids) <= entering:
                self.fail(f"{policy}: assigned bugs outside the entering set or twice")
            if result["total_entering"] != len(entering):
                self.fail(f"{policy}: {result['total_entering']} entering, expected {len(entering)}")
            if policy == "dabt" and any(entry["infeasible"] for entry in result["log"]):
                self.fail("dabt: an assignment is marked infeasible")
        for policy, seen in sorted(digests.items()):
            if len(seen) != 1:
                self.fail(f"{policy}: artifacts differ between runs")
            print(f"artifacts {policy} sha256 {' '.join(sorted(seen))}")

    def check_solutions(self):
        import oracle  # loads scipy, after peak memory has been read

        first = self.solutions[0]
        for later in self.solutions[1:]:
            if later != first:
                self.fail("solutions differ between passes")
        instances = {}
        for path, variant, assignments, objective in first:
            if path not in instances:
                with open(path) as fh:
                    instances[path] = solver.AssignmentInstance.from_json(fh.read())
            instance = instances[path]
            name = variant.upper()
            try:
                solver.check_feasible(instance, assignments, name)
            except ValidationError as exc:
                self.fail(f"{path} {variant}: infeasible: {exc}")
                continue
            best = oracle.optimum(instance, name)
            value = oracle.assignment_value(instance, assignments, name)
            if abs(best - objective) > OBJECTIVE_TOL or abs(value - objective) > OBJECTIVE_TOL:
                self.fail(f"{path} {variant}: objective {objective!r}, milp optimum {best!r}")

    # --- the run --------------------------------------------------------------

    def run(self, seconds):
        setups = SETUPS[self.workload]
        before = setups if setups == 1 else setups // 2
        setup_times = [self.windowed(self.setup_windows, self.timed_setup) for _ in range(before)]
        pass_times = []
        min_passes = max(MIN_PASSES[self.workload], 2 if self.tracer else 1)
        started = time.perf_counter()
        while True:
            pass_times.append(self.windowed(self.pass_windows, self.run_pass))
            elapsed = time.perf_counter() - started
            if len(pass_times) >= min_passes and elapsed * (1 + 1 / len(pass_times)) > seconds:
                break
        setup_times += [
            self.windowed(self.setup_windows, self.timed_setup) for _ in range(setups - before)
        ]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.meter.stop()
        if self.tracer:
            self.tracer.uninstall()
        self.check()

        setup_s = statistics.median(scaled for _, scaled in setup_times)
        session_s = statistics.median(scaled for _, scaled in pass_times)
        setup_wall_s = statistics.median(raw for raw, _ in setup_times)
        session_wall_s = statistics.median(raw for raw, _ in pass_times)
        print(f"wall time: setup_s {setup_wall_s:.6g}, session_s {session_wall_s:.6g}")
        if self.tracer:
            metrics = self.layer_metrics()
            metrics["trace.setup_s"] = setup_s
            metrics["trace.session_s"] = session_s
            metrics["trace.setup_wall_s"] = setup_wall_s
            metrics["trace.session_wall_s"] = session_wall_s
        else:
            metrics = {"setup_s": setup_s, "session_s": session_s, "peak_rss_mb": peak_rss_mb}
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]} for name, value in metrics.items()
            },
        }

    def layer_metrics(self):
        setups = self.setup_windows
        rounds = [
            self.tracer.window_metrics([setups[min(k, len(setups) - 1)], window])
            for k, window in enumerate(self.pass_windows)
        ]
        setup_only = [self.tracer.window_metrics([window]) for window in setups]
        for label, windows in (("passes", rounds), ("set-ups", setup_only)):
            for key in tracing.mismatched_counters(windows):
                self.problems.append(f"counter {key} differs between {label}")
        metrics = tracing.combine(rounds)
        metrics["trace.absent_layers"] = len(self.tracer.absent_layers)
        if self.tracer.missing:
            print(f"absent layers: {' '.join(self.tracer.absent_layers)}; "
                  f"not found: {' '.join(self.tracer.missing)}")
        return metrics


def read_artifacts(out_dir, policy) -> dict:
    tag = f"{policy}_a{ALPHA}"
    names = (f"result_{tag}.json", f"decisions_{tag}.jsonl", f"daily_{tag}.csv", f"report_{tag}.json")
    return {name: (Path(out_dir) / name).read_bytes() for name in names}

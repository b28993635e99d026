"""Tests for the benchmark's input generators, tracer and host meter.

Run with ``python3 -m pytest perfbench``.
"""

import pytest

import hostspeed
import tracer
import workloads
from triagelab import bdg, costmodel, pipeline, simulator
from triagelab.solver import AssignmentInstance

SEEDS = (1, 7, 12)


def _corpus_bytes(records, tmp_path, name):
    return open(workloads.write_corpus(records, tmp_path / name), "rb").read()


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_bytes(seed, tmp_path):
    mini = [_corpus_bytes(workloads.mini_records(seed), tmp_path, f"m{k}") for k in (0, 1)]
    deps = [_corpus_bytes(workloads.deps_records(seed)[0], tmp_path, f"d{k}") for k in (0, 1)]
    solve = [
        [inst.to_json() for inst in workloads.solve_family(seed)] for _ in (0, 1)
    ]
    assert mini[0] == mini[1]
    assert deps[0] == deps[1]
    assert solve[0] == solve[1]


def test_seeds_give_different_inputs(tmp_path):
    assert _corpus_bytes(workloads.deps_records(1)[0], tmp_path, "a") != _corpus_bytes(
        workloads.deps_records(2)[0], tmp_path, "b"
    )
    assert workloads.solve_family(1)[0].to_json() != workloads.solve_family(2)[0].to_json()


def _world_days(records):
    """Replay the recorded history through the graph, in the
    simulator's event order, yielding the graph after every day."""
    opens, arcs, resolves = {}, {}, {}
    for rec in records:
        opens.setdefault(rec.reported_at, []).append(rec.bug_id)
        for day, kind, other in rec.dependency_events:
            arcs.setdefault(day, []).append((kind, rec.bug_id, other))
        if rec.resolved_at is not None:
            resolves.setdefault(rec.resolved_at, []).append(rec.bug_id)
    graph = bdg.DependencyGraph()
    for day in sorted(set(opens) | set(arcs) | set(resolves)):
        for bug in sorted(opens.get(day, ())):
            graph.apply_event(bdg.OPEN, bug)
        for kind, bug, other in arcs.get(day, ()):
            graph.apply_event(bdg.ADD_ARC if kind == "ADD_BLOCKS" else bdg.REMOVE_ARC, bug, other)
        for bug in sorted(resolves.get(day, ())):
            graph.apply_event(bdg.RESOLVE, bug)
        yield day, graph


def _depths(graph):
    """Longest blocker chain above every open bug, in linear time."""
    memo = {}

    def depth(bug):
        if bug not in memo:
            memo[bug] = 1 + max((depth(p) for p in graph.parents[bug]), default=-1)
        return memo[bug]

    return {bug: depth(bug) for bug in graph.children}


@pytest.mark.parametrize("seed", SEEDS)
def test_deps_structure(seed):
    records, plan = workloads.deps_records(seed)
    assert len(plan.heads) == workloads.TREES
    assert len(plan.tree_nodes) == workloads.TREES * (1 + workloads.TREE_WIDTH * workloads.TREE_DEPTH)
    deepest = 0
    for day, graph in _world_days(records):
        assert graph.is_acyclic()
        depths = _depths(graph)
        deepest = max(deepest, max(depths.values(), default=0))
        if day >= workloads.BOUNDARY:
            assert [depths[h] for h in plan.heads] == [workloads.TREE_DEPTH] * workloads.TREES
    assert deepest == workloads.TREE_DEPTH
    rejected = set(graph.rejected_arcs)
    assert rejected <= set(plan.cycle_arcs)
    tree_cycles = {(h, leaf) for h, leaf in plan.cycle_arcs if h in plan.heads}
    assert len(tree_cycles) == workloads.TREES * len(workloads.TREE_CYCLE_DAYS)
    assert tree_cycles <= rejected
    removals = [ev for rec in records for ev in rec.dependency_events if ev[1] == "REMOVE_BLOCKS"]
    assert removals


@pytest.mark.parametrize("seed", SEEDS)
def test_deps_trains_on_the_mini_corpus(seed):
    mini, _, mini_profiles = pipeline.prepare(workloads.mini_records(seed), workloads.BOUNDARY)
    deps, _, deps_profiles = pipeline.prepare(workloads.deps_records(seed)[0], workloads.BOUNDARY)
    assert [r.bug_id for r in mini] == [r.bug_id for r in deps]
    assert mini_profiles == deps_profiles


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_family_within_stated_ranges(seed):
    family = workloads.solve_family(seed)
    sizes = [len(inst.bugs) for inst in family]
    assert sizes == [n for n in workloads.SOLVE_SIZES for _ in range(workloads.SOLVE_PER_SIZE)]
    assert (min(sizes), max(sizes)) == (6, 7)
    experts, others = workloads.EXPERTS, workloads.OTHERS
    for inst in family:
        again = AssignmentInstance.from_json(inst.to_json())  # validates
        assert again == inst
        caps = [cap for _, cap in inst.developers]
        assert len(caps) == workloads.SOLVE_DEVS == experts.size + others.size
        for group, cols in ((experts, slice(0, 4)), (others, slice(4, 8))):
            assert all(group.capacity[0] <= c <= group.capacity[-1] for c in caps[cols])
            for bug in inst.bugs:
                assert all(group.cost[0] <= c <= group.cost[-1] for c in bug.c[cols])
        rows = {bug.c for bug in inst.bugs}
        assert len(rows) <= workloads.SOLVE_TOPICS
        for bug in inst.bugs:
            assert max(bug.s) == 1.0 and bug.s.index(1.0) < experts.size
            rest = sorted(bug.s)[:-1]
            assert all(v <= experts.suitability[-1] for v in rest)
        assert all(p < ch for p, ch in inst.precedence)


def test_tracer_wraps_every_binding_and_restores():
    originals = (pipeline.fit_lda, costmodel.fit_lda, bdg.DependencyGraph.apply_event)
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.fit_lda is costmodel.fit_lda
        assert pipeline.fit_lda.__wrapped__ is originals[0]
        assert t.missing == []
        graph = bdg.DependencyGraph()
        graph.apply_event(bdg.ADD_ARC, 1, 2)
        graph.apply_event(bdg.ADD_ARC, 2, 1)
        graph.metrics_snapshot()
    finally:
        t.uninstall()
    assert (pipeline.fit_lda, costmodel.fit_lda, bdg.DependencyGraph.apply_event) == originals
    metrics = t.window_metrics([(0, t.mark())])
    assert metrics["bdg.events"] == 2
    assert metrics["bdg.rejected_arcs"] == 1
    assert metrics["bdg.snapshots"] == 1


def test_solve_tail_percentile_leaves_ten_solves_beyond():
    solves = 2 * len(workloads.solve_family(1))
    assert solves * (100 - tracer.TAIL_PCT) / 100 >= 10


def test_benchmark_json_names_every_traced_metric():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = set(tracer.Tracer().window_metrics([]))
    names |= {"trace.absent_layers", "trace.setup_s", "trace.session_s"}
    names |= {"trace.setup_wall_s", "trace.session_wall_s"}
    assert {m["name"] for m in spec["per_layer"]} == names


def test_tracer_records_a_renamed_function_as_absent(monkeypatch):
    for module in (costmodel, pipeline, simulator):
        monkeypatch.delattr(module, "infer_topic")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["costmodel.infer_topic"]
    assert t.absent_layers == ["costmodel"]


def test_host_meter_scales_by_the_speed_sampled_in_a_unit():
    meter = hostspeed.HostMeter()
    meter.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    meter.speeds = [1.0, 0.5, 0.5, 0.5, 0.5, 9.0]
    assert meter.scaled(0.5, 4.5) == 4.0 * 0.5  # samples at 1, 2, 3 and 4
    assert meter.scaled(5.2, 5.4) == pytest.approx(0.2 * 9.0)  # no sample inside: the last one
    sampled = hostspeed.HostMeter()
    sampled.start()
    try:
        deadline = hostspeed.time.perf_counter() + 0.35
        while hostspeed.time.perf_counter() < deadline:
            pass
    finally:
        sampled.stop()
    assert len(sampled.speeds) >= 3

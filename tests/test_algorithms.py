"""Selection algorithms: pinned runs, invariants, determinism."""

import concurrent.futures
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import fairstops as fs
from fairstops import model
from fairstops.algorithms import _bump_until, _kth
from conftest import family_instances, grid_instance, grid_instances
from oracles import (
    brute_jr_factor,
    eca_loop,
    exact_min_cost_loop,
    gc_trsp_radius_pass,
    hybrid_loop,
    l_dictator_loop,
    line_sweep_loop,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def labels_of(instance, solution):
    return [instance.candidate_labels[c] for c in solution]


# ---------------------------------------------------------------------------
# Greedy capture
# ---------------------------------------------------------------------------


def test_gc_two_line_family_picks_far_stops():
    inst = fs.generate("gc-jr-tight", eps=0.01)
    sol, _ = fs.gc_trsp(inst)
    assert labels_of(inst, sol) == ["y1", "y2"]


def test_gc_core_family_picks_wide_stops():
    inst = fs.generate("gc-core-tight", eps=0.01, h=10)
    sol, trace = fs.gc_trsp(inst)
    assert labels_of(inst, sol) == ["t2", "t4"]
    radii = trace.radii()
    assert radii[0] == pytest.approx(1 - (SQRT2 - 1) * 0.01)


def test_gc_opens_at_radius_zero_on_coincident_endpoints():
    # ceil(2n/k) endpoints sitting exactly on one candidate open it at r=0.
    walk = np.zeros((3, 3))
    walk[0, 2] = walk[2, 0] = 4.0
    walk[1, 2] = walk[2, 1] = 4.0
    walk[0, 1] = walk[1, 0] = 0.0
    inst = fs.Instance(
        endpoints=np.array([(0, 0), (0, 0)]),
        candidates=np.array([1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((2, 2))),
        k=2,
    )
    sol, trace = fs.gc_trsp(inst)
    assert trace.events[0].radius == 0.0
    assert trace.events[0].opened == (0,)
    assert 0 in sol


def test_greedy_capture_odd_datapoint_count():
    # Three datapoints, k = 2: balls need ceil(3/2) = 2 of them, so the
    # sweep must not assume members come in agent pairs.
    line = fs.LineClusteringInstance(datapoints=(0, 1, 10), centers=(0, 10), k=2)
    picked, trace = fs.greedy_capture(fs.line_to_clustering(line))
    assert picked == (0,)
    assert trace.events == (
        fs.TraceEvent(radius=1.0, opened=(0,), endpoints=(0, 1)),
        fs.TraceEvent(radius=10.0, endpoints=(2,)),
    )


def test_gc_matches_clustering_twin_event_for_event(corpus):
    # The radius pass over every endpoint-to-stop distance is the independent
    # form of greedy capture that gc_trsp used to run.
    for inst in corpus[:40]:
        sol, trace = gc_trsp_radius_pass(inst)
        picked, twin_trace = fs.greedy_capture(fs.induce_clustering(inst))
        assert tuple(sorted(picked)) == sol.stops
        assert twin_trace.events == trace.events


def test_gc_matches_twin_on_families():
    for name, params in (
        ("gc-jr-tight", {"eps": 0.01}),
        ("gc-core-tight", {"eps": 0.01, "h": 3}),
        ("jr-lower", {}),
        ("motivating", {}),
    ):
        inst = fs.generate(name, **params)
        sol, trace = gc_trsp_radius_pass(inst)
        picked, twin_trace = fs.greedy_capture(fs.induce_clustering(inst))
        assert tuple(sorted(picked)) == sol.stops
        assert twin_trace.events == trace.events


# ---------------------------------------------------------------------------
# Expanding cost
# ---------------------------------------------------------------------------


def test_eca_table_family_picks_cheap_pair():
    inst = fs.generate("eca-jr-tight", eps=0.01)
    sol, trace = fs.eca(inst)
    assert labels_of(inst, sol) == ["t2", "t4"]
    assert trace.events[0].radius == pytest.approx(2 - 0.01 / 2)
    assert trace.events[0].agents == (1, 2, 3)


def test_eca_complete_graph_family_opens_one_pair_per_edge():
    inst = fs.generate("kz", gamma=1, r=2)
    sol, _ = fs.eca(inst)
    assert len(sol) == 6  # z^2 - z stops, one pair per edge
    assert labels_of(inst, sol) == ["t21", "t12", "t31", "t13", "t32", "t23"]
    assert all(fs.agent_cost(inst, i, sol) == pytest.approx(2.0) for i in range(inst.n))


def test_eca_zero_radius_pair():
    # ceil(2n/k) agents with both endpoints on a candidate pair, free rides.
    walk = np.full((4, 4), 3.0)
    np.fill_diagonal(walk, 0.0)
    inst = fs.Instance(
        endpoints=np.array([(0, 1), (0, 1)]),
        candidates=np.array([0, 1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((3, 3))),
        k=2,
    )
    sol, trace = fs.eca(inst)
    assert sol.stops == (0, 1)
    assert trace.events[0].radius == 0.0


def test_eca_relabeling_invariance(corpus):
    rng = np.random.default_rng(7)
    for inst in corpus[:8]:
        perm = rng.permutation(inst.m)
        remapped = fs.Instance(
            endpoints=inst.endpoints,
            candidates=inst.candidates[perm],
            walk=inst.walk,
            transit=fs.Metric(inst.transit.dist[np.ix_(perm, perm)]),
            k=inst.k,
        )
        base, _ = fs.eca(inst)
        moved, _ = fs.eca(remapped)
        base_points = sorted(inst.candidates[list(base)])
        moved_points = sorted(remapped.candidates[list(moved)])
        assert base_points == moved_points


def test_budget_respected_everywhere(corpus, gc_outputs, eca_outputs, hybrid_outputs):
    for inst, s_gc, s_eca in zip(corpus, gc_outputs, eca_outputs):
        assert len(s_gc) <= inst.k
        assert len(s_eca) <= inst.k
    for lam, sols in hybrid_outputs.items():
        for inst, sol in zip(corpus, sols):
            assert len(sol) <= inst.k


def test_determinism_across_runs_and_threads(corpus):
    inst = corpus[3]
    base = (fs.gc_trsp(inst), fs.eca(inst), fs.hybrid(inst, 0.5))
    again = (fs.gc_trsp(inst), fs.eca(inst), fs.hybrid(inst, 0.5))
    assert base == again
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(fs.eca, inst) for _ in range(8)]
        results = [f.result() for f in futures]
    assert all(res == results[0] for res in results)


def test_trace_invariants(corpus):
    for inst in corpus[:20]:
        for sol, trace in (fs.gc_trsp(inst), fs.eca(inst), fs.hybrid(inst, 0.5)):
            radii = trace.radii()
            assert all(a <= b for a, b in zip(radii, radii[1:]))
            seen_eps: set[int] = set()
            seen_agents: set[int] = set()
            for ev in trace.events:
                for e in ev.endpoints:
                    assert e not in seen_eps
                    assert e // 2 not in seen_agents
                    seen_eps.add(e)
                for i in ev.agents:
                    assert i not in seen_agents
                    assert 2 * i not in seen_eps and 2 * i + 1 not in seen_eps
                    seen_agents.add(i)


# ---------------------------------------------------------------------------
# Hybrid
# ---------------------------------------------------------------------------


def test_hybrid_two_line_family_mid_weight():
    inst = fs.generate("hybrid-jr-tight", lam=0.5, eps=0.01)
    sol, _ = fs.hybrid(inst, 0.5)
    assert labels_of(inst, sol) == ["y1", "y2"]


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_hybrid_two_line_family_factor_matches_oracle(lam):
    # The verifier's factor on the family's hybrid solution must be the one
    # explicit coalition enumeration finds, so criterion 06 rests on the
    # construction rather than on verifier tolerances.
    inst = fs.generate("hybrid-jr-tight", lam=lam, eps=0.01)
    sol, _ = fs.hybrid(inst, lam)
    assert labels_of(inst, sol) == ["y1", "y2"]
    assert fs.jr_ratio(inst, sol).factor == pytest.approx(
        brute_jr_factor(inst, sol.stops), rel=1e-12
    )


def test_hybrid_full_weight_equals_greedy_capture_on_core_family():
    inst = fs.generate("gc-core-tight", eps=0.01, h=10)
    s_gc, _ = fs.gc_trsp(inst)
    s_hy, _ = fs.hybrid(inst, 1.0)
    assert s_gc.stops == s_hy.stops


def test_hybrid_zero_weight_fires_on_coincident_endpoints():
    # All agents share one point that is also a candidate: at lam=0 the
    # distance side still captures those endpoints immediately.
    walk = np.full((3, 3), 5.0)
    np.fill_diagonal(walk, 0.0)
    inst = fs.Instance(
        endpoints=np.array([(0, 0), (0, 0), (0, 0)]),
        candidates=np.array([0, 1]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((2, 2))),
        k=2,
    )
    sol, trace = fs.hybrid(inst, 0.0)
    assert trace.events[0].radius == 0.0
    assert 0 in sol


def test_sweeps_force_retire_unreachable_endpoints():
    # Agents whose destinations no ball or pair can ever serve are retired
    # in one final event at radius infinity instead of looping forever.
    walk = np.array([
        [0.0, 1.0, math.inf],
        [1.0, 0.0, math.inf],
        [math.inf, math.inf, 0.0],
    ])
    inst = fs.Instance(
        endpoints=np.array([(0, 2), (0, 2)]),
        candidates=np.array([0, 1]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((2, 2))),
        k=2,
    )
    sol_h, trace_h = fs.hybrid(inst, 0.0)
    assert trace_h.events[0] == fs.TraceEvent(radius=0.0, opened=(0,), endpoints=(0, 2))
    assert trace_h.events[-1].radius == math.inf
    assert sorted(trace_h.events[-1].endpoints) == [1, 3]
    # eca has no single-stop side, so its stranded event names agents.
    assert fs.eca(inst)[1].events[-1] == fs.TraceEvent(radius=math.inf, agents=(0, 1))
    assert fs.gc_trsp(inst)[1].events[-1] == fs.TraceEvent(radius=math.inf, endpoints=(1, 3))


def test_hybrid_rejects_bad_weight():
    inst = fs.generate("eca-jr-tight", eps=0.01)
    for sweep in (fs.hybrid, hybrid_loop):
        for lam in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="lam must lie in"):
                sweep(inst, lam)


def test_sweeps_reject_zero_budget():
    # k = 0 must fail as a bad instance, not as a division inside the sweep.
    base = fs.generate("eca-jr-tight", eps=0.01)
    inst = fs.Instance(endpoints=base.endpoints, candidates=base.candidates, walk=base.walk,
                       transit=base.transit, k=0)
    for call in (fs.gc_trsp, fs.eca, lambda i: fs.hybrid(i, 0.5)):
        with pytest.raises(ValueError, match="k=0"):
            call(inst)


def test_hybrid_factor_identities():
    assert fs.hybrid_jr_factor(1.0) == pytest.approx(2 + SQRT5, abs=1e-12)
    assert fs.hybrid_jr_factor(0.0) == pytest.approx(3.0, abs=1e-12)
    assert fs.hybrid_core_beta(1.0) == pytest.approx(1 + SQRT2, abs=1e-12)
    with pytest.raises(ValueError):
        fs.hybrid_core_beta(0.0)


# ---------------------------------------------------------------------------
# Array sweeps against their loop forms
# ---------------------------------------------------------------------------

# 0.3 and 0.7 are not dyadic, so lam * (v / lam) can fall short of v and
# the hybrid's bumps need their rounding nudge.
SWEEP_LAMBDAS = (0.0, 0.25, 0.3, 0.5, 0.7, 1.0)


def sweep_runs(inst):
    """(label, library run, loop-oracle run) of every sweep on one instance."""
    yield "gc_trsp", fs.gc_trsp(inst), gc_trsp_radius_pass(inst)
    yield "eca", fs.eca(inst), eca_loop(inst)
    for lam in SWEEP_LAMBDAS:
        yield f"hybrid({lam})", fs.hybrid(inst, lam), hybrid_loop(inst, lam)


def assert_sweeps_match_loops(inst, where):
    for label, (sol, trace), (ref_sol, ref_trace) in sweep_runs(inst):
        assert sol == ref_sol, (where, label)
        assert trace.events == ref_trace.events, (where, label)
        # Equal events can still differ in repr, so radii must be Python floats.
        assert all(type(ev.radius) is float for ev in trace.events), (where, label)


@pytest.mark.parametrize("fixture", ["corpus", "corpus_random_transit"])
def test_sweeps_match_loop_oracles_on_corpus(fixture, request):
    for seed, inst in enumerate(request.getfixturevalue(fixture)):
        assert_sweeps_match_loops(inst, seed)


def test_sweeps_match_loop_oracles_on_families():
    for name, inst in family_instances():
        assert_sweeps_match_loops(inst, name)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid_instances())
def test_sweeps_match_loop_oracles_under_ties(inst):
    assert_sweeps_match_loops(inst, "grid")


# The corpora and the tie grid are too small for a sweep to retire many
# members between two openings; these instances are not.
@pytest.mark.parametrize("n, m, k, transit", [
    (60, 12, 4, "null"), (80, 14, 5, "random"), (100, 16, 6, "null"), (120, 12, 4, "random"),
])
def test_sweeps_match_loop_oracles_on_long_retirement_runs(n, m, k, transit):
    assert_sweeps_match_loops(fs.random_euclidean(n, m, k, n, transit=transit), n)


def test_sweeps_match_loop_oracles_under_ties_in_long_runs():
    # Many agents on few grid points, so agents and endpoints fall due at one
    # radius inside a run of retirements.
    rng = np.random.default_rng(8)
    for case in range(24):
        n, m = int(rng.integers(10, 41)), int(rng.integers(2, 8))
        k = int(rng.integers(1, m + 1))
        ride = rng.integers(0, 5, size=(m, m)) if case % 2 else None
        inst = grid_instance(rng.integers(0, 4, size=(2 * n + m, 2)), m, k, ride)
        assert_sweeps_match_loops(inst, ("grid", case))


def test_sweeps_match_loop_oracles_when_openings_build_on_earlier_ones():
    # Budgets of three or more on a small grid, so that a pair opens beside
    # a stop already open (its event opens one stop) and the hybrid's ball
    # side opens after a pair opened at a lower radius.  Both are counted,
    # so the comparison cannot pass without them.
    rng = np.random.default_rng(1)
    shared = after_pair = 0
    for case in range(200):
        n, m = int(rng.integers(4, 13)), int(rng.integers(3, 7))
        k = int(rng.integers(3, m + 1))
        ride = rng.integers(0, 5, size=(m, m)) if case % 2 else None
        inst = grid_instance(rng.integers(0, 4, size=(2 * n + m, 2)), m, k, ride)
        assert_sweeps_match_loops(inst, ("grid", case))
        traces = [fs.eca(inst)[1]] + [fs.hybrid(inst, lam)[1] for lam in SWEEP_LAMBDAS]
        shared += any(len(ev.opened) == 1 and ev.agents for tr in traces for ev in tr.events)
        for trace in traces[1:]:
            pair_radii = [ev.radius for ev in trace.events if ev.opened and ev.agents]
            after_pair += any(ev.opened and ev.endpoints and ev.radius > min(pair_radii)
                              for ev in trace.events) if pair_radii else 0
    assert shared >= 1 and after_pair >= 1, (shared, after_pair)


@pytest.mark.parametrize("run", [fs.eca, lambda inst: fs.hybrid(inst, 0.5)], ids=["eca", "hybrid"])
def test_sweep_time_is_not_quadratic_in_agents(run):
    # On a 2-vCPU VM, a sweep that re-scanned every unit at every retirement
    # took 22 s (eca) and 12 s (hybrid) of CPU on this instance; batched,
    # about 0.2 s.
    inst = fs.random_euclidean(1000, 60, 8, 0)
    start = time.process_time()
    _, trace = run(inst)
    assert time.process_time() - start < 5.0
    retired = [e for ev in trace.events for i in ev.agents for e in (2 * i, 2 * i + 1)]
    retired += [e for ev in trace.events for e in ev.endpoints]
    assert sorted(retired) == list(range(2 * inst.n))
    radii = trace.radii()
    assert all(a <= b for a, b in zip(radii, radii[1:]))


def test_sweep_key_is_the_sorted_order_statistic_over_kept_columns(monkeypatch):
    # Blocks of 200 floats split the wider tables into several row blocks,
    # the last one short.  Integer entries make ties, and a fifth are INF.
    monkeypatch.setattr(model, "BLOCK_FLOATS", 200)
    rng = np.random.default_rng(11)
    for rows, width in ((1, 1), (9, 5), (50, 3), (40, 12)):
        table = rng.integers(0, 4, size=(rows, width)).astype(float)
        table[rng.random(table.shape) < 0.2] = np.inf
        table.flags.writeable = False
        if rows > 1:
            assert len(list(model._row_blocks(table))) > 1
        for keep in (np.ones(width, dtype=bool), rng.random(width) < 0.5,
                     np.zeros(width, dtype=bool)):
            kept = table[:, keep]
            for thr in range(1, width + 1):
                want = (np.sort(kept, axis=1)[:, thr - 1] if kept.shape[1] >= thr
                        else np.full(rows, np.inf))
                assert _kth(table, thr, keep).tobytes() == want.tobytes(), (rows, keep, thr)


def test_bump_is_the_least_radius_past_a_short_quotient():
    # Where lam * (v / lam) falls short of v, the bump is the least float r
    # with lam * r >= v: the float just below it falls short too.  Elsewhere
    # it is v / lam itself, and INF (a sweep's start) stays INF.
    rng = np.random.default_rng(5)
    nudged = 0
    for lam in (0.3, 0.7, *rng.uniform(0.01, 1.0, size=20)):
        values = np.append(rng.uniform(0.0, 10.0, size=200), np.inf)
        r, quotient = _bump_until(values, lam), values / lam
        short = lam * quotient < values
        assert (lam * r >= values).all() and (r[~short] == quotient[~short]).all()
        assert (lam * np.nextafter(r[short], -np.inf) < values[short]).all()
        nudged += int(short.sum())
    assert nudged > 100
    assert _bump_until(np.array([-1.0, 0.0, 0.5, np.inf]), 0.0).tolist() == [0.0, 0.0, np.inf,
                                                                            np.inf]


# ---------------------------------------------------------------------------
# Line algorithms
# ---------------------------------------------------------------------------


def test_dictator_line_example():
    line = fs.generate("line-pf")
    picked = fs.l_dictator_partition(line)
    assert [line.centers[i] for i in picked] == [2.0, 9.0]


def test_sweep_baseline_line_example():
    line = fs.generate("line-pf")
    picked = fs.line_sweep_baseline(line)
    assert [line.centers[i] for i in picked] == [6.0, 13.0]


def test_dictator_self_selection_when_centers_are_datapoints():
    line = fs.LineClusteringInstance(
        datapoints=(0.0, 2.0, 5.0, 9.0), centers=(0.0, 2.0, 5.0, 9.0), k=2, ell=1
    )
    picked = fs.l_dictator_partition(line)
    # Block leaders are the first datapoints of each block, each its own center.
    assert [line.centers[i] for i in picked] == [0.0, 5.0]


def test_sweep_equals_last_dictator_when_centers_coincide():
    rng = np.random.default_rng(11)
    for _ in range(3):
        pts = tuple(sorted(rng.uniform(0, 10, size=6).tolist()))
        line = fs.LineClusteringInstance(datapoints=pts, centers=pts, k=3, ell=2)
        assert fs.line_sweep_baseline(line) == fs.l_dictator_partition(line)


def test_single_block_last_rank():
    line = fs.LineClusteringInstance(
        datapoints=(1.0, 4.0, 6.0), centers=(0.0, 5.0), k=1, ell=3
    )
    # The third (last) datapoint picks its nearest center.
    assert [line.centers[i] for i in fs.l_dictator_partition(line)] == [5.0]


def test_sweep_single_budget():
    line = fs.LineClusteringInstance(datapoints=(1.0, 2.0), centers=(0.0, 3.0), k=1, ell=1)
    assert [line.centers[i] for i in fs.line_sweep_baseline(line)] == [3.0]


@pytest.mark.parametrize("grid", [True, False], ids=["integer-grid", "uniform"])
def test_line_rules_match_loop_oracles(grid):
    # Integer coordinates make distance ties and coincident centers common.
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 8))
        k = int(rng.integers(1, min(n, m) + 1))
        dp, ce = ((rng.integers(-4, 5, size) if grid else rng.uniform(-4.0, 4.0, size)).tolist()
                  for size in (n, m))
        for ell in range(1, n // k + 1):
            line = fs.LineClusteringInstance(datapoints=dp, centers=ce, k=k, ell=ell)
            assert fs.l_dictator_partition(line) == l_dictator_loop(line)
            assert fs.line_sweep_baseline(line) == line_sweep_loop(line)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("grid", [True, False], ids=["integer-grid", "normal"])
def test_line_table_equals_clustering_table(grid):
    rng = np.random.default_rng(6)
    for _ in range(300):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 8))
        k = int(rng.integers(1, min(n, m) + 1))
        dp, ce = ((rng.integers(-4, 5, size) if grid else rng.normal(0.0, 3.0, size)).tolist()
                  for size in (n, m))
        line = fs.LineClusteringInstance(datapoints=dp, centers=ce, k=k)
        table = line.center_point_dists()
        assert not table.flags.writeable
        assert table.tobytes() == fs.line_to_clustering(line).center_point_dists().tobytes()


@pytest.mark.parametrize("rule", [fs.l_dictator_partition, fs.line_sweep_baseline],
                         ids=["dictator", "sweep"])
def test_line_rules_read_no_dense_metric(rule):
    # The (m x n) table is 0.7 MiB here; the dense (n + m)^2 metric would be 70.
    rng = np.random.default_rng(3)
    line = fs.LineClusteringInstance(datapoints=rng.uniform(0.0, 100.0, 3000).tolist(),
                                     centers=rng.uniform(0.0, 100.0, 30).tolist(), k=3)
    tracemalloc.start()
    try:
        rule(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_dictator_rank_validation():
    with pytest.raises(ValueError):
        fs.LineClusteringInstance(datapoints=(1.0, 2.0), centers=(0.0,), k=1, ell=3)
    line = fs.generate("line-pf", ell=2)
    object.__setattr__(line, "ell", 3)
    with pytest.raises(ValueError):
        fs.l_dictator_partition(line)


# ---------------------------------------------------------------------------
# Exact minimum-cost oracle
# ---------------------------------------------------------------------------


def test_exact_min_cost_full_budget_matches_all_candidates(corpus):
    inst = corpus[1]
    full = fs.Instance(
        endpoints=inst.endpoints,
        candidates=inst.candidates,
        walk=inst.walk,
        transit=inst.transit,
        k=inst.m,
    )
    _, best = fs.exact_min_cost(full)
    assert best == pytest.approx(fs.total_cost(full, tuple(range(full.m))), abs=1e-12)


def test_exact_min_cost_table_family_regression():
    # Frozen on first run of this very enumeration (eps = 0).
    inst = fs.generate("eca-jr-tight", eps=0.0)
    sol, cost = fs.exact_min_cost(inst)
    assert sol.stops == (0, 1, 2)
    assert cost == pytest.approx(5 * SQRT2, abs=1e-12)
    assert cost == pytest.approx(7.0710678118654755, abs=1e-12)


def test_exact_min_cost_empty_instance():
    walk = np.zeros((2, 2))
    inst = fs.Instance(
        endpoints=np.zeros((0, 2), dtype=int),
        candidates=np.array([0, 1]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((2, 2))),
        k=2,
    )
    sol, cost = fs.exact_min_cost(inst)
    assert sol.stops == () and cost == 0.0


def test_exact_min_cost_guard():
    # sum(C(30, s) for s in 0..10) = 53 009 102 stop sets, over the limit.
    inst = fs.random_euclidean(3, 30, 10, seed=0)
    with pytest.raises(fs.EnumerationGuardError, match="53009102 stop sets"):
        fs.exact_min_cost(inst)


def test_sweeps_without_agents_open_nothing():
    for transit in (np.zeros((2, 2)), np.array([[0.0, 2.0], [2.0, 0.0]])):
        inst = fs.Instance(
            endpoints=np.zeros((0, 2), dtype=int),
            candidates=np.array([0, 1]),
            walk=fs.Metric(np.array([[0.0, 1.0], [1.0, 0.0]])),
            transit=fs.Metric(transit),
            k=1,
        )
        for sweep in (fs.gc_trsp, fs.eca, lambda i: fs.hybrid(i, 0.5)):
            sol, trace = sweep(inst)
            assert sol.stops == () and trace.events == ()


def assert_min_cost_matches_loop(inst, label):
    (sol, cost), (ref_sol, ref_cost) = fs.exact_min_cost(inst), exact_min_cost_loop(inst)
    assert sol == ref_sol, label
    assert cost.hex() == ref_cost.hex(), label


@pytest.mark.parametrize("fixture", ["corpus", "corpus_random_transit"])
def test_exact_min_cost_matches_loop_oracle_on_corpus(fixture, request):
    for seed, inst in enumerate(request.getfixturevalue(fixture)):
        assert_min_cost_matches_loop(inst, seed)


def test_exact_min_cost_matches_loop_oracle_on_families():
    for name, inst in family_instances():
        assert_min_cost_matches_loop(inst, name)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid_instances())
def test_exact_min_cost_matches_loop_oracle_under_ties(inst):
    assert_min_cost_matches_loop(inst, "grid")

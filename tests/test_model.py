"""Cost model, metric validation, and the two clustering reductions."""

import concurrent.futures
import copy
import dataclasses
import itertools
import math
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import fairstops as fs
from conftest import family_instances, walk_bound_breaker
from fairstops import model
from oracles import exact_min_cost_loop, naive_agent_cost

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
INF = math.inf


def tiny_instance(walk, endpoints, candidates, k, transit=None):
    walk = np.array(walk, dtype=float)
    m = len(candidates)
    transit = np.zeros((m, m)) if transit is None else np.array(transit, dtype=float)
    return fs.Instance(
        endpoints=np.array(endpoints),
        candidates=np.array(candidates),
        walk=fs.Metric(walk),
        transit=fs.Metric(transit),
        k=k,
    )


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------


def test_metric_triangle_violation_reported():
    d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    issues = fs.Metric(d).violations()
    assert any("triangle" in msg for msg in issues)


def test_metric_infinite_entry_dominates():
    # Checks whose right side is infinite hold vacuously.
    d = np.array([[0, 2, INF], [2, 0, INF], [INF, INF, 0]], dtype=float)
    assert fs.Metric(d).violations() == []


def test_metric_asymmetry_and_diagonal():
    d = np.array([[0.0, 1.0], [2.0, 0.5]])
    issues = fs.Metric(d).violations()
    assert any("asymmetry" in m for m in issues)
    assert any("diagonal" in m for m in issues)


def test_metric_refuses_non_square_and_reports_nan():
    for shape in ((2, 3), (4,)):
        with pytest.raises(ValueError, match=r"distance matrix must be square, got shape"):
            fs.Metric(np.zeros(shape))
    assert fs.Metric([[0.0, np.nan], [np.nan, 0.0]]).violations("walk") == [
        "walk: NaN entries present"]


def test_solution_requires_strictly_increasing():
    with pytest.raises(ValueError):
        fs.Solution((2, 1))
    with pytest.raises(ValueError):
        fs.Solution((1, 1))
    assert fs.Solution.of([3, 1, 3]).stops == (1, 3)


# ---------------------------------------------------------------------------
# agent_cost / total_cost
# ---------------------------------------------------------------------------


def test_degenerate_route_costs_zero():
    # Both endpoints at the same point: zero cost under any placement.
    walk = [[0, 1], [1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 0)], candidates=[1], k=1)
    assert fs.agent_cost(inst, 0, ()) == 0.0
    assert fs.agent_cost(inst, 0, (0,)) == 0.0


def test_agent_cost_table4_group1():
    inst = fs.generate("gc-core-tight", eps=0.01, h=10)
    assert fs.agent_cost(inst, 0, (1, 3)) == pytest.approx(2 * (1 + SQRT2 - 0.01), abs=1e-12)
    assert fs.agent_cost(inst, 0, (1, 3)) == pytest.approx(4.80842712474619, abs=1e-9)


def test_agent_cost_table5_tight_pair():
    inst = fs.generate("eca-jr-tight", eps=0.01)
    assert fs.agent_cost(inst, 0, (0, 2)) == pytest.approx(2.0, abs=1e-12)


def test_agent_cost_index_error():
    inst = fs.generate("jr-lower")
    with pytest.raises(IndexError):
        fs.agent_cost(inst, 5, ())
    for bad in (-1, 3):
        with pytest.raises(IndexError, match=rf"agent index {bad} out of range for n=3"):
            fs.improving_pairs(inst, bad, (0, 1))


def test_agent_index_must_be_an_integer():
    inst = fs.generate("jr-lower")
    for call in (fs.agent_cost, fs.improving_pairs):
        for bad in (1.0, 0.5):
            with pytest.raises(TypeError):
                call(inst, bad, (0, 1))
        assert call(inst, np.int64(1), (0, 1)) == call(inst, 1, (0, 1))


def test_empty_solution_returns_walk():
    walk = [[0, 3, 1], [3, 0, 1], [1, 1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 1)], candidates=[2], k=1)
    assert fs.agent_cost(inst, 0, ()) == 3.0
    # Routing through the stop beats walking here.
    assert fs.agent_cost(inst, 0, (0,)) == 2.0


def test_total_cost_empty_instance():
    walk = [[0.0, 1.0], [1.0, 0.0]]
    inst = tiny_instance(walk, endpoints=np.zeros((0, 2), dtype=int), candidates=[0, 1], k=1)
    assert fs.total_cost(inst, ()) == 0.0


def test_total_cost_zero_when_everyone_on_a_stop():
    walk = [[0, 5], [5, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 1), (1, 0)], candidates=[0, 1], k=2)
    assert fs.total_cost(inst, (0, 1)) == 0.0


def test_total_cost_table5_eps_zero():
    inst = fs.generate("eca-jr-tight", eps=0.0)
    assert fs.total_cost(inst, (1, 3)) == pytest.approx(2 * (1 + SQRT2) + 6, abs=1e-12)


def test_costs_match_naive_reference(corpus):
    for inst in corpus[:20]:
        stops = tuple(range(0, inst.m, 2))
        vec = fs.solution_costs(inst, stops)
        for i in range(inst.n):
            assert vec[i] == pytest.approx(naive_agent_cost(inst, i, stops), abs=1e-12)


def test_costs_match_naive_reference_random_transit(corpus_random_transit):
    for inst in corpus_random_transit[:10]:
        stops = tuple(range(inst.m))
        vec = fs.solution_costs(inst, stops)
        for i in range(inst.n):
            assert vec[i] == pytest.approx(naive_agent_cost(inst, i, stops), abs=1e-12)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_monotonicity_and_walk_cap(corpus):
    for inst in corpus[:25]:
        small = tuple(range(0, inst.m, 2))
        large = tuple(range(inst.m))
        c_small = fs.solution_costs(inst, small)
        c_large = fs.solution_costs(inst, large)
        walk = fs.solution_costs(inst, ())
        assert np.all(c_large <= c_small + 1e-12)
        assert np.all(c_small <= walk + 1e-12)


def test_null_transit_swap_symmetry(corpus):
    for inst in corpus[:10]:
        assert inst.null_transit
        swapped = fs.Instance(
            endpoints=inst.endpoints[:, ::-1],
            candidates=inst.candidates,
            walk=inst.walk,
            transit=inst.transit,
            k=inst.k,
        )
        stops = tuple(range(0, inst.m, 2))
        assert np.allclose(
            fs.solution_costs(inst, stops), fs.solution_costs(swapped, stops)
        )


def test_route_costs_cap_relationship(corpus):
    for inst in corpus[:10]:
        stops = tuple(range(0, inst.m, 2))
        route = fs.route_costs(inst, stops)
        capped = fs.solution_costs(inst, stops)
        walk = fs.solution_costs(inst, ())
        assert np.allclose(np.minimum(route, walk), capped)
    assert np.all(np.isinf(fs.route_costs(corpus[0], ())))


def test_unit_tables_equal_per_placement_vectors(corpus, corpus_random_transit):
    # The sweeps read pair costs from one table; each row must be the
    # per-placement vector bit for bit, so traces cannot drift.
    for inst in corpus[:10] + corpus_random_transit[:10]:
        for size in (2, 3):
            units = np.array(list(itertools.combinations(range(inst.m), size)), dtype=int)
            units = units.reshape(-1, size)
            route = fs.route_costs(inst, units)
            capped = fs.solution_costs(inst, units)
            assert route.shape == capped.shape == (len(units), inst.n)
            for unit, row, capped_row in zip(units, route, capped):
                assert row.tobytes() == fs.route_costs(inst, tuple(unit)).tobytes()
                assert capped_row.tobytes() == fs.solution_costs(inst, tuple(unit)).tobytes()


def test_costs_bit_exact_against_loop_oracle(corpus, corpus_random_transit):
    # The loop oracle adds (walk in + ride) + walk out and takes the minimum
    # with the walk, so equal bits pin the kernel's sum order.
    cases = corpus[:20] + corpus_random_transit[:20] + [inst for _, inst in family_instances()]
    # A transit with a nonzero diagonal and asymmetric rides: the kernel
    # reads each stop's own ride c -> c, and each direction of a pair.  The
    # direct walks are cut, so no route hides under the walk cap.
    base = fs.random_euclidean(12, 6, 3, 5, transit="random")
    ride = base.transit.dist + np.random.default_rng(5).uniform(0.0, 0.3, (base.m, base.m))
    walk = base.walk.dist.copy()
    walk[tuple(base.endpoints.T)] = walk[tuple(base.endpoints.T[::-1])] = INF
    cases.append(fs.Instance(endpoints=base.endpoints, candidates=base.candidates,
                             walk=fs.Metric(walk), transit=fs.Metric(ride), k=base.k))
    for inst in cases:
        placements = [(), tuple(range(0, inst.m, 2)), tuple(range(inst.m))]
        tables = [(placement, fs.solution_costs(inst, placement)) for placement in placements]
        for size in (2, 3):
            units = np.array(list(itertools.combinations(range(inst.m), size)), dtype=int)
            tables += zip(units.reshape(-1, size).tolist(), fs.solution_costs(inst, units))
        for stops, costs in tables:
            assert [c.hex() for c in costs.tolist()] == [
                naive_agent_cost(inst, i, stops).hex() for i in range(inst.n)
            ], stops


def test_out_of_range_stops_raise():
    inst = fs.random_euclidean(6, 4, 2, 0)
    for bad in (-1, inst.m):
        for call in (
            lambda: fs.total_cost(inst, (bad,)),
            lambda: fs.agent_cost(inst, 0, (0, bad)),
            lambda: fs.jr_ratio(inst, (bad,)),
            lambda: fs.core_ratio(inst, (bad, 1), 1),
            lambda: fs.core_ratio(inst, (bad, 1), 1, backend="milp"),
        ):
            with pytest.raises(ValueError, match=rf"stop index {bad} out of range \[0, 4\)"):
                call()


def test_route_cost_block_stays_near_budget():
    # stop_sets sizes a block by what the kernel holds at once under a
    # transit metric: the off-diagonal routes, one walk-out gather and the
    # (units, agents) result, so a block peaks near BLOCK_FLOATS floats.
    inst = fs.random_euclidean(1000, 60, 8, 0, transit="random")
    for size in (2, 3):
        block = next(model.stop_sets(inst.m, size, inst.n))
        tracemalloc.start()
        try:
            fs.route_costs(inst, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * model.BLOCK_FLOATS * 8, (size, len(block), peak)


def test_pair_table_holds_the_table_once():
    inst = fs.random_euclidean(1000, 60, 8, 0, transit="random")
    tracemalloc.start()
    try:
        sets, table = inst._pair_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 1.25 * model.BLOCK_FLOATS * 8, (table.nbytes, peak)
    blocks = list(model.stop_sets(inst.m, 2, inst.n))
    assert sets.tobytes() == np.concatenate(blocks).tobytes()
    assert table.tobytes() == np.concatenate([fs.route_costs(inst, b) for b in blocks]).tobytes()
    lone = fs.Instance([(0, 1)], [0], fs.Metric([[0, 1], [1, 0]]), fs.Metric([[0]]), 1)
    sets, table = lone._pair_table
    assert sets.shape == (0, 2) and table.shape == (0, 1)


def test_single_stop_blocks_are_views_of_the_stop_route_table(monkeypatch):
    # Single stops are read from _d_cc as it is, one pair-width row block at
    # a time (four rows at 200 floats and 9 agents), and each block is bit
    # for bit the kernel's one-stop routes under every transit mode.
    monkeypatch.setattr(model, "BLOCK_FLOATS", 200)
    for transit in ("null", "random", "scaled"):
        inst = fs.random_euclidean(9, 7, 3, 5, transit=transit)
        blocks = list(model.stop_set_costs(inst, [1]))
        assert len(blocks) > 1, transit
        for _, routes in blocks:
            assert np.shares_memory(routes, inst._d_cc) and not routes.flags.writeable
        units = np.arange(inst.m)[:, None]
        sets = np.concatenate([sets for sets, _ in blocks])
        routes = np.concatenate([routes for _, routes in blocks])
        assert sets.shape == units.shape and sets.tobytes() == units.tobytes()
        assert routes.tobytes() == fs.route_costs(inst, units).tobytes(), transit
        (sol, cost), (want, want_cost) = fs.exact_min_cost(inst), exact_min_cost_loop(inst)
        assert sol == want and cost.hex() == want_cost.hex(), transit


def test_stop_sets_list_every_subset_in_order():
    for m, size in [(0, 0), (3, 0), (1, 2), (5, 2), (6, 3)]:
        blocks = list(model.stop_sets(m, size, 4))
        sets = [tuple(row) for block in blocks for row in block.tolist()]
        assert sets == list(itertools.combinations(range(m), size))
        assert all(block.shape[1] == size for block in blocks)


def block_outputs(inst):
    """Everything computed from stop-set blocks: sweeps, reports, improving
    pairs and the exact minimum cost, as text."""
    out = [fs.exact_min_cost(inst)]
    for sweep in (fs.gc_trsp, fs.eca, lambda i: fs.hybrid(i, 0.5)):
        sol, trace = sweep(inst)
        out += [sol, trace, fs.jr_ratio(inst, sol), fs.jr_violation(inst, sol, 1.5),
                fs.core_ratio(inst, sol, 2), fs.core_violation(inst, sol, 1),
                fs.pf_ratio(fs.induce_clustering(inst), sol.stops)]
        out += [fs.improving_pairs(inst, i, sol) for i in range(inst.n)]
        if inst.m <= 8:
            out.append(fs.core_ratio(inst, sol, 2, backend="milp"))
    return repr(out)


def test_one_set_blocks_change_nothing(corpus, corpus_random_transit, monkeypatch):
    # No test instance spans two blocks at the default size; one set a block
    # makes every search cross block boundaries.  That pass runs on fresh
    # copies, so each builds its own pair table one pair a block too, rather
    # than reading the table the default pass cached.
    cases = [(seed, inst) for seed, inst in enumerate(corpus[:15] + corpus_random_transit[:15])]
    cases += family_instances()
    default = [block_outputs(inst) for _, inst in cases]
    monkeypatch.setattr(model, "BLOCK_FLOATS", 1)
    assert max(len(block) for block in model.stop_sets(5, 2, 1)) == 1
    for (label, inst), expected in zip(cases, default):
        fresh = dataclasses.replace(inst)
        assert "_pair_table" not in vars(fresh)
        assert block_outputs(fresh) == expected, label


# ---------------------------------------------------------------------------
# The shared stop-pair route table
# ---------------------------------------------------------------------------


def count_pair_tables(monkeypatch) -> list[int]:
    """Patch ``model.stop_sets`` to record every listing of stop pairs, the
    one way a pair table is built."""
    built, original = [], model.stop_sets

    def counted(m, size, n):
        if size == 2:
            built.append(m)
        return original(m, size, n)

    monkeypatch.setattr(model, "stop_sets", counted)
    return built


def test_pair_table_is_built_once_and_shared(monkeypatch):
    inst = fs.random_euclidean(30, 8, 3, 0, transit="random")
    built = count_pair_tables(monkeypatch)
    sol = fs.eca(inst)[0]
    fs.hybrid(inst, 0.5)
    fs.jr_ratio(inst, sol)
    fs.jr_violation(inst, sol)
    for backend in ("enumerate", "milp"):
        fs.core_ratio(inst, sol, 1, backend=backend)
        fs.core_violation(inst, sol, 1, backend=backend)
    fs.improving_pairs(inst, 0, sol)
    fs.exact_min_cost(inst)
    assert built == [inst.m]
    pairs, routes = inst._pair_table
    for table in (pairs, routes):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    expected = np.array(list(itertools.combinations(range(inst.m), 2)))
    assert pairs.tobytes() == expected.tobytes() and pairs.shape == expected.shape
    expected = fs.route_costs(inst, expected)
    assert routes.tobytes() == expected.tobytes() and routes.shape == expected.shape


def test_pair_table_first_fill_under_threads():
    # The table is shared state filled on first use: many threads racing to
    # fill it must still give every caller the serial results.
    serial_inst = fs.random_euclidean(300, 40, 6, 2, transit="random")
    sol = fs.eca(serial_inst)[0]
    calls = (fs.eca, lambda inst: fs.hybrid(inst, 0.5), lambda inst: fs.jr_ratio(inst, sol))
    serial = [call(serial_inst) for call in calls]
    inst = dataclasses.replace(serial_inst)
    start = threading.Barrier(8)

    def job(i):
        start.wait(timeout=60)
        return i % 3, calls[i % 3](inst)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(job, i) for i in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for which, result in results:
        assert result == serial[which], which


def test_eca_sweeps_the_cached_table_as_it_is():
    # Past the cached table, eca holds one (pairs, agents) array: its first
    # key partition.  A walk-capped copy of the table would be a second.
    inst = fs.random_euclidean(300, 40, 6, 0, "random")
    table = inst._pair_table[1]
    tracemalloc.start()
    try:
        fs.eca(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, (table.nbytes, peak)


def test_warm_sweeps_hold_one_row_block_beside_the_cached_tables():
    # A sweep partitions the cached pair and clustering tables one stop_sets
    # pair block of rows at a time (1.59 MiB here); a whole copy of the pair
    # table, 13.5 MiB, was eca's peak before.
    inst = fs.random_euclidean(1000, 60, 8, 0, "random")
    for sweep in (fs.eca, lambda x: fs.hybrid(x, 0.5)):
        sweep(inst)
        tracemalloc.start()
        try:
            sweep(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= model.BLOCK_FLOATS * 8, peak


def test_verifiers_hold_one_block_beside_the_cached_table():
    inst = fs.random_euclidean(1000, 60, 8, 0, transit="random")
    tracemalloc.start()
    try:
        sol = fs.eca(inst)[0]
        cold = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 48.3 MiB is what a cold eca peaked at when it built a capped pair table
    # of its own and its first key partition kept a copy of that table alive.
    assert cold <= 48.3 * 2**20, cold
    # At alpha 4 the core lists single stops and pairs only, the pairs from
    # the cached table; alpha 2 would add 0.5 M sets of three and four stops,
    # which read no pair table, for about 40 s.
    peaks = []
    for check in (lambda: fs.jr_ratio(inst, sol), lambda: fs.jr_violation(inst, sol),
                  lambda: fs.core_ratio(inst, sol, 4)):
        tracemalloc.start()
        try:
            check()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 2 * model.BLOCK_FLOATS * 8, peaks
    # jr_ratio peaked at 9.78 MiB when its best target's ratios were a view
    # that kept that target's whole block alive; with a copy, 8.19 MiB.
    assert peaks[0] <= 9 * 2**20, peaks


# ---------------------------------------------------------------------------
# validate_instance
# ---------------------------------------------------------------------------


def test_validate_reports_triangle_and_index_errors():
    walk = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 7)], candidates=[2], k=1)
    issues = fs.validate_instance(inst)
    assert any("triangle" in m for m in issues)
    assert any("endpoint index" in m for m in issues)


@pytest.mark.parametrize("candidates, transit, problem", [
    pytest.param([2, 2], None, "duplicate candidate point indices", id="duplicate"),
    pytest.param([2, 3], None, "candidate index out of range [0, 3)", id="candidate-high"),
    pytest.param([-1, 2], None, "candidate index out of range [0, 3)", id="candidate-low"),
    pytest.param([1, 2], [[0.0]], "transit metric size 1 != m=2", id="transit-size"),
])
def test_validate_names_each_broken_candidate_invariant(candidates, transit, problem):
    walk = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 1)], candidates=candidates, k=1, transit=transit)
    assert fs.validate_instance(inst) == [problem]


def test_validate_never_throws_on_bad_budget():
    walk = [[0, 1], [1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 1)], candidates=[0], k=5)
    issues = fs.validate_instance(inst)
    assert any("budget" in m for m in issues), issues


def scaled(inst, scale):
    return fs.Instance(
        endpoints=inst.endpoints,
        candidates=inst.candidates,
        walk=fs.Metric(inst.walk.dist * scale),
        transit=fs.Metric(inst.transit.dist * scale),
        k=inst.k,
    )


def test_validate_report_is_scale_free():
    base = fs.random_euclidean(5, 4, 2, 0)
    walk = base.walk.dist.copy()
    walk[0, 1] *= 3.0  # agent 0's direct walk now exceeds most detours
    walk[1, 0] *= 3.0
    bent = fs.Instance(endpoints=base.endpoints, candidates=base.candidates,
                       walk=fs.Metric(walk), transit=base.transit, k=base.k)
    # Messages print the distances; compare them with the numbers blanked.
    reports = [
        [re.sub(r"=\S+", "=", msg) for msg in fs.validate_instance(scaled(bent, scale))]
        for scale in (1.0, 1e-12, 1e12)
    ]
    assert len(reports[0]) == 11
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_negative_entry_is_no_triangle_violation_of_itself():
    base = fs.random_euclidean(4, 4, 2, 0)
    walk = base.walk.dist.copy()
    walk[0, 1] = walk[1, 0] = -5.0
    bent = fs.Instance(endpoints=base.endpoints, candidates=base.candidates,
                       walk=fs.Metric(walk), transit=base.transit, k=base.k)
    report = fs.validate_instance(bent)
    assert "walk: negative distance at (0,1): -5.0" in report
    for through in ("d(0,0)+d(0,1)", "d(0,1)+d(1,1)"):
        assert f"walk: triangle violation d(0,1)=-5.0 > {through}=-5.0" not in report


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_every_family_validates_clean_at_any_scale(scale):
    for name in sorted(fs.FAMILIES):
        inst = fs.generate(name)
        if isinstance(inst, fs.LineClusteringInstance):
            inst = fs.clustering_to_trsp(fs.line_to_clustering(inst))
        assert fs.validate_instance(scaled(inst, scale)) == [], name


def test_walk_bound_names_first_agent_and_stop():
    bent = walk_bound_breaker()
    assert (model.walk_bound_problem(bent)
            == "agent 0's walk 10.0 exceeds its route 2.0 through stop 0 alone")
    # Stop 0 moved 6 away from everyone, stop 1 to 1 from agent 1's endpoints:
    # agent 1 alone breaks the bound, on stop 1 only.
    walk = np.array(bent.walk.dist)
    walk[:6, 6] = walk[6, :6] = 6.0
    walk[[2, 3], 7] = walk[7, [2, 3]] = 1.0
    moved = fs.Instance(endpoints=bent.endpoints, candidates=bent.candidates,
                        walk=fs.Metric(walk), transit=bent.transit, k=1)
    assert (model.walk_bound_problem(moved)
            == "agent 1's walk 10.0 exceeds its route 2.0 through stop 1 alone")


def test_every_input_meets_the_walk_bound(corpus, corpus_random_transit):
    instances = [*corpus, *corpus_random_transit, *(inst for _, inst in family_instances())]
    for inst in instances:
        assert model.walk_bound_problem(inst) is None


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def test_induced_clustering_doubles_agents(corpus):
    inst = corpus[0]
    clustering = fs.induce_clustering(inst)
    assert clustering.n == 2 * inst.n
    assert clustering.k == inst.k
    assert np.array_equal(clustering.centers, inst.candidates)


def test_induced_clustering_jr_lower_family():
    inst = fs.generate("jr-lower")
    clustering = fs.induce_clustering(inst)
    assert clustering.n == 6 and clustering.m == 6 and clustering.k == 3


def test_induced_clustering_keeps_coincident_endpoints():
    walk = [[0, 1], [1, 0]]
    inst = tiny_instance(walk, endpoints=[(0, 0)], candidates=[1], k=1)
    clustering = fs.induce_clustering(inst)
    assert clustering.datapoints.tolist() == [0, 0]


def test_induced_table_is_walk_gather_stops_first(corpus, corpus_random_transit):
    # The one table greedy capture, the hybrid's ball side and PF read: entry
    # [c, j] is the walk from datapoint j to center c, bit for bit, also on
    # a walk matrix that is asymmetric on purpose (it still builds).
    base = fs.random_euclidean(5, 4, 2, 0)
    skew = base.walk.dist + np.triu(np.full(base.walk.dist.shape, 0.25), 1)
    lopsided = fs.Instance(endpoints=base.endpoints, candidates=base.candidates,
                           walk=fs.Metric(skew), transit=base.transit, k=base.k)
    assert fs.validate_instance(lopsided)  # asymmetry is reported, not refused
    instances = [*corpus, *corpus_random_transit, *(inst for _, inst in family_instances()),
                 lopsided]
    for inst in instances:
        table = fs.induce_clustering(inst).center_point_dists()
        gather = inst.walk.dist[np.ix_(inst.endpoints.reshape(-1), inst.candidates)].T
        assert table.shape == (inst.m, 2 * inst.n)
        assert table.tobytes() == gather.tobytes()


class _UnreadableWalk:
    """A walk metric whose distances raise when read."""

    @property
    def dist(self):
        raise AssertionError("the walk metric was read")


@pytest.mark.parametrize("inst", [
    pytest.param(fs.generate("hybrid-jr-tight"), id="hybrid-jr-tight"),
    pytest.param(fs.random_euclidean(10, 6, 3, 0, "random"), id="random-transit"),
])
def test_built_instance_reads_its_tables_not_its_walk(inst):
    # Once built, every sweep, verifier and cost reads the instance's tables:
    # the walk is read only to build them (and by I/O and validation).
    blind = copy.copy(inst)  # rebuilt from its inputs, pair table not cached
    object.__setattr__(blind, "walk", _UnreadableWalk())
    assert fs.induce_clustering(blind) is fs.induce_clustering(blind)
    placements = [fs.gc_trsp(inst)[0].stops, fs.eca(inst)[0].stops, (0,), (1, 4)]

    def results(x):
        clustering = fs.induce_clustering(x)
        out = [fs.gc_trsp(x), fs.eca(x), *(fs.hybrid(x, lam) for lam in (0.0, 0.5, 1.0)),
               fs.exact_min_cost(x)]
        for sol in placements:
            out += [fs.jr_ratio(x, sol), fs.jr_violation(x, sol),
                    fs.pf_ratio(clustering, sol), fs.pf_violation(clustering, sol),
                    [fs.improving_pairs(x, i, sol) for i in range(x.n)],
                    fs.solution_costs(x, sol).tolist(), fs.total_cost(x, sol)]
            for backend in ("enumerate", "milp"):
                out += [fs.core_ratio(x, sol, 1, backend), fs.core_violation(x, sol, 1, 1.0, backend)]
        return out

    assert results(blind) == results(inst)


def test_clustering_instance_rejects_out_of_range_indices():
    dist = fs.Metric(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    for field, bad in (("datapoints", -1), ("datapoints", 3), ("centers", -1), ("centers", 3)):
        points = {"datapoints": [0, 1], "centers": [1, 2], field: [0, bad]}
        with pytest.raises(ValueError, match=rf"{field} index out of range \[0, 3\)"):
            fs.ClusteringInstance(dist=dist, k=1, **points)
    for k in (0, 3):
        with pytest.raises(ValueError, match=rf"budget k={k} outside \[1, m=2\]"):
            fs.ClusteringInstance(datapoints=[0, 1], centers=[1, 2], dist=dist, k=k)


def test_constructors_refuse_non_integer_indices_and_budgets():
    # A float index or budget used to be truncated: endpoints + 0.7 built the
    # base instance again, and k=2.9 read as 2.
    base = fs.random_euclidean(3, 3, 2, 0)
    fields = dict(endpoints=base.endpoints, candidates=base.candidates, k=base.k)
    bad = dict(endpoints=base.endpoints + 0.7, candidates=base.candidates + 0.2, k=2.9)
    for name in fields:
        with pytest.raises(TypeError, match=rf"^{name} must"):
            fs.Instance(walk=base.walk, transit=base.transit, **{**fields, name: bad[name]})
    with pytest.raises(TypeError, match="^endpoints must hold integer indices, got dtype bool"):
        fs.Instance(walk=base.walk, transit=base.transit,
                    **{**fields, "endpoints": np.ones((3, 2), dtype=bool)})
    fields = dict(datapoints=[0, 1], centers=[2], k=1)
    bad = dict(datapoints=[0.9, 1.5], centers=[2.7], k=1.8)
    for name in fields:
        with pytest.raises(TypeError, match=rf"^{name} must"):
            fs.ClusteringInstance(dist=base.walk, **{**fields, name: bad[name]})
    # Integer-valued numpy scalars and empty arrays of any dtype still pass.
    same = fs.Instance(endpoints=base.endpoints.astype(np.int32), candidates=base.candidates,
                       walk=base.walk, transit=base.transit, k=np.int64(2))
    assert same == base and type(same.k) is int
    empty = fs.Instance(endpoints=np.empty((0, 2)), candidates=base.candidates,
                        walk=base.walk, transit=base.transit, k=2)
    assert empty.endpoints.shape == (0, 2) and empty.endpoints.dtype == int


def test_clustering_to_trsp_structure():
    line = fs.generate("line-pf")
    clustering = fs.line_to_clustering(line)
    image = fs.clustering_to_trsp(clustering)
    assert image.k == 2 * clustering.k
    assert image.m == 2 * clustering.m
    assert image.n == clustering.n
    assert image.null_transit
    assert fs.validate_instance(image) == []
    # Distances to the two copies of any center agree by construction.
    d = image.walk.dist
    for i in range(image.n):
        a, b = image.endpoints[i]
        for j in range(clustering.m):
            ca, cb = image.candidates[j], image.candidates[j + clustering.m]
            assert d[a, ca] == d[b, cb]
        assert math.isinf(d[a, b])


def test_trace_type_helpers():
    ev = fs.TraceEvent(radius=1.0, opened=(2,), endpoints=(0, 1))
    trace = fs.RunTrace((ev,))
    assert trace.opened() == (2,)
    assert trace.radii() == (1.0,)


def test_instance_pickles_and_copies_only_its_inputs():
    # The derived tables and the cached pair table are rebuilt, not carried.
    for inst in (fs.random_euclidean(200, 30, 6, 0, transit="random"),
                 fs.generate("gc-jr-tight", eps=0.01)):
        size = len(pickle.dumps(inst))
        solved = fs.eca(inst)
        assert "_pair_table" in vars(inst)
        assert len(pickle.dumps(inst)) == size
        for twin in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
            assert "_pair_table" not in vars(twin)
            assert twin == inst and twin.candidate_labels == inst.candidate_labels
            assert fs.eca(twin) == solved


def test_trace_survives_pickle_copy_and_hash():
    trace = fs.hybrid(fs.generate("eca-jr-tight", eps=0.01), 0.5)[1]
    ev = trace.events[0]
    assert not hasattr(ev, "__dict__")  # slotted: a sweep makes thousands
    for twin in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert twin == trace and hash(twin) == hash(trace)
        assert twin.events[0] == ev and hash(twin.events[0]) == hash(ev)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.radius = 2.0

"""Fairness verifiers: pinned witnesses, ratio conventions, backend agreement."""

import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairstops as fs
from conftest import grid_instances, walk_bound_breaker
from oracles import brute_jr_factor, brute_pf_factor, ratios_five_where

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
INF = math.inf


@pytest.fixture(scope="module")
def table4():
    inst = fs.generate("gc-core-tight", eps=0.01, h=10)
    sol, _ = fs.gc_trsp(inst)
    return inst, sol


@pytest.fixture(scope="module")
def table5():
    inst = fs.generate("eca-jr-tight", eps=0.01)
    sol, _ = fs.eca(inst)
    return inst, sol


@pytest.fixture(scope="module")
def kz3():
    inst = fs.generate("kz", gamma=1, r=2)
    sol, _ = fs.eca(inst)
    return inst, sol


# ---------------------------------------------------------------------------
# improving_pairs
# ---------------------------------------------------------------------------


def test_improving_pairs_zero_cost_agent_has_none():
    walk = np.zeros((2, 2))
    walk[0, 1] = walk[1, 0] = 1.0
    inst = fs.Instance(
        endpoints=np.array([(0, 0)]),
        candidates=np.array([0, 1]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((2, 2))),
        k=1,
    )
    assert fs.improving_pairs(inst, 0, (0,)) == []
    assert fs.improving_pairs(inst, 0, (0,), beta=50.0) == []


def test_improving_pairs_table5_agent1(table5):
    inst, sol = table5
    pairs = fs.improving_pairs(inst, 0, sol, beta=1.0)
    assert (0, 2) in pairs


def test_improving_pairs_empty_above_max_ratio(table5):
    inst, sol = table5
    for i in range(inst.n):
        assert fs.improving_pairs(inst, i, sol, beta=1000.0) == []


# ---------------------------------------------------------------------------
# Pair representation
# ---------------------------------------------------------------------------


def test_jr_violation_on_asymmetric_three_stop_solution():
    inst = fs.generate("jr-lower")
    beta = (1 + SQRT3) / 2 - 0.01
    witness = fs.jr_violation(inst, (0, 1, 5), beta)
    assert witness is not None
    assert witness.coalition == (1, 2)
    assert witness.deviation == (0, 3)


def test_jr_violation_none_with_zero_costs():
    walk = np.zeros((3, 3))
    inst = fs.Instance(
        endpoints=np.array([(0, 0), (1, 1)]),
        candidates=np.array([0, 1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((3, 3))),
        k=2,
    )
    for beta in (1.0, 2.0, 100.0):
        assert fs.jr_violation(inst, (0, 1), beta) is None


def test_jr_violation_absent_at_worst_case_factor():
    inst = fs.generate("gc-jr-tight", eps=0.01)
    sol, _ = fs.gc_trsp(inst)
    assert fs.jr_violation(inst, sol, 2 + SQRT5) is None


def test_jr_ratio_table5(table5):
    inst, sol = table5
    report = fs.jr_ratio(inst, sol)
    assert report.factor == pytest.approx((1 + SQRT2) - (SQRT2 + 1) * 0.01 / 4, abs=1e-9)
    assert report.witness is not None
    assert report.witness.deviation == (0, 2)


def test_jr_ratio_two_line_family():
    inst = fs.generate("gc-jr-tight", eps=0.01)
    sol, _ = fs.gc_trsp(inst)
    factor = fs.jr_ratio(inst, sol).factor
    assert 2 + SQRT5 - 0.01 <= factor <= 2 + SQRT5


def test_jr_ratio_one_with_zero_cost_routes():
    walk = np.zeros((3, 3))
    inst = fs.Instance(
        endpoints=np.array([(0, 1), (1, 2)]),
        candidates=np.array([0, 1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((3, 3))),
        k=3,
    )
    report = fs.jr_ratio(inst, (0, 1, 2))
    assert report.factor == 1.0
    assert report.witness is None


# ---------------------------------------------------------------------------
# Core
# ---------------------------------------------------------------------------


def test_core_violation_table4_pinned(table4):
    inst, sol = table4
    # Absent at the guarantee, present just inside it with the exact coalition.
    assert fs.core_violation(inst, sol, 2, 1 + SQRT2) is None
    witness = fs.core_violation(inst, sol, Fraction(59, 30), 1 + SQRT2 - 0.01)
    assert witness is not None
    assert witness.deviation == (0, 2)
    assert witness.coalition == tuple(range(118))  # both big groups, nobody else


def test_core_violation_kz_at_huge_beta(kz3):
    inst, sol = kz3
    witness = fs.core_violation(inst, sol, 1, 1000.0)
    assert witness is not None
    assert witness.deviation == (0, 1, 2)


def test_core_ratio_kz_unbounded(kz3):
    inst, sol = kz3
    report = fs.core_ratio(inst, sol, 1)
    assert math.isinf(report.factor)
    assert report.witness.deviation == (0, 1, 2)
    # The blocked agents travel between graph vertices: cost 2 against 0.
    for i in report.witness.coalition:
        assert fs.agent_cost(inst, i, sol) == pytest.approx(2.0)
        assert fs.agent_cost(inst, i, report.witness.deviation) == 0.0


def test_core_ratio_table4_within_guarantee(table4):
    inst, sol = table4
    report = fs.core_ratio(inst, sol, 2)
    assert report.factor <= 1 + SQRT2 + 1e-9


def test_core_ratio_one_when_optimum_is_free():
    walk = np.zeros((3, 3))
    inst = fs.Instance(
        endpoints=np.array([(0, 1), (1, 2)]),
        candidates=np.array([0, 1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((3, 3))),
        k=3,
    )
    sol, _ = fs.exact_min_cost(inst)
    assert fs.core_ratio(inst, sol, 1).factor == 1.0


def test_core_guard_counts_stop_sets():
    # m=25, k=4 at alpha 2 lists 25 + 300 = 325 stop sets: far under the limit.
    inst = fs.random_euclidean(3, 25, 4, seed=0)
    witness = fs.core_violation(inst, (0,), 2, 1.0)
    assert (witness is None) == (fs.core_ratio(inst, (0,), 2).factor == 1.0)
    assert fs.core_violation(inst, tuple(range(4)), 2, 1000.0) is None
    # m=40, k=12 at alpha 1 lists 9 119 901 051; the count refuses it up front.
    big = fs.random_euclidean(3, 40, 12, seed=0)
    with pytest.raises(fs.EnumerationGuardError, match="9119901051 stop sets"):
        fs.core_ratio(big, (0,), 1)
    # The branch-and-bound backend lists no stop sets and is not limited.
    assert fs.core_violation(big, (0,), 1, 1000.0, backend="milp") is None


def test_jr_guard_counts_pairs_before_listing_any(monkeypatch):
    # The JR pair scan is a guarded search too: C(8, 2) = 28 pairs, refused
    # under a limit of 27 before the pair table is built.
    inst = fs.random_euclidean(6, 8, 3, seed=0)
    monkeypatch.setattr(fs.model, "MAX_STOP_SETS", 27)
    with pytest.raises(fs.EnumerationGuardError, match="28 stop sets"):
        fs.jr_ratio(inst, (0,))
    assert "_pair_table" not in vars(inst)


@pytest.mark.parametrize("backend", ["enumerate", "milp"])
def test_core_backends_refuse_a_broken_walk_bound(backend):
    inst = walk_bound_breaker()  # builds: Instance(...) stays permissive
    for check in (lambda: fs.core_ratio(inst, (1,), 1, backend=backend),
                  lambda: fs.core_violation(inst, (1,), 1, backend=backend)):
        with pytest.raises(ValueError, match="walk bound: agent 0's walk 10.0 exceeds"):
            check()


def test_core_refuses_an_unknown_backend(table5):
    inst, sol = table5
    for check in (lambda: fs.core_ratio(inst, sol, 1, backend="x"),
                  lambda: fs.core_violation(inst, sol, 1, backend="x")):
        with pytest.raises(ValueError, match="unknown backend 'x'"):
            check()


def test_stop_set_limit_is_inclusive():
    fs.model.check_stop_sets(fs.model.MAX_STOP_SETS, [1])
    with pytest.raises(fs.EnumerationGuardError, match=str(fs.model.MAX_STOP_SETS + 1)):
        fs.model.check_stop_sets(fs.model.MAX_STOP_SETS + 1, [1])
    # All subsets of 24 candidates, sizes 0 to 24, are 2**24 sets: still admitted.
    fs.model.check_stop_sets(24, range(25))


def test_core_milp_backend_matches_pinned_cases(table4, kz3):
    inst, sol = table4
    assert fs.core_violation(inst, sol, 2, 1 + SQRT2, backend="milp") is None
    w = fs.core_violation(inst, sol, Fraction(59, 30), 1 + SQRT2 - 0.01, backend="milp")
    assert w is not None and len(w.coalition) >= 118
    inst, sol = kz3
    report = fs.core_ratio(inst, sol, 1, backend="milp")
    assert math.isinf(report.factor)


def test_core_milp_ratio_settles_fair_placement_in_one_solve(monkeypatch, table5):
    real_milp = fs.fairness.milp
    solves = []

    def counting_milp(*args, **kwargs):
        solves.append(1)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(fs.fairness, "milp", counting_milp)
    inst = fs.generate("jr-lower")
    report = fs.core_ratio(inst, (0, 1, 5), 2, backend="milp")
    assert report.factor == 1.0 and report.witness is None
    # The pair reach counts settle this placement: no solve at all.
    assert len(solves) == 0
    # Unfair placements still get the tight factor of the enumeration.
    for inst, sol in ((inst, (0, 1, 5)), (inst, (0, 3)), table5):
        report = fs.core_ratio(inst, sol, 1, backend="milp")
        assert report.factor > 1.0
        assert report.factor == fs.core_ratio(inst, sol, 1).factor


def counted_solves(monkeypatch) -> list:
    """Wrap the MILP solver; the returned list gains one entry per solve."""
    real_milp = fs.fairness.milp
    solves = []

    def counting_milp(*args, **kwargs):
        solves.append(1)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(fs.fairness, "milp", counting_milp)
    return solves


def test_core_milp_screen_agrees_with_enumeration(monkeypatch):
    # Every rung of the ratio ladder, and beta = 1, probed by both backends:
    # the reach-count screen may settle a probe only where enumeration finds
    # no violation either.
    # The budget k = m makes the size rule easy to meet, so violations occur.
    solves = counted_solves(monkeypatch)
    probes = violated = 0
    for seed in range(6):
        for transit in ("null", "random"):
            m = 5 + seed % 3
            inst = fs.random_euclidean(4 + seed % 3, m, m, seed, transit=transit)
            for sol in ((), fs.eca(inst)[0].stops):
                cy = fs.solution_costs(inst, sol)
                ratios = fs.fairness._ratios(cy, np.minimum(inst._d_ab, inst._pair_table[1]))
                for beta in [1.0] + np.unique(ratios[ratios > 1.0]).tolist():
                    for alpha in (1, Fraction(3, 2), 2):
                        exact = fs.core_violation(inst, sol, alpha, beta)
                        milp = fs.core_violation(inst, sol, alpha, beta, backend="milp")
                        assert (exact is None) == (milp is None), (seed, transit, sol, alpha, beta)
                        probes += 1
                        violated += exact is not None
    # The screen settled some probes, and the solver still decided others.
    assert 0 < violated <= len(solves) < probes


def test_core_milp_solves_only_probes_the_screen_leaves_open(monkeypatch):
    solves = counted_solves(monkeypatch)
    inst = fs.generate("jr-lower")
    assert fs.core_violation(inst, (0, 1, 5), 2, backend="milp") is None
    assert len(solves) == 0
    witness = fs.core_violation(inst, (0, 3), 1, backend="milp")
    assert witness is not None and fs.core_violation(inst, (0, 3), 1) is not None
    assert len(solves) > 0


# ---------------------------------------------------------------------------
# Proportional fairness
# ---------------------------------------------------------------------------


def test_pf_line_example_baseline_and_dictator():
    line = fs.generate("line-pf")
    clustering = fs.line_to_clustering(line)
    baseline = fs.line_sweep_baseline(line)
    report = fs.pf_ratio(clustering, baseline)
    assert report.factor >= 3.0 - 1e-12
    assert report.witness.deviation == (0,)  # the skipped center at coordinate 2
    assert set(report.witness.coalition) == {0, 1}
    dictator = fs.l_dictator_partition(line)
    assert fs.pf_ratio(clustering, dictator).factor == 1.0


def test_pf_selecting_everything_is_fair():
    line = fs.generate("line-pf")
    clustering = fs.line_to_clustering(line)
    # Budget allows only k centers; widen it to take the full set.
    full = fs.ClusteringInstance(
        datapoints=clustering.datapoints,
        centers=clustering.centers,
        dist=clustering.dist,
        k=clustering.m,
    )
    assert fs.pf_ratio(full, tuple(range(full.m))).factor == 1.0


def test_pf_validates_centers():
    line = fs.generate("line-pf")
    clustering = fs.line_to_clustering(line)
    with pytest.raises(ValueError):
        fs.pf_ratio(clustering, (0, 1, 2))  # exceeds budget
    with pytest.raises(ValueError):
        fs.pf_violation(clustering, (9,), 1.0)
    # Every verifier refuses an over-budget placement the same way.
    inst = fs.generate("table3")
    over = range(6)
    for call, noun in (
        (lambda: fs.pf_ratio(fs.induce_clustering(inst), over), "centers"),
        (lambda: fs.jr_ratio(inst, over), "stops"),
        (lambda: fs.jr_violation(inst, over), "stops"),
        (lambda: fs.core_ratio(inst, over, 1), "stops"),
        (lambda: fs.core_ratio(inst, over, 1, backend="milp"), "stops"),
        (lambda: fs.core_violation(inst, over, 1), "stops"),
        (lambda: fs.improving_pairs(inst, 0, over), "stops"),
    ):
        with pytest.raises(ValueError, match=f"^6 {noun} exceed budget k=3$"):
            call()


# ---------------------------------------------------------------------------
# Soundness and oracle agreement
# ---------------------------------------------------------------------------


def test_violation_present_iff_factor_exceeded(corpus, gc_outputs):
    for inst, sol in list(zip(corpus, gc_outputs))[:25]:
        factor = fs.jr_ratio(inst, sol).factor
        if factor > 1.0 + 1e-9:
            assert fs.jr_violation(inst, sol, max(1.0, factor - 1e-6)) is not None
        if math.isfinite(factor):
            assert fs.jr_violation(inst, sol, factor + 1e-6) is None
        alpha = 2
        if inst.m <= 12:
            cfac = fs.core_ratio(inst, sol, alpha).factor
            if cfac > 1.0 + 1e-9:
                assert fs.core_violation(inst, sol, alpha, max(1.0, cfac - 1e-6)) is not None
            if math.isfinite(cfac):
                assert fs.core_violation(inst, sol, alpha, cfac + 1e-6) is None


def test_jr_matches_explicit_coalition_oracle():
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(2, min(4, m) + 1))
        inst = fs.random_euclidean(n, m, k, 500 + seed)
        sol, _ = fs.gc_trsp(inst)
        assert fs.jr_ratio(inst, sol).factor == pytest.approx(
            brute_jr_factor(inst, sol.stops), abs=1e-9
        )


def test_pf_matches_explicit_group_oracle():
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, m) + 1))
        inst = fs.random_euclidean(n, m, k, 900 + seed)
        clustering = fs.induce_clustering(inst)
        centers = tuple(range(0, m, 2))[:k]
        assert fs.pf_ratio(clustering, centers).factor == pytest.approx(
            brute_pf_factor(clustering, centers), abs=1e-9
        )


def test_ratio_conventions():
    from fairstops.fairness import _ratios

    cy = np.array([0.0, 3.0, 5.0, INF, INF, 4.0])
    ct = np.array([0.0, 0.0, INF, INF, 2.0, 2.0])
    out = _ratios(cy, ct)
    assert out.tolist() == [1.0, INF, 0.0, 1.0, INF, 2.0]


def test_ratios_equal_five_where_reference():
    # Broadcast a cost vector against a (targets, agents) table, as the
    # verifiers do, with 0, inf, equal and distinct finite entries mixed in.
    from fairstops.fairness import _ratios

    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pool = np.array([0.0, INF, 1.0, 2.5, rng.uniform(0, 3)])
        cy = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.uniform(0, 3, n))
        ct = np.where(rng.random((6, n)) < 0.5, rng.choice(pool, (6, n)), rng.uniform(0, 3, (6, n)))
        ct[0] = cy
        got, want = _ratios(cy, ct), ratios_five_where(cy, ct)
        assert got.shape == want.shape == ct.shape
        assert got.tobytes() == want.tobytes()


def test_ratios_of_one_agent_against_a_row_equal_five_where_reference():
    # improving_pairs divides one agent's cost, a numpy scalar, by a row of
    # the pair table.
    from fairstops.fairness import _ratios

    rng = np.random.default_rng(3)
    pool = np.array([0.0, INF, 1.0, 2.5])
    for cy in np.concatenate([pool, rng.uniform(0, 3, 4)]):
        row = np.where(rng.random(30) < 0.5, rng.choice(pool, 30), rng.uniform(0, 3, 30))
        row[:2] = cy
        got, want = _ratios(cy, row), ratios_five_where(cy, row)
        assert isinstance(got, np.ndarray) and got.shape == want.shape == row.shape
        assert got.tobytes() == want.tobytes()


def test_ratios_fix_equal_entries_only_where_a_quotient_is_nan():
    # The equal-entry fix runs only when the division leaves a NaN; the table
    # must be the one the fix applied on every call gives, bit for bit, also
    # on signed zeros and NaN costs, and the five-where reference's wherever
    # its conventions speak (no NaN operand, and a sign bit only on ties).
    from fairstops.fairness import _ratios

    def fixed_always(cy, ct):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.divide(cy, ct)
        np.copyto(r, 1.0, where=cy == ct)
        return r

    rng = np.random.default_rng(11)
    pools = [np.array([0.0, -0.0, INF, np.nan, 1.0, 2.5]), np.array([0.0, INF, 1.0, 2.5]),
             np.array([0.0, -0.0, 2.5]), np.array([INF, 1.0]), np.array([1.0, 2.5])]
    for trial in range(100):
        pool, n = pools[trial % len(pools)], int(rng.integers(1, 30))
        cy = np.where(rng.random(n) < 0.6, rng.choice(pool, n), rng.uniform(0, 3, n))
        ct = np.where(rng.random((5, n)) < 0.6, rng.choice(pool, (5, n)), rng.uniform(0, 3, (5, n)))
        ct[0] = cy
        got = _ratios(cy, ct)
        assert got.tobytes() == fixed_always(cy, ct).tobytes()
        cyt = np.broadcast_to(cy, ct.shape)
        nan = np.isnan(cyt) | np.isnan(ct)
        spoken = ~nan & ((~np.signbit(cyt) & ~np.signbit(ct)) | (cyt == ct))
        assert got[spoken].tobytes() == ratios_five_where(cy, ct)[spoken].tobytes()
        assert np.isnan(got[nan]).all()


def test_the_least_gain_is_reached_by_every_gain():
    # The MILP's lowest rung is the least strict gain, and its reach mask is
    # the gain mask itself, also next to 1, within RTOL of 1 and on ties.
    from fairstops.fairness import RTOL, _reaches

    rng = np.random.default_rng(5)
    above = np.nextafter(1.0, 2.0)
    pool = np.array([0.0, 1.0, INF, above, 1.0 + RTOL / 2, 1.0 + RTOL, 1.0 + 2 * RTOL, 1.5])
    for _ in range(200):
        r = rng.choice(pool, size=(int(rng.integers(1, 6)), int(rng.integers(1, 9))))
        r[rng.random(r.shape) < 0.3] = rng.uniform(0, 3)
        r.flat[rng.integers(r.size)] = rng.choice(pool[3:])
        assert np.array_equal(_reaches(r, r[r > 1.0].min()), r > 1.0)


def test_verifiers_run_the_kernel_on_the_placement_only(monkeypatch):
    # Every target is read from the instance's tables, and a placement is
    # priced once per instance: with the pair table built, JR and a core
    # whose targets hold one to four stops call route_costs once over the
    # whole sequence, for the placement, and exact_min_cost never does.
    inst = fs.random_euclidean(30, 8, 4, 3, transit="random")
    sol = fs.eca(inst)[0]
    other = (0, 1) if sol.stops != (0, 1) else (0, 2)
    assert "_pair_table" in vars(inst)  # eca built it
    calls, original = [], fs.model.route_costs

    def counted(instance, solution):
        calls.append(fs.model.as_stops(solution))
        return original(instance, solution)

    def check(placement):
        fs.jr_ratio(inst, placement)
        fs.jr_violation(inst, placement)
        fs.core_ratio(inst, placement, 2)
        fs.core_ratio(inst, placement, 1)  # targets of 1 to 4 stops at k = 4

    monkeypatch.setattr(fs.model, "route_costs", counted)
    monkeypatch.setattr(fs.fairness, "route_costs", counted)
    check(sol)
    assert calls == [sol.stops]
    check(other)  # a second placement is priced once more
    assert calls == [sol.stops, other]
    check(sol)  # and so is a return to the first: the memo holds one entry
    assert calls == [sol.stops, other, sol.stops]
    calls.clear()
    fs.exact_min_cost(inst)
    assert calls == []
    with pytest.raises(TypeError):
        original(inst, np.array([[0, 1], [0, 2]]))


def all_verifiers(inst, stops):
    out = [fs.jr_ratio(inst, stops), fs.jr_violation(inst, stops)]
    for backend in ("enumerate", "milp"):
        out += [fs.core_ratio(inst, stops, 1, backend),
                fs.core_violation(inst, stops, 1, 1.0, backend)]
    return out + [[fs.improving_pairs(inst, i, stops) for i in range(inst.n)]]


@pytest.mark.parametrize("family, sweep", [("eca-jr-tight", fs.eca), ("gc-jr-tight", fs.gc_trsp)])
def test_verifiers_on_one_instance_match_a_fresh_copy(family, sweep):
    # The instance keeps the last placement priced; moving between
    # placements must give every report and witness a fresh instance gives.
    inst = fs.generate(family, eps=0.01)
    a = sweep(inst)[0].stops  # tight: every verifier finds a witness on it
    b = (0, inst.m - 1)
    full = tuple(range(inst.k))
    for stops in (a, b, a, (), full):
        fresh = pickle.loads(pickle.dumps(inst))
        assert all_verifiers(inst, stops) == all_verifiers(fresh, stops), stops
        assert inst._priced[0] == stops


def test_priced_row_is_read_only_and_stays_with_its_instance():
    inst = fs.random_euclidean(10, 5, 2, 0, transit="random")
    fs.jr_ratio(inst, np.array([1, 0]))
    stops, costs = inst._priced
    assert stops == (0, 1)
    assert costs.tobytes() == fs.solution_costs(inst, stops).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        costs[0] = 0.0
    for twin in (pickle.loads(pickle.dumps(inst)), copy.copy(inst), copy.deepcopy(inst)):
        assert twin == inst and twin._priced is None


def test_threads_verifying_one_instance_agree_with_one_thread():
    # Threads share an instance's priced row.  A pricing is written as one
    # (stops, costs) tuple, so a thread always reads the row of the stops it
    # compared, whichever placement another thread priced last.
    inst = fs.generate("gc-jr-tight", eps=0.01)
    placements = [(2, 3), (0, 5), (), (0, 1, 2, 3)]

    def verify(x, stops):
        return [fs.jr_ratio(x, stops), fs.jr_violation(x, stops), fs.core_ratio(x, stops, 1),
                [fs.improving_pairs(x, i, stops) for i in range(x.n)]]

    want = {stops: verify(pickle.loads(pickle.dumps(inst)), stops) for stops in placements}
    errors = []

    def work(offset):
        try:
            for i in range(20):
                stops = placements[(i + offset) % len(placements)]
                assert verify(inst, stops) == want[stops], stops
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_refused_placement_leaves_the_priced_row_as_it_was():
    inst = fs.random_euclidean(10, 5, 2, 0, transit="random")
    fs.jr_ratio(inst, (0, 1))
    priced = inst._priced
    for bad, error, match in (((0, 1, 2), ValueError, "3 stops exceed budget k=2"),
                              ((0, 5), ValueError, r"stop index 5 out of range \[0, 5\)"),
                              ((-1,), ValueError, r"stop index -1 out of range \[0, 5\)"),
                              ((0.5,), TypeError, "integer")):
        for call in (lambda: fs.jr_ratio(inst, bad), lambda: fs.jr_violation(inst, bad),
                     lambda: fs.core_ratio(inst, bad, 1),
                     lambda: fs.core_violation(inst, bad, 1, backend="milp"),
                     lambda: fs.improving_pairs(inst, 0, bad)):
            with pytest.raises(error, match=match):
                call()
            assert inst._priced is priced


def test_negative_zero_distances_read_as_zero():
    # Both agents ride free between stops on their endpoints (distance 0,
    # written as -0.0 in one twin) but pay 2 under the placement (2,).  A
    # negative-zero target cost must not divide as -inf and hide the gain.
    xs = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 1.0])  # a0 b0 a1 b1 and three stops
    d = np.abs(xs[:, None] - xs[None, :])
    reports = []
    for zero in (0.0, -0.0):
        inst = fs.Instance(endpoints=np.arange(4).reshape(2, 2), candidates=np.array([4, 5, 6]),
                           walk=fs.Metric(np.where(d == 0, zero, d)),
                           transit=fs.Metric(np.full((3, 3), zero)), k=2)
        assert fs.validate_instance(inst) == []
        reports.append([fs.jr_ratio(inst, (2,)), fs.core_ratio(inst, (2,), 1),
                        fs.core_ratio(inst, (2,), 1, backend="milp"),
                        fs.pf_ratio(fs.induce_clustering(inst), (2,))])
    assert reports[0] == reports[1]
    assert all(report.factor == INF for report in reports[1])


def test_verifiers_reject_nan_factor(table5):
    inst, sol = table5
    clustering = fs.induce_clustering(inst)
    nan = float("nan")
    for call in (
        lambda: fs.jr_violation(inst, sol, nan),
        lambda: fs.core_violation(inst, sol, 2, nan),
        lambda: fs.core_violation(inst, sol, 2, nan, backend="milp"),
        lambda: fs.pf_violation(clustering, sol.stops, nan),
        lambda: fs.improving_pairs(inst, 0, sol, nan),
        lambda: fs.core_ratio(inst, sol, nan),
        lambda: fs.core_ratio(inst, sol, INF),
        lambda: fs.core_ratio(inst, sol, "1/0"),
    ):
        with pytest.raises(ValueError, match="must be >= 1"):
            call()


def test_non_integer_stop_indices_are_refused():
    # A float index used to be truncated, so (0.7,) silently evaluated stop 0.
    inst = fs.random_euclidean(8, 5, 2, 0)
    for call in (
        lambda: fs.jr_ratio(inst, (0.7,)),
        lambda: fs.core_ratio(inst, (0.7,), 2),
        lambda: fs.pf_ratio(fs.induce_clustering(inst), (0.7,)),
        lambda: fs.Solution.of((0.7,)),
        lambda: fs.Solution((0.7,)),
    ):
        with pytest.raises(TypeError):
            call()
    assert fs.jr_ratio(inst, (np.int64(0),)) == fs.jr_ratio(inst, (0,))


@pytest.mark.parametrize("field", ["k", "endpoint"])
def test_verifiers_reject_structurally_invalid_instances(field):
    # Built directly, such an instance leaves its cost tables unbuilt, so
    # every cost function, sweep and verifier raises instead of answering.
    base = fs.random_euclidean(4, 4, 2, 0)
    endpoints = base.endpoints.copy()
    if field == "endpoint":
        endpoints[0, 1] = 999
    inst = fs.Instance(endpoints=endpoints, candidates=base.candidates, walk=base.walk,
                       transit=base.transit, k=9 if field == "k" else base.k)
    sol = (0, 1)
    for call in (
        lambda: fs.jr_ratio(inst, sol),
        lambda: fs.jr_violation(inst, sol),
        lambda: fs.core_ratio(inst, sol, 2),
        lambda: fs.core_ratio(inst, sol, 2, backend="milp"),
        lambda: fs.core_violation(inst, sol, 2),
        lambda: fs.improving_pairs(inst, 0, sol),
        lambda: fs.induce_clustering(inst),
        lambda: fs.solution_costs(inst, sol),
        lambda: fs.route_costs(inst, sol),
        lambda: fs.agent_cost(inst, 0, sol),
        lambda: fs.total_cost(inst, sol),
        lambda: fs.exact_min_cost(inst),
        lambda: fs.gc_trsp(inst),
        lambda: fs.eca(inst),
        lambda: fs.hybrid(inst, 0.5),
    ):
        with pytest.raises(ValueError, match="k=9" if field == "k" else "endpoint index"):
            call()


def scaled(inst, factor):
    return fs.Instance(
        endpoints=inst.endpoints,
        candidates=inst.candidates,
        walk=fs.Metric(inst.walk.dist * factor),
        transit=fs.Metric(inst.transit.dist * factor),
        k=inst.k,
    )


def verifier(name, inst, stops, alpha):
    """``(report, violation at beta, costs under a stop set, threshold of a target)``."""
    if name == "pf":
        clustering = fs.induce_clustering(inst)
        d = clustering.center_point_dists().T
        return (
            fs.pf_ratio(clustering, stops),
            lambda beta: fs.pf_violation(clustering, stops, beta),
            lambda target: d[:, list(target)].min(axis=1) if target else np.full(len(d), INF),
            lambda target: -(-clustering.n // clustering.k),
        )
    costs = lambda target: fs.solution_costs(inst, target)  # noqa: E731
    if name == "jr":
        thr = fs.algorithms.coverage_threshold(inst.n, inst.k)
        return (
            fs.jr_ratio(inst, stops),
            lambda beta: fs.jr_violation(inst, stops, beta),
            costs,
            lambda target: thr,
        )
    backend = "milp" if name == "core-milp" else "enumerate"
    return (
        fs.core_ratio(inst, stops, alpha, backend=backend),
        lambda beta: fs.core_violation(inst, stops, alpha, beta, backend=backend),
        costs,
        lambda target: math.ceil(Fraction(alpha) * len(target) * inst.n / inst.k),
    )


def assert_witness_blocks(witness, stops, costs, threshold):
    assert witness is not None
    assert len(witness.coalition) >= threshold(witness.deviation)
    cy, ct = costs(stops), costs(witness.deviation)
    assert all(ct[i] < cy[i] for i in witness.coalition)


@st.composite
def placements(draw):
    inst = draw(grid_instances())
    stops = tuple(sorted(draw(st.sets(st.integers(0, inst.m - 1), max_size=inst.k))))
    return inst, stops, draw(st.sampled_from([1, Fraction(3, 2), 2]))


@pytest.mark.parametrize("name", ["jr", "core", "core-milp", "pf"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=placements())
def test_factor_and_witness_agree_at_any_scale(name, case):
    inst, stops, alpha = case
    report, violation, costs, threshold = verifier(name, inst, stops, alpha)
    factor = report.factor
    if factor > 1.0:
        assert_witness_blocks(report.witness, stops, costs, threshold)
    else:
        assert factor == 1.0 and report.witness is None
    # A violation at beta exists exactly when the boundary rule admits the factor.
    rtol = fs.fairness.RTOL
    betas = {1.0, 1.5, 2.0, 4.0, factor, factor * (1 - rtol), factor * (1 + 2 * rtol),
             np.nextafter(factor, INF), factor / (1 - rtol) * (1 + 4 * rtol)}
    for beta in sorted(b for b in betas if b >= 1.0):
        witness = violation(beta)
        assert (witness is not None) == (factor > 1.0 and factor >= beta * (1 - rtol)), beta
        if witness is not None:
            assert_witness_blocks(witness, stops, costs, threshold)
    # Powers of two scale every cost and ratio exactly; other scales round.
    for scale in (2.0**40, 2.0**-40, 1e-10, 1e12):
        rescaled, _, rescaled_costs, _ = verifier(name, scaled(inst, scale), stops, alpha)
        if scale in (2.0**40, 2.0**-40):
            assert rescaled.factor == factor
            assert (rescaled.witness is None) == (report.witness is None)
            if rescaled.witness is not None:
                assert rescaled.witness.coalition == report.witness.coalition
                assert rescaled.witness.deviation == report.witness.deviation
        if rescaled.factor > 1.0:
            assert_witness_blocks(rescaled.witness, stops, rescaled_costs, threshold)

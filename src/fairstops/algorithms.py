"""Stop-selection algorithms, all event-driven and deterministic.

Every sweep-based algorithm here simulates a "smoothly growing radius" by
jumping between the finitely many radii at which something can change (a
ball captures a new endpoint, a pair's cost reaches an agent).  Between two
consecutive trigger radii nothing happens, so the discretization is exact.

All three sweeps run one trigger loop, ``_sweep``, with two sides, either
of which may be absent: a *single-stop side*, a ``(stops x endpoints)``
distance table whose balls have radius ``lam * r``, and a *pair side*, a
``(pairs x agents)`` cost table over unordered stop pairs plus each agent's
cost under the current selection.  The pair side reads the instance's route
table over every stop pair, built on first use and kept for the instance's
life (``C(m, 2) * n * 8`` bytes), which the verifiers share.  An agent
counts on the pair side only while both its endpoints are active.  At
radius ``r`` a unit (a stop or a pair) covers
``((C <= r) & active).sum(1)`` members and opens at ``ceil(2n/k)``, that is
once its key, the ``ceil(2n/k)``-th smallest cost over its active members,
is at most ``r``.  While no stop opens, members only retire, so keys never
fall and no unit becomes eligible; no unit can open below the least eligible key.
Every retirement below that bound is known in closed form from the current
selection, so the loop takes them all in one vectorised pass and jumps from
one possible opening radius to the next, at the same radii and with the
same events as a pass per trigger.  :func:`greedy_capture` (so also
:func:`gc_trsp`) runs the single-stop side alone at ``lam = 1``, with
``ceil(n/k)`` over its n datapoints; :func:`eca` runs the pair side alone
and :func:`hybrid` runs both, each on the pair route costs as they are.
``eca`` retires an agent once its walk-capped cost is at most ``r``, so an
agent still live at ``r`` walks more than ``r``, and its capped pair cost is
at most ``r`` exactly when its route cost is: capping would change no opening.

Tie-breaking is fixed throughout: candidates are examined in ascending index
order, unordered candidate pairs in lexicographic order, and only the first
qualifying unit opens before eligibility is re-evaluated, because
deactivations can disqualify later candidates at the same radius.  A unit is
eligible while it adds a stop and fits the budget.  At each radius,
retirements come before openings.  Identical inputs therefore always produce
identical solutions and traces, and every trace radius is a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    INF,
    ClusteringInstance,
    Instance,
    Metric,
    RunTrace,
    Solution,
    TraceEvent,
    _readonly,
    induce_clustering,
    route_costs,
    solution_costs,
    stop_set_costs,
)


def coverage_threshold(n: int, k: int) -> int:
    """Number of active agents-or-endpoints a ball must capture to open: ceil(2n/k)."""
    return -(-2 * n // k)


# ---------------------------------------------------------------------------
# Worst-case fairness factors of the algorithms (used by tests and the CLI)
# ---------------------------------------------------------------------------

GC_JR_FACTOR = 2.0 + math.sqrt(5.0)
GC_CORE_ALPHA = 2
GC_CORE_BETA = 1.0 + math.sqrt(2.0)
ECA_JR_FACTOR = 1.0 + math.sqrt(2.0)


def hybrid_jr_factor(lam: float) -> float:
    """JR approximation factor of the hybrid sweep at mixing weight ``lam``."""
    return (lam + 3.0 + math.sqrt(lam * lam + 10.0 * lam + 9.0)) / 2.0


def hybrid_core_beta(lam: float) -> float:
    """Cost factor of the hybrid sweep's (2, beta)-core guarantee, ``lam > 0``."""
    if lam <= 0:
        raise ValueError("core factor is defined for lam > 0 only")
    return (math.sqrt(lam * lam + 6.0 * lam + 1.0) + lam + 1.0) / (2.0 * lam)


# ---------------------------------------------------------------------------
# Array helpers shared by the sweeps
# ---------------------------------------------------------------------------


def _ids(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(mask.nonzero()[0].tolist())


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or None, in one pass."""
    return i if mask.size and mask[i := int(mask.argmax())] else None


def _kth(table: np.ndarray, thr: int, scratch: bool = False) -> np.ndarray:
    """Per row, the ``thr``-th smallest entry; INF for rows shorter than ``thr``.
    A ``scratch`` table is partitioned in place rather than copied.  The
    result is its own array, so no copy of the table outlives the call."""
    if table.shape[1] < thr:
        return np.full(len(table), INF)
    if not scratch:
        table = table.copy()
    table.partition(thr - 1, axis=1)
    return table[:, thr - 1].copy()


def _rekey(key: np.ndarray, table: np.ndarray, lost: np.ndarray, kept: np.ndarray,
           thr: int) -> None:
    """Keep ``key`` equal to ``_kth`` of ``table`` over columns ``kept`` once
    columns ``lost`` have left.  A row whose lost entries all exceed its key
    keeps that key, so only the other rows are partitioned again."""
    rows = (table[:, lost] <= key[:, None]).any(axis=1).nonzero()[0]
    if rows.size:
        key[rows] = _kth(table[rows[:, None], kept], thr, scratch=True)


def _open(unit, chosen: list[int], is_chosen: np.ndarray) -> tuple[int, ...]:
    """Select the unit's stops not yet chosen; return them in index order."""
    extra = tuple(c for c in unit if not is_chosen[c])
    chosen.extend(extra)
    is_chosen[list(extra)] = True
    return extra


def _eligible_pairs(pairs: np.ndarray, is_chosen: np.ndarray, room: int) -> np.ndarray:
    """Pairs that add at least one stop and fit in ``room`` more stops."""
    new = np.count_nonzero(~is_chosen[pairs], axis=1)
    return (new > 0) & (new <= room)


# ---------------------------------------------------------------------------
# The trigger loop shared by every sweep
# ---------------------------------------------------------------------------


def _bump_until(values, lam: float) -> np.ndarray:
    """Elementwise smallest ``r`` with ``lam * r >= value`` under float rounding.

    Monotone in ``value``, so the least bump of a set is the bump of its
    least entry.  At ``lam = 0`` only values at or below 0 are ever reached.
    """
    if lam == 0.0:
        return np.where(np.asarray(values) <= 0.0, 0.0, INF)
    r = np.asarray(values, dtype=float) / lam
    while (low := lam * r < values).any():
        r = np.where(low, np.nextafter(r, INF), r)
    return r


def _sweep(m: int, k: int, members: int, dist: np.ndarray | None = None, lam: float = 1.0,
           pair_table: tuple[np.ndarray, np.ndarray] | None = None,
           cost=None) -> tuple[list[int], RunTrace]:
    """Grow one radius ``r`` over a single-stop side, a pair side, or both.

    ``dist`` is the single-stop side, with balls of radius ``lam * r``.
    ``pair_table`` and ``cost`` are the pair side: every unordered stop pair
    in lexicographic order with its ``(pairs, agents)`` cost table, which is
    only read, and a map from a selection to the agents' retirement costs;
    agent ``i`` owns members ``2i`` and ``2i + 1``.  Phases run in the order
    :func:`hybrid` documents.  Returns the stops in opening order and the
    trace.

    Each side caches its units' keys (``_kth`` over the live members) and
    refreshes only rows that lose a member at or below their key, so a
    first fit is ``key <= r`` (``lam * r`` for stops).  After the openings at ``r``,
    ``bound`` is the least radius at which any unit could open: the least
    eligible pair key, or the bump of the least unchosen stop key.  Until a
    stop opens, keys only rise and eligibility only shrinks, so nothing
    opens below ``bound`` and every retirement up to it is known in closed
    form: agent ``i`` at ``max(r, costs[i])`` if that is no later than both
    its endpoints, else each endpoint alone at ``max(r, due)``.
    ``retire`` emits them in the order the pass-by-pass loop would, and the
    sweep moves on to ``bound`` itself.  A radius where nothing is due
    leaves no event, so landing on ``bound`` after its key has risen is
    harmless.

    The other derived state is carried across passes too: ``drop`` refreshes
    ``full``, the agents with both endpoints live, and ``add``, once per
    opening, refreshes ``near`` (each member's distance to the selection)
    with its bump ``due``, the agents' ``costs`` and ``eligible``.
    """
    if cost is not None:
        pairs, pair_costs = pair_table
    if not members:  # nothing to serve, and a threshold of 0 picks no order statistic
        return [], RunTrace(())
    thr = -(-members // k)
    live = np.ones(members, dtype=bool)
    chosen: list[int] = []
    is_chosen = np.zeros(m, dtype=bool)
    events: list[TraceEvent] = []
    r = bound = 0.0
    if cost is not None:
        full = live[::2].copy()
        pair_key = _kth(pair_costs, thr)
        costs = cost(chosen)
        eligible = _eligible_pairs(pairs, is_chosen, k)
    if dist is not None:
        stop_key = _kth(dist, thr)
        near, due = np.full(members, INF), np.full(members, INF)

    def add(unit) -> tuple[int, ...]:
        """Open the unit's stops not yet chosen and refresh what they change."""
        nonlocal due, costs, eligible
        extra = _open(unit, chosen, is_chosen)
        if dist is not None:
            for c in extra:
                np.minimum(near, dist[c], out=near)
            due = _bump_until(near, lam)
        if cost is not None:
            costs = cost(chosen)
            eligible = _eligible_pairs(pairs, is_chosen, k - len(chosen))
        return extra

    def drop(gone: np.ndarray) -> None:
        """Retire the live members in mask ``gone`` and refresh both key caches."""
        nonlocal full
        live[gone] = False
        if cost is not None:
            was, full = full, live[::2] & live[1::2]
            _rekey(pair_key, pair_costs, (was > full).nonzero()[0], full.nonzero()[0], thr)
        if dist is not None:
            _rekey(stop_key, dist, gone.nonzero()[0], live.nonzero()[0], thr)

    def retire(upto: float) -> None:
        """Retire every member due at a finite radius at most ``upto``, in
        ascending radius, agents before endpoints at a shared one."""
        upto = min(upto, math.nextafter(INF, 0.0))  # so ``t <= upto`` leaves INF out
        t_ag = agents = t_ep = np.empty(0, dtype=int)
        gone = whole = False  # an absent side retires nothing
        if dist is not None:
            t_ep = np.where(live, np.maximum(r, due), INF)
            gone = t_ep <= upto
        if cost is not None:
            t_ag = np.where(full, np.maximum(r, costs), INF)
            whole = t_ag <= (upto if dist is None
                             else np.minimum(np.minimum(t_ep[::2], t_ep[1::2]), upto))
            agents = whole.nonzero()[0]
            whole = np.repeat(whole, 2)
        eps = (gone > whole).nonzero()[0]
        gone = gone | whole
        if not (agents.size or eps.size):
            return
        # A stable sort by radius keeps agents before endpoints and each in
        # index order, so the events are the runs of one (radius, kind).
        radius, ids = np.concatenate((t_ag[agents], t_ep[eps])), np.concatenate((agents, eps))
        order = radius.argsort(kind="stable")
        radius, ids, is_ep = radius[order], ids[order], order >= agents.size
        cuts = ((radius[1:] != radius[:-1]) | (is_ep[1:] != is_ep[:-1])).nonzero()[0] + 1
        radius, ids, is_ep = radius.tolist(), ids.tolist(), is_ep.tolist()
        cuts = [0, *cuts.tolist(), len(ids)]
        for a, b in zip(cuts, cuts[1:]):
            who = tuple(ids[a:b])
            events.append(TraceEvent(radius[a], (), who, ()) if is_ep[a]
                          else TraceEvent(radius[a], (), (), who))
        drop(gone)

    while True:
        retire(bound)
        if not live.any():
            break
        if bound == INF:
            events.append(TraceEvent(INF, (), (), _ids(full)) if dist is None
                          else TraceEvent(INF, (), _ids(live), ()))
            break
        r = bound
        if cost is not None:
            while (p := _first(eligible & (pair_key <= r))) is not None:
                covered = full & (pair_costs[p] <= r)
                events.append(TraceEvent(r, add(pairs[p].tolist()), (), _ids(covered)))
                drop(np.repeat(covered, 2))
            # Endpoints now covered by pair-opened stops must not pad the
            # balls of unrelated single candidates below.
            if dist is not None and (gone := live & (near <= lam * r)).any():
                events.append(TraceEvent(r, (), _ids(gone), ()))
                drop(gone)
        # r stays finite, so at lam = 0 a ball holds only members on its stop.
        # No budget test is needed here: every stop retires at least ``thr``
        # members, so all are retired before ``k`` stops are open.
        while dist is not None and (c := _first(~is_chosen & (stop_key <= lam * r))) is not None:
            ball = live & (dist[c] <= lam * r)
            events.append(TraceEvent(r, add((c,)), _ids(ball), ()))
            drop(ball)
        bound = INF
        if cost is not None:
            bound = float(pair_key[eligible].min(initial=INF))
        if dist is not None:
            bound = min(bound, float(_bump_until(stop_key[~is_chosen].min(initial=INF), lam)))
    return chosen, RunTrace(tuple(events))


# ---------------------------------------------------------------------------
# The three sweeps
# ---------------------------------------------------------------------------


def gc_trsp(instance: Instance) -> tuple[Solution, RunTrace]:
    """Greedy capture over the agents' endpoints.

    Grows one radius ``r``; at each trigger, endpoints inside an already-open
    ball are absorbed first, then candidates whose ball holds at least
    ``ceil(2n/k)`` active endpoints open.  This is :func:`greedy_capture` on
    the induced clustering instance, whose datapoints are the 2n endpoints.
    """
    chosen, trace = greedy_capture(induce_clustering(instance))
    return Solution.of(chosen), trace


def greedy_capture(clustering: ClusteringInstance) -> tuple[tuple[int, ...], RunTrace]:
    """Greedy capture on a clustering instance, as a trigger-queue simulation.

    The single-stop side is the instance's own stops-first table,
    :meth:`~fairstops.model.ClusteringInstance.center_point_dists`.  Returns
    the selected center indices in opening order and the trace over
    datapoint ids.
    """
    chosen, trace = _sweep(clustering.m, clustering.k, clustering.n,
                           dist=clustering.center_point_dists())
    return tuple(chosen), trace


def eca(instance: Instance) -> tuple[Solution, RunTrace]:
    """Expanding-cost selection over unordered candidate pairs.

    Grows a cost radius ``r`` in strictly alternating phases per trigger: an
    agent retires as soon as her cost under the whole current selection drops
    to ``r`` (mixed routes across all open stops count); then a pair of stops
    opens as soon as at least ``ceil(2n/k)`` still-active agents would each
    pay at most ``r`` *on that pair's own routes*, and those agents retire
    with it.  Pricing an opening on its own pair keeps simultaneous openings
    independent: a cross pair cheapened only by mixed routes through stops
    opened a moment earlier cannot jump the queue and eat the coalition that
    a later pair was about to serve.  Correct under arbitrary transit
    metrics.
    """
    chosen, trace = _sweep(instance.m, instance.k, 2 * instance.n,
                           pair_table=instance._pair_table,
                           cost=lambda chosen: solution_costs(instance, chosen))
    return Solution.of(chosen), trace


def hybrid(instance: Instance, lam: float) -> tuple[Solution, RunTrace]:
    """One sweep that interleaves pair openings and single-stop openings.

    ``lam`` in ``[0, 1]`` weighs the two sides: it is the growth rate of the
    single-stop distance radius relative to the pair cost radius.  1 recovers
    greedy-capture behaviour, values near 0 favour the pair side (at exactly
    0 the distance side only ever captures endpoints sitting exactly on a
    stop), and a weight outside ``[0, 1]`` raises ``ValueError``.

    Under radius ``r``, in fixed phase order per trigger radius: (1) whole
    agents with both endpoints still active retire when the selection serves
    them *through stops* at cost at most ``r`` and, after them, lone
    endpoints within ``lam * r`` of a selected stop retire; (2) the pair loop
    opens, in lexicographic order, every pair whose own routes serve at least
    ``ceil(2n/k)`` fully-active agents within ``r``; (3) endpoints covered by
    the grown selection retire, then the single-stop loop opens, in index
    order, every candidate whose ball of radius ``lam * r`` holds at least
    ``ceil(2n/k)`` active endpoints.  The pair loop never counts agents with
    a retired endpoint.

    Retirement deliberately ignores the direct-walk option (unlike
    :func:`eca`): an agent retired for a cheap walk could sit arbitrarily far
    from every selected stop, which would void the sweep's distance guarantee
    on the induced clustering and with it the core guarantee.  Costs reported
    for the returned placement still include walking.

    The ball side reads the induced clustering's stops-first table, the one
    :func:`gc_trsp` sweeps.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    dist = induce_clustering(instance).center_point_dists()
    chosen, trace = _sweep(instance.m, instance.k, 2 * instance.n, dist=dist, lam=lam,
                           pair_table=instance._pair_table,
                           cost=lambda chosen: route_costs(instance, chosen))
    return Solution.of(chosen), trace


# ---------------------------------------------------------------------------
# Clustering on a line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineClusteringInstance:
    """Datapoints and candidate centers on the real line, with a dictator rank."""

    datapoints: tuple[float, ...]
    centers: tuple[float, ...]
    k: int
    ell: int = 1

    def __post_init__(self):
        dp = tuple(sorted(float(x) for x in self.datapoints))
        ce = tuple(sorted(float(x) for x in self.centers))
        if not all(map(math.isfinite, dp + ce)):
            raise ValueError("line coordinates must be finite")
        object.__setattr__(self, "datapoints", dp)
        object.__setattr__(self, "centers", ce)
        if not 1 <= self.k <= len(ce):
            raise ValueError(f"invalid budget k={self.k} for {len(ce)} centers")
        if not 1 <= self.ell <= len(dp) // self.k:
            raise ValueError(f"ell={self.ell} outside [1, floor(n/k)={len(dp) // self.k}]")

    @property
    def n(self) -> int:
        return len(self.datapoints)

    def center_point_dists(self) -> np.ndarray:
        """Read-only ``(m, n)`` center-to-datapoint table of :func:`line_to_clustering`."""
        return _readonly(np.abs(np.subtract.outer(self.centers, self.datapoints)))


def _nearest_free(dists: np.ndarray, free: np.ndarray) -> int:
    """The center in mask ``free`` nearest by ``dists``, ties to the lowest
    index, which on the line is the leftmost."""
    idx = free.nonzero()[0]
    return int(idx[dists[idx].argmin()])


def l_dictator_partition(line: LineClusteringInstance) -> tuple[int, ...]:
    """Let the ell-th datapoint of each block pick its nearest unselected center.

    Datapoints are split, in sorted order, into blocks of ``ceil(n/k)``; the
    ``ell``-th member of each block selects the closest center not already
    chosen (ties go to the leftmost), read from
    :meth:`LineClusteringInstance.center_point_dists`.  Returns sorted center
    indices; fewer than ``k`` only when trailing blocks run out of datapoints.
    """
    n, kk, ell = line.n, line.k, line.ell
    if ell > n // kk:
        raise ValueError(f"ell={ell} exceeds floor(n/k)={n // kk}")
    block = -(-n // kk)
    d = line.center_point_dists()
    free = np.ones(len(line.centers), dtype=bool)
    for j in range(ell - 1, n, block)[:kk]:
        free[_nearest_free(d[:, j], free)] = False
    return _ids(~free)


def line_sweep_baseline(line: LineClusteringInstance) -> tuple[int, ...]:
    """Left-to-right blocks, each served by the nearest center at or right of it.

    Groups the sorted datapoints into blocks of ``ceil(n/k)`` and assigns each
    block the nearest unselected center at or to the right of its rightmost
    member (falling back to the overall nearest when none remains on the
    right), read from :meth:`LineClusteringInstance.center_point_dists`.  Kept
    only as a demonstrator: it can be arbitrarily unfair when centers do not
    coincide with datapoints.
    """
    n, kk = line.n, line.k
    block = -(-n // kk)
    d = line.center_point_dists()
    centers = np.array(line.centers)
    free = np.ones(len(centers), dtype=bool)
    for lo in range(0, n, block)[:kk]:
        last = min(lo + block, n) - 1
        right = free & (centers >= line.datapoints[last])
        free[_nearest_free(d[:, last], right if right.any() else free)] = False
    return _ids(~free)


def line_to_clustering(line: LineClusteringInstance) -> ClusteringInstance:
    """Materialize a line instance as a distance-matrix clustering instance."""
    coords = np.array(line.datapoints + line.centers, dtype=float)
    dist = np.abs(coords[:, None] - coords[None, :])
    n = line.n
    return ClusteringInstance(
        datapoints=np.arange(n),
        centers=np.arange(n, n + len(line.centers)),
        dist=Metric(dist),
        k=line.k,
    )


# ---------------------------------------------------------------------------
# Exact minimum-total-cost oracle
# ---------------------------------------------------------------------------


def exact_min_cost(instance: Instance) -> tuple[Solution, float]:
    """Brute-force minimum of total cost over all candidate subsets of size <= k.

    Ties prefer fewer stops, then the lexicographically smallest stop set.
    Past ``MAX_STOP_SETS`` sets it raises ``EnumerationGuardError`` up front.
    """
    best_cost, best_stops = INF, ()
    for block, routes in stop_set_costs(instance, range(instance.k + 1)):
        # fmin makes a NaN total INF, so, as in a loop of `<` tests, it never wins.
        totals = np.fmin(np.minimum(instance._d_ab, routes).sum(axis=1), INF)
        j = int(np.argmin(totals))
        if totals[j] < best_cost:
            best_cost, best_stops = float(totals[j]), block[j]
    return Solution(best_stops), best_cost

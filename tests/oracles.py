"""Independent brute-force oracles used to cross-check the library.

Everything here is written the slow, obvious way on purpose: coalitions are
enumerated explicitly rather than counted, and costs are recomputed with
plain loops, so these functions share no code path with the implementations
they check.

The sweep references at the end are the library's earlier loop forms of
``gc_trsp`` (one pass over every endpoint-to-stop radius), ``eca`` and
``hybrid`` (Python scans over pairs and agents at every trigger).  They
share only the cost kernel with the library, which ``naive_agent_cost``
checks on its own; the array sweeps must match them event for event.
``exact_min_cost_loop`` is likewise the earlier one-call-per-subset form of
``exact_min_cost``, and ``l_dictator_loop`` and ``line_sweep_loop`` the
earlier nearest-center loops of the two line rules, on raw coordinates.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from fairstops.algorithms import coverage_threshold
from fairstops.model import (
    Instance,
    RunTrace,
    Solution,
    TraceEvent,
    require_valid_structure,
    route_costs,
    solution_costs,
)

INF = math.inf


def naive_agent_cost(instance, i, stops) -> float:
    """Plain-loop re-derivation of an agent's cost under a stop set."""
    a, b = (int(x) for x in instance.endpoints[i])
    walk = float(instance.walk.dist[a, b])
    best = walk
    cand = instance.candidates
    ride = instance.transit.dist
    for y1 in stops:
        for y2 in stops:
            cost = (
                float(instance.walk.dist[a, cand[y1]])
                + float(ride[y1, y2])
                + float(instance.walk.dist[cand[y2], b])
            )
            best = min(best, cost)
    return best


def ratios_five_where(cy: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """The verifiers' earlier ratio table, each convention spelled out:
    ``0/0 -> 1``, ``x/0 -> inf``, ``x/inf -> 0``, ``inf/inf -> 1``."""
    cy, ct = np.broadcast_arrays(np.asarray(cy, dtype=float), np.asarray(ct, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = cy / ct
    out = np.where(ct == 0.0, np.where(cy == 0.0, 1.0, INF), out)
    return np.where(np.isinf(ct), np.where(np.isinf(cy), 1.0, 0.0), out)


def _ratio(cy: float, ct: float) -> float:
    if ct == 0.0:
        return 1.0 if cy == 0.0 else INF
    if math.isinf(ct):
        return 1.0 if math.isinf(cy) else 0.0
    return cy / ct


def brute_jr_factor(instance, stops) -> float:
    """Tight pair-representation factor by explicit coalition enumeration.

    The best blocking factor over coalitions of size >= t is attained by some
    coalition of size exactly t (members only dilute the minimum), so
    enumerating size-t coalitions is exhaustive.
    """
    n, m, k = instance.n, instance.m, instance.k
    thr = -(-2 * n // k)
    if n == 0 or thr > n:
        return 1.0
    cy = [naive_agent_cost(instance, i, stops) for i in range(n)]
    best = 1.0
    for pair in itertools.combinations(range(m), 2):
        ct = [naive_agent_cost(instance, i, pair) for i in range(n)]
        for coalition in itertools.combinations(range(n), thr):
            best = max(best, min(_ratio(cy[i], ct[i]) for i in coalition))
    return best


def brute_core_factor(instance, stops, alpha) -> float:
    """Tight core factor by explicit enumeration of coalitions and targets."""
    from fractions import Fraction

    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    n, m, k = instance.n, instance.m, instance.k
    if n == 0:
        return 1.0
    cy = [naive_agent_cost(instance, i, stops) for i in range(n)]
    best = 1.0
    max_size = min(m, (k * q) // p)
    for size in range(1, max_size + 1):
        need = -(-p * size * n // (k * q))
        if need > n:
            continue
        for target in itertools.combinations(range(m), size):
            ct = [naive_agent_cost(instance, i, target) for i in range(n)]
            for coalition in itertools.combinations(range(n), need):
                best = max(best, min(_ratio(cy[i], ct[i]) for i in coalition))
    return best


def brute_pf_factor(clustering, centers) -> float:
    """Tight proportional-fairness factor by explicit group enumeration."""
    n, m, k = clustering.n, clustering.m, clustering.k
    thr = -(-n // k)
    if n == 0 or thr > n:
        return 1.0
    d = clustering.dist.dist[np.ix_(clustering.datapoints, clustering.centers)]
    dP = [min(float(d[i, c]) for c in centers) if centers else INF for i in range(n)]
    best = 1.0
    for c in range(m):
        for group in itertools.combinations(range(n), thr):
            best = max(best, min(_ratio(dP[i], float(d[i, c])) for i in group))
    return best


def exact_min_cost_loop(instance) -> tuple[Solution, float]:
    """Minimum total cost over every stop set of size <= k, one
    ``solution_costs`` call per set; ties prefer fewer stops, then the
    lexicographically smallest set."""
    require_valid_structure(instance)
    best_cost, best_stops = INF, ()
    for size in range(min(instance.k, instance.m) + 1):
        for stops in itertools.combinations(range(instance.m), size):
            cost = float(solution_costs(instance, stops).sum())
            if cost < best_cost:
                best_cost, best_stops = cost, stops
    return Solution(best_stops), best_cost


# ---------------------------------------------------------------------------
# Loop forms of the three sweeps
# ---------------------------------------------------------------------------


def gc_trsp_radius_pass(instance: Instance) -> tuple[Solution, RunTrace]:
    """Greedy capture over the agents' endpoints.

    Grows one radius ``r``; at each trigger, endpoints inside an already-open
    ball are absorbed first, then every candidate whose ball holds at least
    ``ceil(2n/k)`` active endpoints is opened.  Equivalent, event for event,
    to :func:`fairstops.greedy_capture` on the induced clustering instance.
    """
    require_valid_structure(instance)
    n, m, k = instance.n, instance.m, instance.k
    thr = coverage_threshold(n, k)
    d = instance.walk.dist[np.ix_(instance.endpoints.reshape(-1), instance.candidates)]
    active = set(range(2 * n))
    open_order: list[int] = []
    is_open = [False] * m
    events: list[TraceEvent] = []
    radii = np.unique(d[np.isfinite(d)]) if d.size else np.empty(0)
    for r in radii.tolist():
        if not active:
            break
        if open_order:
            caught = sorted(e for e in active if min(d[e, c] for c in open_order) <= r)
            if caught:
                active.difference_update(caught)
                events.append(TraceEvent(radius=r, endpoints=tuple(caught)))
        progress = True
        while progress and active:
            progress = False
            for c in range(m):
                if is_open[c]:
                    continue
                ball = sorted(e for e in active if d[e, c] <= r)
                if len(ball) >= thr and thr > 0:
                    is_open[c] = True
                    open_order.append(c)
                    active.difference_update(ball)
                    events.append(TraceEvent(radius=r, opened=(c,), endpoints=tuple(ball)))
                    progress = True
    if active:
        events.append(TraceEvent(radius=INF, endpoints=tuple(sorted(active))))
    return Solution.of(open_order), RunTrace(tuple(events))


def eca_loop(instance: Instance) -> tuple[Solution, RunTrace]:
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
    require_valid_structure(instance)
    n, m, k = instance.n, instance.m, instance.k
    thr = coverage_threshold(n, k)
    pairs = list(itertools.combinations(range(m), 2))
    pair_costs = {pair: solution_costs(instance, pair) for pair in pairs}
    active = set(range(n))
    chosen: list[int] = []
    chosen_set: set[int] = set()
    events: list[TraceEvent] = []
    r = 0.0
    while active:
        costs = solution_costs(instance, chosen)
        drop = sorted(i for i in active if costs[i] <= r)
        if drop:
            active.difference_update(drop)
            events.append(TraceEvent(radius=r, agents=tuple(drop)))
        opened_any = True
        while opened_any and active:
            opened_any = False
            for pair in pairs:
                extra = tuple(sorted(c for c in pair if c not in chosen_set))
                if not extra or len(chosen) + len(extra) > k:
                    continue
                covered = sorted(i for i in active if pair_costs[pair][i] <= r)
                if len(covered) >= thr and thr > 0:
                    chosen.extend(extra)
                    chosen_set.update(extra)
                    active.difference_update(covered)
                    events.append(TraceEvent(radius=r, opened=extra, agents=tuple(covered)))
                    opened_any = True
                    break
        if not active:
            break
        costs = solution_costs(instance, chosen)
        triggers = [float(costs[i]) for i in active if math.isfinite(costs[i])]
        if len(active) >= thr > 0:
            act = sorted(active)
            for pair in pairs:
                extra = [c for c in pair if c not in chosen_set]
                if not extra or len(chosen) + len(extra) > k:
                    continue
                tc = np.sort(pair_costs[pair][act])
                t = float(tc[thr - 1])
                if math.isfinite(t):
                    triggers.append(t)
        if not triggers:
            events.append(TraceEvent(radius=INF, agents=tuple(sorted(active))))
            break
        # A retirement trigger can sit at or below r after openings; revisit.
        r = max(r, min(triggers))
    return Solution.of(chosen), RunTrace(tuple(events))


def _bump_until(value: float, lam: float) -> float:
    # Smallest r with lam*r >= value under float rounding.
    r = value / lam
    while lam * r < value:
        r = math.nextafter(r, INF)
    return r


def hybrid_loop(instance: Instance, lam: float) -> tuple[Solution, RunTrace]:
    """One sweep that interleaves pair openings and single-stop openings.

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
    :func:`eca_loop`): an agent retired for a cheap walk could sit arbitrarily far
    from every selected stop, which would void the sweep's distance guarantee
    on the induced clustering and with it the core guarantee.  Costs reported
    for the returned placement still include walking.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    require_valid_structure(instance)
    n, m, k = instance.n, instance.m, instance.k
    thr = coverage_threshold(n, k)
    pairs = list(itertools.combinations(range(m), 2))
    pair_costs = {pair: route_costs(instance, pair) for pair in pairs}
    d = instance.walk.dist[np.ix_(instance.endpoints.reshape(-1), instance.candidates)]
    ep_active = [True] * (2 * n)
    chosen: list[int] = []
    chosen_set: set[int] = set()
    events: list[TraceEvent] = []
    r = 0.0

    def fully_active(i: int) -> bool:
        return ep_active[2 * i] and ep_active[2 * i + 1]

    def dist_to_sel(e: int) -> float:
        if not chosen:
            return INF
        return min(d[e, c] for c in chosen)

    def within_gc(dist: float, radius: float) -> bool:
        return dist <= lam * radius if lam > 0.0 else dist <= 0.0

    def retire_endpoints(radius: float) -> None:
        gone = sorted(
            e for e in range(2 * n) if ep_active[e] and within_gc(dist_to_sel(e), radius)
        )
        if gone:
            for e in gone:
                ep_active[e] = False
            events.append(TraceEvent(radius=radius, endpoints=tuple(gone)))

    while any(ep_active):
        costs = route_costs(instance, chosen)
        gone_agents = sorted(i for i in range(n) if fully_active(i) and costs[i] <= r)
        if gone_agents:
            for i in gone_agents:
                ep_active[2 * i] = ep_active[2 * i + 1] = False
            events.append(TraceEvent(radius=r, agents=tuple(gone_agents)))
        retire_endpoints(r)
        opened_any = True
        while opened_any:
            opened_any = False
            for pair in pairs:
                extra = tuple(sorted(c for c in pair if c not in chosen_set))
                if not extra or len(chosen) + len(extra) > k:
                    continue
                covered = sorted(
                    i for i in range(n) if fully_active(i) and pair_costs[pair][i] <= r
                )
                if len(covered) >= thr and thr > 0:
                    chosen.extend(extra)
                    chosen_set.update(extra)
                    for i in covered:
                        ep_active[2 * i] = ep_active[2 * i + 1] = False
                    events.append(TraceEvent(radius=r, opened=extra, agents=tuple(covered)))
                    opened_any = True
                    break
        # Endpoints now covered by pair-opened stops must not pad the balls
        # of unrelated single candidates below.
        retire_endpoints(r)
        opened_any = True
        while opened_any:
            opened_any = False
            for c in range(m):
                if c in chosen_set or len(chosen) + 1 > k:
                    continue
                ball = sorted(e for e in range(2 * n) if ep_active[e] and within_gc(d[e, c], r))
                if len(ball) >= thr and thr > 0:
                    chosen.append(c)
                    chosen_set.add(c)
                    for e in ball:
                        ep_active[e] = False
                    events.append(TraceEvent(radius=r, opened=(c,), endpoints=tuple(ball)))
                    opened_any = True
                    break
        if not any(ep_active):
            break
        costs = route_costs(instance, chosen)
        triggers: list[float] = []
        for i in range(n):
            if fully_active(i) and math.isfinite(costs[i]):
                triggers.append(float(costs[i]))
        if lam > 0.0:
            for e in range(2 * n):
                if ep_active[e]:
                    de = dist_to_sel(e)
                    if math.isfinite(de):
                        triggers.append(_bump_until(de, lam))
        live = [i for i in range(n) if fully_active(i)]
        if len(live) >= thr > 0:
            for pair in pairs:
                extra = [c for c in pair if c not in chosen_set]
                if not extra or len(chosen) + len(extra) > k:
                    continue
                tc = np.sort(pair_costs[pair][live])
                t = float(tc[thr - 1])
                if math.isfinite(t):
                    triggers.append(t)
        live_eps = [e for e in range(2 * n) if ep_active[e]]
        if lam > 0.0 and len(live_eps) >= thr > 0:
            for c in range(m):
                if c in chosen_set or len(chosen) + 1 > k:
                    continue
                col = np.sort(d[live_eps, c])
                q = float(col[thr - 1])
                if math.isfinite(q):
                    triggers.append(_bump_until(q, lam))
        if not triggers:
            remaining = tuple(e for e in range(2 * n) if ep_active[e])
            events.append(TraceEvent(radius=INF, endpoints=remaining))
            break
        # A retirement trigger can sit at or below r after openings; revisit.
        r = max(r, min(triggers))
    return Solution.of(chosen), RunTrace(tuple(events))


# ---------------------------------------------------------------------------
# Loop forms of the two line rules
# ---------------------------------------------------------------------------


def l_dictator_loop(line) -> tuple[int, ...]:
    """The ell-th datapoint of each ``ceil(n/k)`` block picks the nearest
    center not yet picked, by ``abs(x - c)``, ties to the leftmost."""
    n, kk, ell = line.n, line.k, line.ell
    block = -(-n // kk)
    picked: list[int] = []
    for b in range(kk):
        j = b * block + (ell - 1)
        if j >= n:
            break
        x = line.datapoints[j]
        best: tuple[float, int] | None = None
        for ci, c in enumerate(line.centers):
            if ci in picked:
                continue
            dd = abs(x - c)
            if best is None or dd < best[0]:
                best = (dd, ci)
        if best is None:
            break
        picked.append(best[1])
    return tuple(sorted(picked))


def line_sweep_loop(line) -> tuple[int, ...]:
    """Each ``ceil(n/k)`` block takes the first free center at or right of
    its last member, else the nearest free one, ties to the leftmost."""
    n, kk = line.n, line.k
    block = -(-n // kk)
    picked: list[int] = []
    for b in range(kk):
        lo = b * block
        if lo >= n:
            break
        boundary = line.datapoints[min((b + 1) * block, n) - 1]
        choice: int | None = None
        for ci, c in enumerate(line.centers):
            if ci in picked:
                continue
            if c >= boundary:
                choice = ci
                break
        if choice is None:
            best: tuple[float, int] | None = None
            for ci, c in enumerate(line.centers):
                if ci in picked:
                    continue
                dd = abs(boundary - c)
                if best is None or dd < best[0]:
                    best = (dd, ci)
            if best is None:
                break
            choice = best[1]
        picked.append(choice)
    return tuple(sorted(picked))

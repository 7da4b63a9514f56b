"""Exact verification of group fairness with explicit deviation witnesses.

Three properties are checked, all built on the same question: is there a
coalition, large enough in proportion to the budget it covets, whose members
would *all* cut their cost by more than a factor ``beta`` by deviating to an
alternative stop set?

* pair representation ("JR"): coalitions of at least ``ceil(2n/k)`` agents
  deviating to a pair of stops;
* the size-relaxed core: coalitions of at least ``alpha * |T| * n / k``
  agents deviating to any stop set ``T``;
* proportional fairness ("PF") on clustering instances: groups of at least
  ``ceil(n'/k')`` datapoints deviating to a single center.

All of them run one blocking search (:func:`_search`) over deviation
targets taken in blocks: stop sets of one size, in size order and then
lexicographic order, each block with its ``(targets, agents)`` route-cost
table, uncapped by the walk (:func:`~fairstops.model.stop_set_costs` says why).
Every target's row is read from the instance's tables: single-stop and pair
blocks are read-only row views of its one-stop and pair route tables, and a
set of three or more stops is the elementwise minimum of its pairs' rows, so
:func:`~fairstops.model.route_costs` prices only the placement under test
(and the integer program's witness, one stop set); each block costs one
ratio pass.  The placement itself is priced once: every verifier here reads
its costs through :func:`_costs`, and the instance keeps the last placement
priced with its read-only cost row, so checking JR, the core (either
backend) and :func:`improving_pairs` on one placement prices it once.
Tight factors are computed exactly by order statistics over the finitely
many cost ratios rather than by bisection: for each deviation target the
factor it can block is the ``need``-th largest ratio
``cost_under_solution / cost_under_target``, ``need`` being the coalition
size the target's size demands, and the report's factor is the maximum over
targets.  Ratio conventions: ``0/0 -> 1``, ``x/0 -> inf`` for ``x > 0``,
``x/inf -> 0``, ``inf/inf -> 1``.

Boundary convention: an agent reaches ``beta`` on a target when it strictly
improves there (its ratio ``r`` exceeds 1) and ``r >= beta * (1 - RTOL)``.
The rule compares ratios only, so it reads the same at every distance scale,
and a witness coalition is every agent that reaches the witness's factor (or
the ``beta`` asked for).  A deviation whose ratios equal ``beta`` exactly
therefore *does* witness a violation at ``beta``; constructions are
routinely tight at their stated factor and would otherwise slip through on
float noise.  A violation at ``beta`` exists exactly when the tight factor
exceeds 1 and reaches ``beta`` under the same rule.

The core checker has two interchangeable backends: exhaustive enumeration of
deviation targets (the reference) and a 0/1 integer program solved by
branch-and-bound, cross-checked against each other in the tests.  Each
integer-program probe is first screened by the pair reach counts (how many
agents each stop pair serves at the ``beta`` probed): a target of ``t``
stops holds ``C(t, 2)`` pairs, so its coalition is at most the sum of the
``C(t, 2)`` largest counts, and a probe no admissible ``t`` can satisfy is
settled without a solve.  Only the integer program needs scipy, and
:func:`milp` imports it on its first solve, so importing the package, every
other check and every probe the counts settle leave scipy unloaded; the
command line only checks up front that scipy can be found.

Both core backends refuse an instance that breaks the walk bound
(:func:`~fairstops.model.walk_bound_problem`): the integer program and its
screen leave single-stop targets out, which is exact only when no agent
gains on a single stop.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algorithms import coverage_threshold
from .model import (
    INF,
    RTOL,
    ClusteringInstance,
    Instance,
    as_stops,
    route_costs,
    solution_costs,
    stop_set_costs,
    walk_bound_problem,
)

@dataclass(frozen=True)
class Witness:
    """A deviation certificate: who deviates, where to, and the factor it blocks."""

    coalition: tuple[int, ...]
    deviation: tuple[int, ...]
    factor: float


@dataclass(frozen=True)
class FairnessReport:
    """Tight approximation factor of one property, with an attaining witness."""

    prop: str
    alpha: Fraction | None
    factor: float
    witness: Witness | None


# ---------------------------------------------------------------------------
# The blocking search
# ---------------------------------------------------------------------------


def _ratios(cy: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """Improvement ratios cy/ct under the extended-real conventions above;
    ``cy`` broadcasts against a ``(targets, agents)`` table ``ct``.  On
    nonnegative costs IEEE division already gives ``x/0 -> inf``,
    ``x/inf -> 0`` and ``inf/x -> inf`` for finite ``x``; its only NaN quotients, 0/0 and
    inf/inf, have equal operands, and every equal pair reads 1.  One
    division; only when it leaves a NaN are the equal entries set in place
    (a finite nonzero ``x/x`` is 1 already, and a NaN operand equals
    nothing).  The result is a fresh array that the caller owns."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(cy, ct)
    if np.isnan(r).any():
        np.copyto(r, 1.0, where=cy == ct)
    return r


def _reaches(r, beta: float):
    """The boundary rule: the ratio is a strict gain that reaches ``beta``."""
    return (r > 1.0) & (r >= beta * (1.0 - RTOL))


def _check_factor(value: float, name: str) -> float:
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _check_budget(chosen: tuple[int, ...], k: int, noun: str = "stops") -> tuple[int, ...]:
    """The one budget rule of every verifier: ``chosen`` holds at most ``k``."""
    if len(chosen) > k:
        raise ValueError(f"{len(chosen)} {noun} exceed budget k={k}")
    return chosen


def _costs(instance: Instance, solution) -> np.ndarray:
    """The agents' costs under a placement within the budget, as a read-only
    row shared by every verifier call on that placement.

    The instance keeps the last placement priced and its row (``_priced``);
    a call on another placement prices it and replaces the entry, and a
    refused placement raises before the entry is touched.  The entry is one
    tuple replaced whole, so concurrent calls each read a matching pair."""
    stops = _check_budget(as_stops(solution), instance.k)
    priced = instance._priced
    if priced is None or priced[0] != stops:
        costs = solution_costs(instance, stops)
        costs.flags.writeable = False
        priced = stops, costs
        object.__setattr__(instance, "_priced", priced)
    return priced[1]


def _search(cy: np.ndarray, blocks, needs: dict[int, int],
            beta: float | None = None) -> Witness | None:
    """The first target, in block order, that blocks the costs ``cy``.

    ``blocks`` yields ``(targets, costs)`` tables, and ``needs`` maps a
    target size to its coalition size ``need``.  Without ``beta`` this is
    the first target attaining the tight factor (the largest ``need``-th
    largest ratio, if above 1); with one, the first target on which at least
    ``need`` agents reach ``beta``.  The witness coalition is every agent
    reaching that factor, or ``beta``.

    Each block's ratio table is fresh and is partitioned in place; the
    witness's ratios are recomputed from its row of costs, so no ratio
    table outlives its block.
    """
    found = None
    for targets, costs in blocks:
        need = needs[targets.shape[1]]
        ratios = _ratios(cy, costs)
        ratios.partition(-need, axis=1)
        kth = ratios[:, -need]
        if beta is None:
            j = int(np.argmax(kth))
            if kth[j] > (found[2] if found else 1.0):
                # Copies, so that no view keeps this block alive once the
                # search moves on.
                found = targets[j].copy(), costs[j].copy(), float(kth[j])
            continue
        hit = _reaches(kth, beta).nonzero()[0]
        if hit.size:
            j = hit[0]
            found = targets[j], costs[j], float(kth[j])
            break
    if found is None:
        return None
    target, cost, factor = found
    coalition = _reaches(_ratios(cy, cost), factor if beta is None else beta).nonzero()[0]
    return Witness(tuple(coalition.tolist()), tuple(target.tolist()), factor)


def _report(prop: str, alpha: Fraction | None, witness: Witness | None) -> FairnessReport:
    return FairnessReport(prop, alpha, witness.factor if witness else 1.0, witness)


def _as_alpha(alpha) -> Fraction:
    try:
        frac = Fraction(alpha)
    except (OverflowError, ValueError, ZeroDivisionError):  # inf, nan and 1/0 have no ratio
        frac = None
    if frac is None or frac < 1:
        raise ValueError(f"alpha must be >= 1 and finite, got {alpha}")
    return frac


# ---------------------------------------------------------------------------
# Pair representation (JR)
# ---------------------------------------------------------------------------


def improving_pairs(instance: Instance, agent_index: int, solution, beta: float = 1.0):
    """All stop pairs on which this agent reaches a factor-``beta`` gain.

    Returns the unordered pairs ``(c1, c2)``, ``c1 < c2``, in lexicographic
    order, under the module's boundary rule.
    """
    _check_factor(beta, "beta")
    if not 0 <= (agent_index := operator.index(agent_index)) < instance.n:
        raise IndexError(f"agent index {agent_index} out of range for n={instance.n}")
    cy = _costs(instance, solution)[agent_index]
    pairs, routes = instance._pair_table
    reach = _reaches(_ratios(cy, routes[:, agent_index]), beta)
    return [tuple(pair) for pair in pairs[reach].tolist()]


def _jr(instance: Instance, solution, beta: float | None) -> Witness | None:
    cy = _costs(instance, solution)
    need = coverage_threshold(instance.n, instance.k)
    needs = {2: need} if 0 < need <= instance.n else {}
    return _search(cy, stop_set_costs(instance, needs), needs, beta)


def jr_violation(instance: Instance, solution, beta: float = 1.0) -> Witness | None:
    """First stop pair (in lexicographic order) blocking the solution at ``beta``.

    A pair ``T`` blocks when at least ``ceil(2n/k)`` agents all reach a
    factor-``beta`` gain on it.  Returns ``None`` when the solution provides
    ``beta``-approximate pair representation.
    """
    return _jr(instance, solution, _check_factor(beta, "beta"))


def jr_ratio(instance: Instance, solution) -> FairnessReport:
    """Tight pair-representation factor of a solution, with an attaining witness.

    For every pair ``T`` the blockable factor is the ``ceil(2n/k)``-th largest
    ratio ``c_i(Y)/c_i(T)``; the report's factor is the maximum over pairs
    (at least 1).  :func:`jr_violation` finds a witness at ``beta`` exactly
    when the factor exceeds 1 and ``factor >= beta * (1 - RTOL)``.
    """
    return _report("JR", None, _jr(instance, solution, None))


# ---------------------------------------------------------------------------
# Size-relaxed core
# ---------------------------------------------------------------------------


def core_violation(
    instance: Instance,
    solution,
    alpha,
    beta: float = 1.0,
    backend: str = "enumerate",
) -> Witness | None:
    """A stop set ``T`` and coalition blocking the (alpha, beta)-core, if any.

    A coalition ``S`` blocks with ``T`` when ``|S| * k >= alpha * |T| * n``
    (checked by exact integer cross-multiplication with rational ``alpha``)
    and every member reaches a factor-``beta`` gain on ``T``.  Only
    ``|T| <= floor(k/alpha)`` can ever satisfy the size requirement, so the
    enumeration stops there; past ``MAX_STOP_SETS`` (2**24) such targets it
    raises ``EnumerationGuardError`` before listing any.  The ``"milp"``
    backend solves an equivalent 0/1 integer program, with no such limit.
    Both raise ``ValueError`` on an instance that breaks the walk bound.
    """
    return _core(instance, solution, alpha, _check_factor(beta, "beta"), backend)


def core_ratio(
    instance: Instance, solution, alpha, backend: str = "enumerate"
) -> FairnessReport:
    """Tight (alpha, beta)-core factor of a solution, with an attaining witness.

    For each admissible target ``T`` the blockable factor is the ``s``-th
    largest ratio ``c_i(Y)/c_i(T)`` where ``s`` is the smallest coalition size
    satisfying ``s * k >= alpha * |T| * n``; the report's factor is the
    maximum over targets.  Reported as ``inf`` when some target serves a
    blocking coalition at zero cost while the solution does not.  Enumeration
    is limited, and a broken walk bound refused, as in :func:`core_violation`.
    """
    return _core(instance, solution, alpha, None, backend)


def _core(instance: Instance, solution, alpha, beta: float | None, backend: str):
    """:func:`core_violation` at ``beta``, or :func:`core_ratio`'s report
    when ``beta`` is ``None``."""
    alpha = _as_alpha(alpha)
    if backend not in ("enumerate", "milp"):
        raise ValueError(f"unknown backend {backend!r}")
    if problem := walk_bound_problem(instance):
        raise ValueError(f"the core backends need the walk bound: {problem}")
    n, m, k = instance.n, instance.m, instance.k
    cy = _costs(instance, solution)
    # The size rule |S| * k >= alpha * |T| * n, as the least |S| per |T|.
    p, q = alpha.numerator, alpha.denominator
    needs = {size: need for size in range(1, min(m, k * q // p) + 1)
             if 0 < (need := -(-p * size * n // (k * q))) <= n}
    if backend == "milp":
        return _core_milp(instance, cy, alpha, needs, beta)
    witness = _search(cy, stop_set_costs(instance, needs), needs, beta)
    return witness if beta is not None else _report("CORE", alpha, witness)


# ---------------------------------------------------------------------------
# Core testing as a 0/1 integer program (branch-and-bound backend)
# ---------------------------------------------------------------------------


def milp(c, constraints, integrality, bounds):
    """``scipy.optimize.milp`` on ``constraints = (A, lo, hi)`` and
    ``bounds = (lb, ub)``; scipy is imported on the first call only."""
    import scipy.optimize as optimize

    return optimize.milp(
        c=c,
        constraints=optimize.LinearConstraint(*constraints),
        integrality=integrality,
        bounds=optimize.Bounds(*bounds),
    )


def _core_violation_milp(
    instance, cy, alpha: Fraction, needs: dict[int, int], pairs: np.ndarray, reach: np.ndarray
) -> Witness | None:
    """Blocking-coalition search as a 0/1 program: maximize the coalition size
    subject to every member holding an improving pair inside the chosen stop
    set and the coalition outweighing ``alpha * |T| * n / k``.  ``reach`` is
    the ``(pairs, agents)`` mask of the boundary rule at the ``beta`` tested,
    and ``needs`` is :func:`_core`'s size rule.  A positive optimum is
    exactly a core violation.

    Before the program is built, an exact screen settles the probe from the
    reach counts alone.  A positive optimum needs a target of ``t >= 2``
    stops, whose coalition holds at most ``min(|served|, sum of the C(t, 2)
    largest pair reach counts)`` agents; when that bound is below
    ``needs[t]`` for every such ``t``, the optimum is 0 and ``None`` is
    returned without a solve.  Probes the screen leaves open solve the same
    program as before."""
    n, m, k = instance.n, instance.m, instance.k
    p, q = alpha.numerator, alpha.denominator
    # Single-stop targets are left out: _core refuses an instance that breaks
    # the walk bound, so a route boarding and alighting at one stop never
    # beats the direct walk, and no agent improves on one stop.
    counts = np.count_nonzero(reach, axis=1)
    used = np.flatnonzero(counts)
    if not used.size:
        return None
    served = reach.any(axis=0)
    # The screen (see above); tops[j] sums the j largest pair reach counts.
    tops = [0] + np.sort(counts)[::-1].cumsum().tolist()
    u, s = len(used), int(np.count_nonzero(served))
    if not any(min(s, tops[min(t * (t - 1) // 2, len(tops) - 1)]) >= need
               for t, need in needs.items() if t >= 2):
        return None
    # Variables: x_i (agents), s_c (stops), y_j (pairs actually improving
    # someone).  Rows, each at most 0: x_i <= the sum of the y_j reaching
    # agent i, for every agent some pair reaches; y_j <= s_a and y_j <= s_b
    # for pair j = (a, b); and the size rule p * n * |T| <= k * q * |S|.
    rows = np.block([
        [np.eye(n)[served], np.zeros((s, m)), np.where(reach[np.ix_(used, served)].T, -1.0, 0.0)],
        [np.zeros((2 * u, n)), 0.0 - np.eye(m)[pairs[used].ravel()],
         np.repeat(np.eye(u), 2, axis=0)],
        [np.full((1, n), -k * q), np.full((1, m), p * n), np.zeros((1, u))],
    ])
    cost = np.concatenate([np.full(n, -1.0), np.zeros(m + u)])
    upper = np.concatenate([served, np.ones(m + u)])
    res = milp(
        c=cost,
        constraints=(rows, np.full(len(rows), -np.inf), np.zeros(len(rows))),
        integrality=np.ones(n + m + u),
        bounds=(np.zeros(n + m + u), upper),
    )
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"core MILP did not solve: {res.message}")
    if -res.fun < 0.5:
        return None
    coalition = tuple(np.flatnonzero(res.x[:n] > 0.5).tolist())
    target = np.flatnonzero(res.x[n:n + m] > 0.5)
    blocked = _search(cy, [(target[None], route_costs(instance, target)[None])], needs)
    return Witness(coalition, tuple(target.tolist()), blocked.factor)


def _core_milp(instance, cy, alpha: Fraction, needs: dict[int, int], beta: float | None):
    """The integer program at ``beta``; without one, the tight core factor by
    a search over the finite ladder of realizable pair ratios (every
    blockable factor is one of them).  The ``(pairs, agents)`` ratios are
    read off the instance's pair table."""
    pairs, routes = instance._pair_table
    ratios = _ratios(cy, routes)

    def probe(reach: np.ndarray) -> Witness | None:
        return _core_violation_milp(instance, cy, alpha, needs, pairs, reach)

    if beta is not None:
        return probe(_reaches(ratios, beta))
    # Violations exist on a prefix of the ascending ladder; find its last rung.
    # The lowest rung goes first, so a fair placement costs at most one solve,
    # none when the reach counts settle it, and no sort of the ladder.  Every
    # strict gain reaches the least one, so the gain mask is that rung's reach.
    gain = ratios > 1.0
    gains = ratios[gain]
    witness = probe(gain) if gains.size else None
    if witness is None:
        return FairnessReport("CORE", alpha, 1.0, None)
    ladder = np.unique(gains).tolist()
    factor = ladder[0]
    lo, hi = 1, len(ladder) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        w = probe(_reaches(ratios, ladder[mid]))
        if w is not None:
            factor, witness = ladder[mid], w
            lo = mid + 1
        else:
            hi = mid - 1
    return FairnessReport("CORE", alpha, factor, witness)


# ---------------------------------------------------------------------------
# Proportional fairness on clustering instances
# ---------------------------------------------------------------------------


def _pf(clustering: ClusteringInstance, centers, rho: float | None) -> Witness | None:
    """PF as one block of single-center targets: the clustering's stops-first
    table is the target cost table, and each datapoint's cost under the
    selection is its column minimum over the chosen rows (INF when none)."""
    chosen = as_stops(centers)
    if chosen and (chosen[0] < 0 or chosen[-1] >= clustering.m):
        raise ValueError("center index out of range")
    _check_budget(chosen, clustering.k, "centers")
    if clustering.n == 0:
        return None
    d = clustering.center_point_dists()
    thr = -(-clustering.n // clustering.k)
    return _search(d[list(chosen)].min(axis=0, initial=INF),
                   [(np.arange(clustering.m)[:, None], d)], {1: thr}, rho)


def pf_violation(clustering: ClusteringInstance, centers, rho: float = 1.0) -> Witness | None:
    """First center blocking proportional fairness at factor ``rho``.

    Blocks when at least ``ceil(n'/k')`` datapoints would each get at least
    ``rho`` times closer to it than to their nearest selected center.
    """
    return _pf(clustering, centers, _check_factor(rho, "rho"))


def pf_ratio(clustering: ClusteringInstance, centers) -> FairnessReport:
    """Tight proportional-fairness factor of a center selection."""
    return _report("PF", None, _pf(clustering, centers, None))

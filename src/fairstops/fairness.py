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

Tight factors are computed exactly by order statistics over the finitely
many cost ratios rather than by bisection: for each deviation target the
factor it can block is the threshold-count-th largest ratio
``cost_under_solution / cost_under_target``, and the report's factor is the
maximum over targets.  Ratio conventions: ``0/0 -> 1``, ``x/0 -> inf`` for
``x > 0``, ``x/inf -> 0``, ``inf/inf -> 1``.

Boundary convention: a witness coalition collects every agent who genuinely
improves (``c_i(T) < c_i(Y) - TOL``) and whose improvement factor reaches
``beta`` up to tolerance (``beta * c_i(T) <= c_i(Y) + TOL``).  A deviation
whose ratios equal ``beta`` exactly therefore *does* witness a violation at
``beta``; constructions are routinely tight at their stated factor and would
otherwise slip through on float noise.

The core checker has two interchangeable backends: exhaustive enumeration of
deviation targets (the reference) and a 0/1 integer program solved by
branch-and-bound, cross-checked against each other in the tests.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .algorithms import EnumerationGuardError, coverage_threshold
from .model import (
    INF,
    TOL,
    ClusteringInstance,
    Instance,
    agent_cost,
    as_stops,
    solution_costs,
)

#: Default cap on the candidate count for exhaustive core enumeration.
CORE_GUARD_M = 24

#: Environment variable overriding :data:`CORE_GUARD_M`.
CORE_GUARD_ENV = "FAIRSTOPS_CORE_GUARD_M"


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
# Shared ratio machinery
# ---------------------------------------------------------------------------


def _ratios(cy: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """Improvement ratios cy/ct under the extended-real conventions above."""
    cy = np.asarray(cy, dtype=float)
    ct = np.asarray(ct, dtype=float)
    out = np.empty_like(cy)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(cy, ct, out=out)
    zero = ct == 0.0
    out[zero] = np.where(cy[zero] == 0.0, 1.0, INF)
    tinf = np.isinf(ct) & ~zero
    out[tinf] = np.where(np.isinf(cy[tinf]), 1.0, 0.0)
    return out


def _kth_largest(values: np.ndarray, t: int) -> float:
    return float(np.partition(values, len(values) - t)[len(values) - t])


def _improvers(cy: np.ndarray, ct: np.ndarray, beta: float) -> list[int]:
    """Agents who strictly improve and whose improvement factor reaches beta."""
    out = []
    for i in range(len(cy)):
        y, t = float(cy[i]), float(ct[i])
        if not t < y - TOL:
            continue
        if t == 0.0 or beta * t <= y + TOL:
            out.append(i)
    return out


def _block_factor(cy: np.ndarray, ct: np.ndarray, count: int) -> float:
    """Largest beta this deviation can block: the count-th largest ratio."""
    if count <= 0 or count > len(cy):
        return 1.0
    return _kth_largest(_ratios(cy, ct), count)


def _core_guard_limit() -> int:
    raw = os.environ.get(CORE_GUARD_ENV)
    return int(raw) if raw else CORE_GUARD_M


def _as_alpha(alpha) -> Fraction:
    frac = Fraction(alpha)
    if frac < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    return frac


# ---------------------------------------------------------------------------
# Pair representation (JR)
# ---------------------------------------------------------------------------


def improving_pairs(instance: Instance, agent_index: int, solution, beta: float = 1.0):
    """All stop pairs to which this agent deviates with a factor-beta gain.

    Returns the unordered pairs ``(c1, c2)``, ``c1 < c2``, with
    ``beta * c_i(pair) < c_i(solution) - TOL``.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    cy = agent_cost(instance, agent_index, solution)
    pairs = list(itertools.combinations(range(instance.m), 2))
    # One (pairs, agents) table instead of one full cost vector per pair.
    table = solution_costs(instance, np.array(pairs, dtype=int).reshape(-1, 2))
    out: list[tuple[int, int]] = []
    for pair, ct in zip(pairs, table[:, agent_index].tolist()):
        if ct == 0.0:
            if cy > TOL:
                out.append(pair)
        elif math.isfinite(ct) and beta * ct < cy - TOL:
            out.append(pair)
    return out


def jr_violation(instance: Instance, solution, beta: float = 1.0) -> Witness | None:
    """First stop pair (in lexicographic order) blocking the solution at ``beta``.

    A pair ``T`` blocks when at least ``ceil(2n/k)`` agents all improve on it
    by more than factor ``beta``.  Returns ``None`` when the solution provides
    ``beta``-approximate pair representation.
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    stops = as_stops(solution)
    n, k = instance.n, instance.k
    thr = coverage_threshold(n, k)
    if n == 0 or thr == 0:
        return None
    cy = solution_costs(instance, stops)
    for pair in itertools.combinations(range(instance.m), 2):
        ct = solution_costs(instance, pair)
        coalition = _improvers(cy, ct, beta)
        if len(coalition) >= thr:
            return Witness(tuple(coalition), pair, _block_factor(cy, ct, thr))
    return None


def jr_ratio(instance: Instance, solution) -> FairnessReport:
    """Tight pair-representation factor of a solution, with an attaining witness.

    For every pair ``T`` the blockable factor is the ``ceil(2n/k)``-th largest
    ratio ``c_i(Y)/c_i(T)``; the report's factor is the maximum over pairs
    (at least 1).  The solution satisfies ``beta``-approximate pair
    representation if and only if ``beta >= factor``.
    """
    stops = as_stops(solution)
    n, k = instance.n, instance.k
    thr = coverage_threshold(n, k)
    cy = solution_costs(instance, stops)
    factor = 1.0
    best: tuple[tuple[int, int], np.ndarray] | None = None
    for pair in itertools.combinations(range(instance.m), 2):
        ct = solution_costs(instance, pair)
        bt = _block_factor(cy, ct, thr) if n else 1.0
        if bt > factor:
            factor = bt
            best = (pair, ct)
    witness = None
    if best is not None:
        pair, ct = best
        witness = Witness(tuple(_improvers(cy, ct, factor)), pair, factor)
    return FairnessReport("JR", None, factor, witness)


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
    and every member improves on ``T`` by more than factor ``beta``.  Only
    ``|T| <= floor(k/alpha)`` can ever satisfy the size requirement, so the
    enumeration stops there.  The ``"milp"`` backend solves an equivalent 0/1
    integer program instead of enumerating.
    """
    alpha = _as_alpha(alpha)
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if backend == "milp":
        return _core_violation_milp(instance, solution, alpha, beta)
    if backend != "enumerate":
        raise ValueError(f"unknown backend {backend!r}")
    stops = as_stops(solution)
    n, m, k = instance.n, instance.m, instance.k
    if m > _core_guard_limit():
        raise EnumerationGuardError(
            f"core enumeration over m={m} candidates exceeds the guard "
            f"({_core_guard_limit()}); set {CORE_GUARD_ENV} to raise it"
        )
    if n == 0:
        return None
    p, q = alpha.numerator, alpha.denominator
    cy = solution_costs(instance, stops)
    max_size = min(m, (k * q) // p)
    for size in range(1, max_size + 1):
        need = -(-p * size * n // (k * q))
        if need > n:
            continue
        for target in itertools.combinations(range(m), size):
            ct = solution_costs(instance, target)
            coalition = _improvers(cy, ct, beta)
            if coalition and len(coalition) * k * q >= p * size * n:
                return Witness(tuple(coalition), target, _block_factor(cy, ct, need))
    return None


def core_ratio(
    instance: Instance, solution, alpha, backend: str = "enumerate"
) -> FairnessReport:
    """Tight (alpha, beta)-core factor of a solution, with an attaining witness.

    For each admissible target ``T`` the blockable factor is the ``s``-th
    largest ratio ``c_i(Y)/c_i(T)`` where ``s`` is the smallest coalition size
    satisfying ``s * k >= alpha * |T| * n``; the report's factor is the
    maximum over targets.  Reported as ``inf`` when some target serves a
    blocking coalition at zero cost while the solution does not.
    """
    alpha = _as_alpha(alpha)
    if backend == "milp":
        return _core_ratio_milp(instance, solution, alpha)
    if backend != "enumerate":
        raise ValueError(f"unknown backend {backend!r}")
    stops = as_stops(solution)
    n, m, k = instance.n, instance.m, instance.k
    if m > _core_guard_limit():
        raise EnumerationGuardError(
            f"core enumeration over m={m} candidates exceeds the guard "
            f"({_core_guard_limit()}); set {CORE_GUARD_ENV} to raise it"
        )
    p, q = alpha.numerator, alpha.denominator
    cy = solution_costs(instance, stops)
    factor = 1.0
    best: tuple[tuple[int, ...], np.ndarray] | None = None
    max_size = min(m, (k * q) // p) if n else 0
    for size in range(1, max_size + 1):
        need = -(-p * size * n // (k * q))
        if need > n:
            continue
        for target in itertools.combinations(range(m), size):
            ct = solution_costs(instance, target)
            bt = _block_factor(cy, ct, need)
            if bt > factor:
                factor = bt
                best = (target, ct)
    witness = None
    if best is not None:
        target, ct = best
        witness = Witness(tuple(_improvers(cy, ct, factor)), target, factor)
    return FairnessReport("CORE", alpha, factor, witness)


# ---------------------------------------------------------------------------
# Core testing as a 0/1 integer program (branch-and-bound backend)
# ---------------------------------------------------------------------------


def _beta_improving_pairs(instance, stops, beta, cy):
    """Per-agent lists of improving pair ids under the witness boundary rule."""
    pairs = list(itertools.combinations(range(instance.m), 2))
    per_agent: list[list[int]] = [[] for _ in range(instance.n)]
    for pid, pair in enumerate(pairs):
        ct = solution_costs(instance, pair)
        for i in _improvers(cy, ct, beta):
            per_agent[i].append(pid)
    return pairs, per_agent


def _core_violation_milp(instance, solution, alpha: Fraction, beta: float) -> Witness | None:
    """Blocking-coalition search as a 0/1 program: maximize the coalition size
    subject to every member holding an improving pair inside the chosen stop
    set and the coalition outweighing ``alpha * |T| * n / k``.  A positive
    optimum is exactly a core violation."""
    stops = as_stops(solution)
    n, m, k = instance.n, instance.m, instance.k
    if n == 0:
        return None
    p, q = alpha.numerator, alpha.denominator
    cy = solution_costs(instance, stops)
    pairs, per_agent = _beta_improving_pairs(instance, stops, beta, cy)
    used_pairs = sorted({pid for lst in per_agent for pid in lst})
    if not used_pairs:
        return None
    pair_col = {pid: m + n + j for j, pid in enumerate(used_pairs)}
    # Variables: x_i (agents), s_c (stops), y_pid (pairs actually improving someone).
    nvar = n + m + len(used_pairs)
    cost = np.zeros(nvar)
    cost[:n] = -1.0
    rows, lo, hi = [], [], []

    def add_row(coeffs: dict[int, float], ub: float):
        row = np.zeros(nvar)
        for j, v in coeffs.items():
            row[j] = v
        rows.append(row)
        lo.append(-np.inf)
        hi.append(ub)

    upper = np.ones(nvar)
    for i in range(n):
        if per_agent[i]:
            add_row({i: 1.0, **{pair_col[pid]: -1.0 for pid in per_agent[i]}}, 0.0)
        else:
            upper[i] = 0.0
    for pid in used_pairs:
        a, b = pairs[pid]
        add_row({pair_col[pid]: 1.0, n + a: -1.0}, 0.0)
        add_row({pair_col[pid]: 1.0, n + b: -1.0}, 0.0)
    add_row(
        {**{n + c: float(p * n) for c in range(m)}, **{i: float(-k * q) for i in range(n)}},
        0.0,
    )
    res = milp(
        c=cost,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=np.ones(nvar),
        bounds=Bounds(np.zeros(nvar), upper),
    )
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"core MILP did not solve: {res.message}")
    if -res.fun < 0.5:
        return None
    x = res.x
    coalition = tuple(i for i in range(n) if x[i] > 0.5)
    target = tuple(c for c in range(m) if x[n + c] > 0.5)
    need = -(-p * len(target) * n // (k * q))
    ct = solution_costs(instance, target)
    return Witness(coalition, target, _block_factor(cy, ct, need))


def _core_ratio_milp(instance, solution, alpha: Fraction) -> FairnessReport:
    """Tight core factor via the integer program and a search over the finite
    set of realizable cost ratios (every blockable factor is one of them)."""
    stops = as_stops(solution)
    cy = solution_costs(instance, stops)
    candidates: set[float] = set()
    for pair in itertools.combinations(range(instance.m), 2):
        ct = solution_costs(instance, pair)
        for r in _ratios(cy, ct):
            if r > 1.0:
                candidates.add(float(r))
    ladder = sorted(candidates)
    # Violations exist on a prefix of the ascending ladder; find its last rung.
    # The lowest rung goes first, so a fair placement costs one solve.
    witness = _core_violation_milp(instance, solution, alpha, ladder[0]) if ladder else None
    if witness is None:
        return FairnessReport("CORE", alpha, 1.0, None)
    factor = ladder[0]
    lo, hi = 1, len(ladder) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        w = _core_violation_milp(instance, solution, alpha, ladder[mid])
        if w is not None:
            factor, witness = ladder[mid], w
            lo = mid + 1
        else:
            hi = mid - 1
    return FairnessReport("CORE", alpha, factor, witness)


# ---------------------------------------------------------------------------
# Proportional fairness on clustering instances
# ---------------------------------------------------------------------------


def _pf_prepare(clustering: ClusteringInstance, centers):
    chosen = tuple(sorted(set(int(c) for c in centers)))
    if chosen and (chosen[0] < 0 or chosen[-1] >= clustering.m):
        raise ValueError("center index out of range")
    if len(chosen) > clustering.k:
        raise ValueError(f"{len(chosen)} centers exceed budget k={clustering.k}")
    d = clustering.point_center_dists()
    dP = d[:, chosen].min(axis=1) if chosen else np.full(clustering.n, INF)
    return chosen, d, dP


def pf_violation(clustering: ClusteringInstance, centers, rho: float = 1.0) -> Witness | None:
    """First center blocking proportional fairness at factor ``rho``.

    Blocks when at least ``ceil(n'/k')`` datapoints would each get more than
    ``rho`` times closer to it than to their nearest selected center.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    chosen, d, dP = _pf_prepare(clustering, centers)
    thr = -(-clustering.n // clustering.k)
    if clustering.n == 0:
        return None
    for c in range(clustering.m):
        group = _improvers(dP, d[:, c], rho)
        if len(group) >= thr:
            return Witness(tuple(group), (c,), _block_factor(dP, d[:, c], thr))
    return None


def pf_ratio(clustering: ClusteringInstance, centers) -> FairnessReport:
    """Tight proportional-fairness factor of a center selection."""
    chosen, d, dP = _pf_prepare(clustering, centers)
    thr = -(-clustering.n // clustering.k)
    factor = 1.0
    best: int | None = None
    if clustering.n:
        for c in range(clustering.m):
            bt = _block_factor(dP, d[:, c], thr)
            if bt > factor:
                factor = bt
                best = c
    witness = None
    if best is not None:
        witness = Witness(tuple(_improvers(dP, d[:, best], factor)), (best,), factor)
    return FairnessReport("PF", None, factor, witness)

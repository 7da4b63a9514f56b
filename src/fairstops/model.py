"""Core data model: metrics, problem instances, travel costs and reductions.

A placement problem consists of agents who each travel between a pair of
endpoints, a set of candidate stops, a budget ``k``, and two distance
functions on a common point set: a *walking* metric over all points and a
*transit* metric over candidate stops only.  Distances are extended reals
(``math.inf`` encodes unreachable pairs).  An agent either walks directly or
walks to a boarding stop, rides to an alighting stop, and walks on to her
destination; her cost is the cheapest of these options.

The module also holds the two bridges to center-based clustering: every
placement instance induces a clustering instance over the multiset of agent
endpoints, and every clustering instance embeds into a placement instance
made of two mirrored copies at infinite separation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

INF = math.inf

#: Relative slack of every floating-point comparison in this package: a value
#: within this fraction of a bound is taken to meet it.
RTOL = 1e-12

#: Floats one block of :func:`stop_sets` may take in the route-cost kernel (8 MB).
BLOCK_FLOATS = 1 << 20

#: Most stop sets one guarded exhaustive search may list (:func:`check_stop_sets`).
MAX_STOP_SETS = 2**24


class EnumerationGuardError(RuntimeError):
    """Raised when an exhaustive search would list more than :data:`MAX_STOP_SETS` stop sets."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _integral(name: str, value, shape: tuple[int, ...] = ()):
    """``value`` as an int (``shape`` left ``()``, a budget) or as a read-only
    int array reshaped to ``shape``, an index array; ``TypeError`` naming
    ``name`` when it holds a non-integer, so a float is refused rather than
    truncated.  A budget converts by ``operator.index``; a non-empty index
    array must have an integer dtype, which a bool one is not."""
    if shape == ():
        try:
            return operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    a = np.asarray(value)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"{name} must hold integer indices, got dtype {a.dtype}")
    return _readonly(a.astype(int, copy=False).reshape(shape))


@dataclass(frozen=True, eq=False)
class Metric:
    """A symmetric, nonnegative extended-real distance matrix with zero diagonal.

    The triangle inequality is expected but deliberately *not* enforced at
    construction time (it is an O(p^3) check); call :meth:`violations` or
    :func:`validate_instance` to verify it on demand.
    """

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        object.__setattr__(self, "dist", _readonly(d))

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Metric):
            return NotImplemented
        return np.array_equal(self.dist, other.dist)

    def violations(self, name: str = "dist") -> list[str]:
        """Return a message per violated metric axiom (empty list means valid)."""
        d = self.dist
        p = self.size
        out: list[str] = []
        if np.any(np.isnan(d)):
            out.append(f"{name}: NaN entries present")
            return out
        diag = np.diagonal(d)
        for i in np.nonzero(diag != 0)[0]:
            out.append(f"{name}: nonzero diagonal at point {i}: {diag[i]}")
        asym = np.argwhere(d != d.T)
        for i, j in asym:
            if i < j:
                out.append(f"{name}: asymmetry at ({i},{j}): {d[i, j]} vs {d[j, i]}")
        if np.any(d < 0):
            for i, j in np.argwhere(d < 0):
                if i <= j:
                    out.append(f"{name}: negative distance at ({i},{j}): {d[i, j]}")
        # Triangle inequality, vacuous whenever the right side is infinite.  The
        # slack widens the bound for either sign: a negative entry must not
        # read as exceeding itself.
        for mid in range(p):
            through = d[:, [mid]] + d[[mid], :]
            bad = d > np.maximum(through * (1.0 + RTOL), through * (1.0 - RTOL))
            for i, j in np.argwhere(bad):
                if i < j:
                    out.append(
                        f"{name}: triangle violation d({i},{j})={d[i, j]} > "
                        f"d({i},{mid})+d({mid},{j})={through[i, j]}"
                    )
        return out


@dataclass(frozen=True)
class Solution:
    """A feasible stop placement: a strictly increasing tuple of candidate indices."""

    stops: tuple[int, ...]

    def __post_init__(self):
        stops = tuple(map(operator.index, self.stops))
        if any(b <= a for a, b in zip(stops, stops[1:])):
            raise ValueError(f"stops must be strictly increasing, got {stops}")
        object.__setattr__(self, "stops", stops)

    @classmethod
    def of(cls, stops: Iterable[int]) -> "Solution":
        """Build a solution from any iterable of candidate indices."""
        return cls(as_stops(stops))

    def __len__(self) -> int:
        return len(self.stops)

    def __iter__(self):
        return iter(self.stops)

    def __contains__(self, item) -> bool:
        return item in self.stops


def as_stops(solution: "Solution | Iterable[int]") -> tuple[int, ...]:
    """Normalize a :class:`Solution` or raw iterable into a sorted index tuple.

    Indices convert by ``operator.index``, so numpy integers pass and a
    float raises ``TypeError`` rather than being truncated."""
    if isinstance(solution, Solution):
        return solution.stops
    return tuple(sorted(set(map(operator.index, solution))))


@dataclass(frozen=True, eq=False)
class Instance:
    """A transit stop placement problem.

    Parameters
    ----------
    endpoints : array of shape (n, 2)
        Per-agent point indices ``(a_i, b_i)`` into the walking metric.
    candidates : array of shape (m,)
        Point indices of the candidate stops.
    walk : Metric
        Walking distances over the full point set.
    transit : Metric
        Ride distances over candidate stops only (``m`` by ``m``).
    k : int
        Stop budget, ``1 <= k <= m``.
    candidate_labels : tuple of str, optional
        Display names for the candidates (used by generators and the CLI).

    An instance with :func:`structure_problems` still builds, so that
    :func:`validate_instance` can report them, but every cost function
    raises ``ValueError`` on it: its cost tables are never built.
    """

    endpoints: np.ndarray
    candidates: np.ndarray
    walk: Metric
    transit: Metric
    k: int
    candidate_labels: tuple[str, ...] | None = None

    #: True when every ride between candidate stops is free.
    null_transit: bool = field(init=False, repr=False)

    # Derived tables, built in __post_init__ only on a valid structure;
    # reading an unbuilt one raises its first problem (__getattr__).
    # _clustering is the induced clustering, whose (m, 2n) table is the one
    # gather of endpoint walks.  The walk tables are stops first, (m, n):
    # _d_ca[c, i] and _d_cb[c, i], the walks between stop c and a_i and b_i,
    # are contiguous copies of its columns, and _d_cc[c, i] is agent i's route
    # boarding and alighting at c, (walk in + ride c->c) + walk out: the
    # single-stop target table that stop_set_costs reads as it is.  The
    # stop-pair route table (_pair_table) is built on first use instead and
    # kept for the instance's life: C(m, 2) * n * 8 bytes.  It is read as it
    # is: the walk (_d_ab) is capped in only where a cost is reported.
    # _priced is the verifiers' one-entry memo, (stops, costs): the placement
    # fairness._costs last priced and its read-only (n,) solution_costs row,
    # written only after a pricing succeeds, so every verifier call on one
    # placement shares one row.
    _clustering: ClusteringInstance = field(init=False, repr=False)
    _d_ca: np.ndarray = field(init=False, repr=False)
    _d_cb: np.ndarray = field(init=False, repr=False)
    _d_cc: np.ndarray = field(init=False, repr=False)
    _d_ab: np.ndarray = field(init=False, repr=False)
    _priced: tuple[tuple[int, ...], np.ndarray] | None = field(
        init=False, repr=False, default=None)

    def __post_init__(self):
        ep = _integral("endpoints", self.endpoints, (-1, 2))
        cand = _integral("candidates", self.candidates, (-1,))
        object.__setattr__(self, "endpoints", ep)
        object.__setattr__(self, "candidates", cand)
        object.__setattr__(self, "k", _integral("k", self.k))
        if self.candidate_labels is not None:
            labels = tuple(str(s) for s in self.candidate_labels)
            if len(labels) != len(cand):
                raise ValueError("candidate_labels length must equal candidate count")
            object.__setattr__(self, "candidate_labels", labels)
        object.__setattr__(self, "null_transit", bool(np.all(self.transit.dist == 0.0)))
        if structure_problems(self):
            return
        clustering = ClusteringInstance(ep.reshape(-1), cand, self.walk, self.k)
        d_cp, (a, b) = clustering.center_point_dists(), ep.T
        d_ca, d_cb = _readonly(d_cp[:, 0::2]), _readonly(d_cp[:, 1::2])
        d_cc = d_ca + np.diagonal(self.transit.dist)[:, None]
        d_cc += d_cb
        object.__setattr__(self, "_clustering", clustering)
        object.__setattr__(self, "_d_ca", d_ca)
        object.__setattr__(self, "_d_cb", d_cb)
        object.__setattr__(self, "_d_cc", _readonly(d_cc))
        object.__setattr__(self, "_d_ab", _readonly(self.walk.dist[a, b] + 0.0))

    @functools.cached_property
    def _walk_bound(self) -> str | None:
        """:func:`walk_bound_problem`, computed on first use."""
        bad = ~(self._d_ab <= self._d_cc * (1.0 + RTOL))
        if not bad.any():
            return None
        i, c = np.argwhere(bad.T)[0].tolist()
        return (f"agent {i}'s walk {float(self._d_ab[i])!r} exceeds its route "
                f"{float(self._d_cc[c, i])!r} through stop {c} alone")

    @functools.cached_property
    def _pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every unordered stop pair in lexicographic order, ``(C(m, 2), 2)``,
        and its :func:`route_costs` table, ``(C(m, 2), n)``, both read-only:
        the one size-2 table the sweeps and verifiers read.  Built on first
        use into arrays allocated once, one :func:`stop_sets` block at a
        time, so the build holds the table and one block's routes."""
        total, start = math.comb(self.m, 2), 0
        pairs, routes = np.empty((total, 2), dtype=int), np.empty((total, self.n))
        for block in stop_sets(self.m, 2, self.n):
            rows = slice(start, start := start + len(block))
            pairs[rows], routes[rows] = block, route_costs(self, block)
        pairs.flags.writeable = routes.flags.writeable = False
        return pairs, routes

    def __reduce__(self):
        # Pickle and copy carry the six inputs only: the derived tables and
        # the cached pair table are rebuilt from them, and the memo is dropped.
        return type(self), (self.endpoints, self.candidates, self.walk, self.transit, self.k,
                            self.candidate_labels)

    def __getattr__(self, name):
        # Only reached for an attribute that was never set.
        if name in ("_clustering", "_d_ca", "_d_cb", "_d_cc", "_d_ab"):
            require_valid_structure(self)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def n(self) -> int:
        return self.endpoints.shape[0]

    @property
    def m(self) -> int:
        return self.candidates.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self.endpoints, other.endpoints)
            and np.array_equal(self.candidates, other.candidates)
            and self.walk == other.walk
            and self.transit == other.transit
            and self.candidate_labels == other.candidate_labels
        )


@dataclass(frozen=True, eq=False)
class ClusteringInstance:
    """A center-selection problem: datapoints, candidate centers, budget.

    ``datapoints`` is a multiset (repeated point indices are meaningful:
    coincident agent endpoints each count toward coalition sizes).  The
    instance owns the one center-by-point distance table that greedy
    capture, the hybrid's ball side, PF and the line rules read:
    :meth:`center_point_dists`, stops first, ``(m, n')``.
    """

    datapoints: np.ndarray
    centers: np.ndarray
    dist: Metric
    k: int

    _d_cp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dp = _integral("datapoints", self.datapoints, (-1,))
        ce = _integral("centers", self.centers, (-1,))
        object.__setattr__(self, "datapoints", dp)
        object.__setattr__(self, "centers", ce)
        object.__setattr__(self, "k", _integral("k", self.k))
        p = self.dist.size
        if not 1 <= self.k <= len(ce):
            raise ValueError(f"budget k={self.k} outside [1, m={len(ce)}]")
        for name, idx in (("datapoints", dp), ("centers", ce)):
            if idx.size and (idx.min() < 0 or idx.max() >= p):
                raise ValueError(f"{name} index out of range [0, {p})")
        # Entries read d[point, center]; adding 0.0 turns a -0.0 distance into
        # 0.0, which fairness._ratios would divide by as -inf (Instance._d_ab too).
        object.__setattr__(self, "_d_cp", _readonly(self.dist.dist.T[np.ix_(ce, dp)] + 0.0))

    @property
    def n(self) -> int:
        return self.datapoints.shape[0]

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    def center_point_dists(self) -> np.ndarray:
        """Distance from every datapoint to every candidate center, stops
        first: entry ``[c, j]`` is ``dist[datapoints[j], centers[c]]``."""
        return self._d_cp

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusteringInstance):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self.datapoints, other.datapoints)
            and np.array_equal(self.centers, other.centers)
            and self.dist == other.dist
        )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One step of a radius sweep: what opened and who was retired, at which radius."""

    radius: float
    opened: tuple[int, ...] = ()
    endpoints: tuple[int, ...] = ()
    agents: tuple[int, ...] = ()


@dataclass(frozen=True)
class RunTrace:
    """Ordered selection/deactivation events of one algorithm run."""

    events: tuple[TraceEvent, ...]

    def opened(self) -> tuple[int, ...]:
        """All opened candidate indices in selection order."""
        return tuple(c for ev in self.events for c in ev.opened)

    def radii(self) -> tuple[float, ...]:
        return tuple(ev.radius for ev in self.events)


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------


def agent_cost(instance: Instance, agent_index: int, solution) -> float:
    """Cheapest travel cost of one agent under a stop placement.

    The agent either walks directly, or walks to a boarding stop ``y1``, rides
    to an alighting stop ``y2`` (``y1 == y2`` allowed) and walks on.  An empty
    placement leaves only the walk.
    """
    n, agent_index = instance.n, operator.index(agent_index)
    if not 0 <= agent_index < n:
        raise IndexError(f"agent index {agent_index} out of range for n={n}")
    return float(solution_costs(instance, solution)[agent_index])


def solution_costs(instance: Instance, solution) -> np.ndarray:
    """Vector of :func:`agent_cost` over all agents: :func:`route_costs` capped
    by the direct walk.  Takes the same placements or unit arrays."""
    return np.minimum(instance._d_ab, route_costs(instance, solution))


def route_costs(instance: Instance, solution) -> np.ndarray:
    """Per-agent cost of the best stop route only, ignoring the direct walk.

    ``solution`` is one placement, giving one cost per agent, or a 2-D
    integer array of units (one equal-size stop set per row), giving a
    ``(units, agents)`` table.  A placement is evaluated as a one-row unit
    array, so its vector is the table's row bit for bit.  Infinite for every
    agent when the placement is empty.  This is the service level a
    placement itself provides; :func:`solution_costs` caps it by the walk.
    Every cost reads this function, so its one range check covers them all:
    a stop index outside ``[0, m)`` raises ``ValueError`` naming it.
    """
    table = isinstance(solution, np.ndarray) and solution.ndim == 2
    units = solution if table else np.array([as_stops(solution)], dtype=int)
    if units.size:
        lo, hi = units.min(), units.max()
        if lo < 0 or hi >= instance.m:
            raise ValueError(f"stop index {lo if lo < 0 else hi} out of range [0, {instance.m})")
    # Shapes below are stops first: (stops, units, agents), so each minimum
    # over the leading axis is the (units, agents) table.  Every route sums
    # (walk in + ride) + walk out.  A route boarding and alighting at one
    # stop is read from _d_cc, so only the s(s-1) ordered routes between two
    # distinct stops of a unit are formed here.  An empty stop set leaves
    # each minimum at its initial INF.
    u, d_ca, d_cb = units.T, instance._d_ca, instance._d_cb
    if instance.null_transit:
        best = d_ca[u].min(axis=0, initial=INF) + d_cb[u].min(axis=0, initial=INF)
    else:
        best = instance._d_cc[u].min(axis=0, initial=INF)
        if len(u) > 1:
            j, l = _off_diagonal(len(u))
            routes = d_ca[u[j]]
            routes += instance.transit.dist[u[j], u[l]][..., None]
            routes += d_cb[u[l]]
            np.minimum(best, routes.min(axis=0), out=best)
    return best if table else best[0]


@functools.cache
def _off_diagonal(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(j, l)`` of every ordered pair ``j != l`` below ``size``,
    read-only since every caller shares them."""
    return tuple(map(_readonly, np.nonzero(~np.eye(size, dtype=bool))))


def total_cost(instance: Instance, solution) -> float:
    """Sum of agent costs; infinite as soon as one agent is stranded."""
    return float(solution_costs(instance, solution).sum())


def stop_sets(m: int, size: int, n: int):
    """Every ``size``-subset of the ``m`` candidates, in lexicographic order,
    as ``(sets, size)`` index arrays in blocks whose :func:`route_costs` peak
    for ``n`` agents stays within :data:`BLOCK_FLOATS`.  A set takes
    ``n * (2 * size * (size - 1) + 1)`` floats there under a transit metric
    (the off-diagonal routes, one walk-out gather and the table row) and
    ``n * (size + 2)`` under null transit (one walk gather beside two
    minima); a block is sized by the larger."""
    per_block = _block_rows(size, n)
    combos = itertools.combinations(range(m), size)
    total = math.comb(m, size)
    for start in range(0, total, per_block):
        rows = min(per_block, total - start)
        flat = itertools.chain.from_iterable(itertools.islice(combos, rows))
        yield np.fromiter(flat, dtype=int, count=rows * size).reshape(rows, size)


def _block_rows(size: int, n: int) -> int:
    """Stop sets in one :func:`stop_sets` block of ``size``-sets for ``n`` agents."""
    return max(1, BLOCK_FLOATS // max(1, n * max(2 * size * (size - 1) + 1, size + 2)))


def _row_blocks(table: np.ndarray):
    """Slices of ``table``'s rows, one :func:`stop_sets` pair block of its
    width each, so a table that is only read is never copied whole."""
    step = _block_rows(2, table.shape[1])
    return (slice(start, start + step) for start in range(0, len(table), step))


def stop_set_costs(instance: Instance, sizes):
    """Every subset of the candidates of each of ``sizes``, in size and then
    lexicographic order, as :func:`stop_sets` blocks ``(sets, routes)`` with
    their :func:`route_costs` tables, after :func:`check_stop_sets` on all
    ``sizes``.  Single-stop blocks are row views of ``_d_cc`` and pair blocks
    of the cached pair table, each bit for bit the :func:`route_costs` of
    its sets (``_d_cc`` holds ``d_ca + d_cb`` under null transit, since
    ``d_ca`` holds no -0.0), so only other sizes reach the kernel.  Targets
    are route costs, and the walk is capped only where a cost is reported:
    as ``cy <= walk``, a ratio ``cy / route`` above 1 is the same float
    capped, and one at most 1 stays so."""
    check_stop_sets(instance.m, sizes)
    for size in sizes:
        if size in (1, 2):
            sets, routes = ((np.arange(instance.m)[:, None], instance._d_cc) if size == 1
                            else instance._pair_table)
            for rows in _row_blocks(routes):
                yield sets[rows], routes[rows]
        else:
            for sets in stop_sets(instance.m, size, instance.n):
                yield sets, route_costs(instance, sets)


def check_stop_sets(m: int, sizes) -> None:
    """Raise :class:`EnumerationGuardError` if the ``m`` candidates have more
    than :data:`MAX_STOP_SETS` subsets of the given ``sizes``; only counts."""
    count = sum(math.comb(m, size) for size in sizes)
    if count > MAX_STOP_SETS:
        raise EnumerationGuardError(
            f"an exhaustive search over {count} stop sets exceeds the limit of {MAX_STOP_SETS}"
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def structure_problems(instance: Instance) -> list[str]:
    """One message per broken structural invariant: the budget, the endpoint
    and candidate index ranges, and the transit size (no metric check)."""
    out: list[str] = []
    p = instance.walk.size
    m, k = instance.m, instance.k
    raw_ep = np.asarray(instance.endpoints)
    if not 1 <= k <= m:
        out.append(f"budget k={k} outside [1, m={m}]")
    if raw_ep.size and (raw_ep.min() < 0 or raw_ep.max() >= p):
        out.append(f"endpoint index out of range [0, {p})")
    if m and (instance.candidates.min() < 0 or instance.candidates.max() >= p):
        out.append(f"candidate index out of range [0, {p})")
    if instance.transit.size != m:
        out.append(f"transit metric size {instance.transit.size} != m={m}")
    return out


def validate_instance(instance: Instance) -> list[str]:
    """Check every structural invariant and return one message per violation.

    An empty report means the instance is valid.  This never raises; the
    :func:`structure_problems` come first, then duplicate candidates and
    metric violations (asymmetry, nonzero diagonal, triangle violations by
    more than the relative ``RTOL``, so the report is the same at any
    distance scale).  A walk and transit that pass these checks meet the walk
    bound (:func:`walk_bound_problem`), so an instance that breaks it always
    has a line here (on a symmetric walk, the triangle between the agent's
    endpoints through that stop) and the bound has no line of its own.
    """
    out = structure_problems(instance)
    if len(set(instance.candidates.tolist())) != instance.m:
        out.append("duplicate candidate point indices")
    out.extend(instance.walk.violations("walk"))
    out.extend(instance.transit.violations("transit"))
    return out


def walk_bound_problem(instance: Instance) -> str | None:
    """The walk bound: no agent's route boarding and alighting at one stop
    beats her direct walk, ``_d_ab[i] <= _d_cc[c, i] * (1 + RTOL)`` for every
    agent ``i`` and stop ``c``.  Returns a message naming the first failing
    agent and, for her, the first failing stop, or ``None`` when the bound
    holds.  A metric walk with a zero-diagonal transit always meets it; the
    core backends assume it.  O(n * m) on the tables the instance already
    holds, once per instance; raises ``ValueError`` on a broken structure."""
    return instance._walk_bound


def require_valid_structure(instance: Instance) -> None:
    """Raise ``ValueError`` with the first of :func:`structure_problems`, if any
    (no O(p^3) metric check)."""
    problems = structure_problems(instance)
    if problems:
        raise ValueError(problems[0])


# ---------------------------------------------------------------------------
# Reductions to and from clustering
# ---------------------------------------------------------------------------


def induce_clustering(instance: Instance) -> ClusteringInstance:
    """Reinterpret all 2n agent endpoints as datapoints, laid out as a_0, b_0,
    a_1, b_1, ...; keep centers and budget.  Built once per instance, by the
    gather that also gives its walk tables; raises ``ValueError`` on a
    broken structure."""
    return instance._clustering


def clustering_to_trsp(clustering: ClusteringInstance) -> Instance:
    """Embed a clustering instance into a placement instance of two mirrored copies.

    Each datapoint becomes one agent traveling between its two copies, which
    sit at infinite walking distance from each other; rides are free and the
    budget doubles.  Selecting center copies on both sides is then the only
    way to serve an agent.
    """
    p = clustering.dist.size
    base = clustering.dist.dist
    walk = np.full((2 * p, 2 * p), INF)
    walk[:p, :p] = base
    walk[p:, p:] = base
    np.fill_diagonal(walk, 0.0)
    endpoints = np.stack(
        [clustering.datapoints, clustering.datapoints + p], axis=1
    )
    candidates = np.concatenate([clustering.centers, clustering.centers + p])
    m2 = len(candidates)
    return Instance(
        endpoints=endpoints,
        candidates=candidates,
        walk=Metric(walk),
        transit=Metric(np.zeros((m2, m2))),
        k=2 * clustering.k,
    )

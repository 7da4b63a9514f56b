"""Instance generators: stress families, random instances, and file I/O.

Each named family builds one of the hand-crafted instances on which the
selection algorithms hit their worst-case fairness factors (or on which no
good placement exists at all), parameterized by the small gaps (``eps``,
``delta``), the hybrid mixing weight (``lam``) and the size knobs (``h``,
``gamma``, ``r``) that the constructions scale with.

Construction policy shared by all families:

* distances are assembled from the explicitly placed segments and then
  completed by an all-pairs shortest-path closure, so every emitted metric
  satisfies the triangle inequality exactly;
* points in different "regions" of a construction are separated by genuine
  infinity, never by a large finite surrogate (a finite stand-in would bend
  cost ratios and create spurious short paths through decoy stops);
* decoy candidates that exist only to pad the candidate set live at infinite
  distance from everything, so they can never enter any deviation witness.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .algorithms import LineClusteringInstance
from .model import INF, Instance, Metric, structure_problems, walk_bound_problem

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


class InstanceParseError(ValueError):
    """Raised when an instance file is malformed; the message names the field."""


# ---------------------------------------------------------------------------
# Metric assembly helper
# ---------------------------------------------------------------------------


def _closure(d: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths over ``d``, in place."""
    for mid in range(d.shape[0]):
        np.minimum(d, d[:, [mid]] + d[[mid], :], out=d)
    return d


def _euclidean(pts: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of ``(p, 2)`` points, one coordinate at a time."""
    dx, dy = (pts[:, None, i] - pts[None, :, i] for i in (0, 1))
    return np.sqrt(dx * dx + dy * dy)


def _instance(endpoints, candidates, walk: np.ndarray, transit: np.ndarray, k: int,
              labels=None) -> Instance:
    """The one place this module builds an :class:`Instance`, from raw arrays."""
    return Instance(
        endpoints=np.array(endpoints, dtype=int),
        candidates=np.array(candidates, dtype=int),
        walk=Metric(walk),
        transit=Metric(transit),
        k=k,
        candidate_labels=labels,
    )


class _MetricBuilder:
    """Collects named points and explicit segment lengths, then closes the metric.

    Points named in ``coords`` are placed at those coordinates instead, at
    Euclidean distance from each other.
    """

    def __init__(self, coords: dict[str, tuple[float, float]] | None = None):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._edges: dict[tuple[int, int], float] = {}
        self._coords = coords
        self.points(*(coords or ()))

    def point(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self._names)
            self._names.append(name)
        return self._index[name]

    def points(self, *names: str) -> list[int]:
        return [self.point(n) for n in names]

    def dist(self, a: str, b: str, value: float) -> None:
        i, j = self.point(a), self.point(b)
        if i == j:
            return
        key = (min(i, j), max(i, j))
        self._edges[key] = min(self._edges.get(key, INF), float(value))

    def build(self) -> np.ndarray:
        if self._coords is not None:
            return _euclidean(np.array(list(self._coords.values()), dtype=float))
        p = len(self._names)
        d = np.full((p, p), INF)
        np.fill_diagonal(d, 0.0)
        for (i, j), v in self._edges.items():
            d[i, j] = d[j, i] = v
        return _closure(d)

    def instance(self, endpoints, candidates, k: int, labels=None) -> Instance:
        """Agents travel between the named endpoint pairs; the named
        candidates are labelled ``labels``, by default their names; rides
        are free."""
        ends, cand = [self.points(a, b) for a, b in endpoints], self.points(*candidates)
        free = np.zeros((len(cand), len(cand)))
        return _instance(ends, cand, self.build(), free, k, tuple(labels or candidates))


def _line_region(b: _MetricBuilder, names_at: list[tuple[str, float]]) -> None:
    """Place points on one line segment; all pairwise gaps become segments."""
    for (na, xa), (nb, xb) in itertools.combinations(names_at, 2):
        b.dist(na, nb, abs(xa - xb))


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def jr_lower_instance() -> Instance:
    """Three agents, six stops, budget 3: no placement represents everyone well.

    Two mirrored regions at infinite separation; within each region the three
    agent endpoints and three stops sit in a rotationally symmetric pattern
    with distances 1, sqrt(3) and 2+sqrt(3).  Every feasible placement leaves
    a two-agent coalition preferring some cross-region stop pair by a factor
    of (1+sqrt(3))/2.
    """
    b = _MetricBuilder()
    ring = [2.0 + SQRT3, SQRT3, 1.0]
    for side, eps_names in (("a", ["a1", "a2", "a3"]), ("b", ["b1", "b2", "b3"])):
        stops = [f"t{j + 1}" for j in (range(3) if side == "a" else range(3, 6))]
        for s, stop in enumerate(stops):
            for e, endpoint in enumerate(eps_names):
                b.dist(stop, endpoint, ring[(e + s) % 3])
    endpoints = [(f"a{i}", f"b{i}") for i in (1, 2, 3)]
    return b.instance(endpoints, [f"t{j}" for j in range(1, 7)], 3)


def gc_jr_tight_instance(eps: float = 0.01) -> Instance:
    """Seven agents on two mirrored lines where greedy capture is maximally unfair.

    On each line: a lone endpoint at 0, a cluster of two at 1 (on a stop), one
    at 1+(sqrt(5)-1)/2, and three at the far stop just inside radius 1 of the
    fourth.  The far stops open first and strand the four inner agents, whose
    preferred central pair never fills its ball.
    """
    _check(0.0 <= eps < 1.0, f"eps must lie in [0, 1), got {eps}")
    dh = (SQRT5 - 1.0) / 2.0
    return _two_line_instance(
        inner_gap=dh,
        top_far_gap=1.0 - eps / 8.0,
        bottom_far_gap=1.0 - eps / 8.0,
        far_decoys=0,
        extra_labels=("y3", "y4"),
    )


def hybrid_jr_tight_instance(lam: float = 0.5, eps: float = 0.01) -> Instance:
    """The two-line layout scaled so the hybrid sweep at weight ``lam`` fails worst.

    Stops ``t1``/``t2`` sit at 1 on the top/bottom line, the inner gap is
    ``dh = (sqrt(lam^2 + 10 lam + 9) - lam - 1) / 4`` and the far stops
    ``y1``/``y2`` lie ``g_top``/``g_bot`` beyond it; four decoy stops at
    infinity pad the candidate set (``n = 7``, ``k = 4``, threshold 4).  With
    ``delta = eps * dh / 2`` the far gaps are

        g_top = lam * (1 - delta),    g_bot = 1 - delta / 2,

    so ``G = g_top + g_bot = lam + 1 - delta (lam + 1/2)``.

    *Blocked ratios.*  Against the central pair ``{t1, t2}`` the four inner
    agents pay under ``{y1, y2}``:

    * agents 0 and 2: ``(1 + 2 dh + G) / 1 = f - eps dh (2 lam + 1) / 4``;
    * agents 1 and 3: ``(dh + G) / dh = f - eps (2 lam + 1) / 4``;

    where ``f = hybrid_jr_factor(lam)``; ``dh`` is the root that makes both
    equal ``f`` at ``G = lam + 1``.  This coalition attains the
    pair-representation factor, the smallest of the four ratios,
    ``f - eps (lam / 2 + 1/4)``, which lies in ``[f - eps, f]`` for every
    ``lam`` in (0, 1].

    *Trigger order.*  ``y1``'s ball (three far endpoints plus agent 3's
    source at ``g_top``) fills at ``r = g_top / lam = 1 - delta``, strictly
    before the central pair's cost ball at ``r = 1``; it retires the top
    endpoints of agents 3 to 6, after which only agents 0 to 2 are fully
    active and no pair can reach four.  ``y2``'s ball (three far endpoints
    plus agent 1's sink at ``g_bot``) then fills at ``g_bot / lam``, before
    ``t2``'s at ``1 / lam`` because ``g_bot < 1``.  The cross pair
    ``{t1, y2}`` serves agent 1 at ``g_bot`` and agents 4 to 6 at
    ``dh + g_top``, so it fills no earlier than ``g_bot``; keeping
    ``g_bot > g_top / lam`` makes ``y1`` fire first and strand it.

    The window needs ``eps > 0``: at ``eps = 0`` the far stop ties the central
    pair at ``r = 1``, the pair phase runs first, and the sweep returns
    ``{t1, t2}``.
    """
    _check(0.0 < lam <= 1.0, f"lam must lie in (0, 1], got {lam}")
    _check(0.0 <= eps < 1.0, f"eps must lie in [0, 1), got {eps}")
    dh = (math.sqrt(lam * lam + 10.0 * lam + 9.0) - lam - 1.0) / 4.0
    delta = eps * dh / 2.0
    return _two_line_instance(
        inner_gap=dh,
        top_far_gap=lam * (1.0 - delta),
        bottom_far_gap=1.0 - delta / 2.0,
        far_decoys=4,
        extra_labels=(),
    )


def _two_line_instance(
    inner_gap: float,
    top_far_gap: float,
    bottom_far_gap: float,
    far_decoys: int,
    extra_labels: tuple[str, ...],
) -> Instance:
    """Shared scaffold of the two tightness lines (seven agents, budget 4)."""
    b = _MetricBuilder()
    top = [("T0", 0.0), ("T1", 1.0), ("T2", 1.0 + inner_gap), ("T3", 1.0 + inner_gap + top_far_gap)]
    bot = [("B0", 0.0), ("B1", 1.0), ("B2", 1.0 + inner_gap), ("B3", 1.0 + inner_gap + bottom_far_gap)]
    _line_region(b, top)
    _line_region(b, bot)
    cand_names = ["T1", "B1", "T3", "B3"]
    labels = ["t1", "t2", "y1", "y2"]
    for j, extra in enumerate(extra_labels):
        cand_names.append("T0" if j % 2 == 0 else "B0")
        labels.append(extra)
    for j in range(far_decoys):
        cand_names.append(f"D{j}")
        labels.append(f"y{3 + j}")
    endpoints = [("T0", "B1"), ("T1", "B2"), ("T1", "B0"), ("T2", "B1")] + [("T3", "B3")] * 3
    return b.instance(endpoints, cand_names, 4, labels)


def gc_core_tight_instance(eps: float = 0.01, h: int = 10) -> Instance:
    """Two mirrored point clusters where greedy capture's core factor is attained.

    Three co-located agent groups of sizes 6h-1, 6h-1 and 3h+2 travel between
    mirrored regions; the slightly-too-wide cheap stops capture the two big
    groups first, leaving groups 1 and 2 paying a factor 1+sqrt(2)-eps more
    than under the tight stops.  Budget 5; three decoy stops at infinity.
    """
    _check(0.0 <= eps < 1.0, f"eps must lie in [0, 1), got {eps}")
    _check(1 <= h < INF and int(h) == h, f"h must be a positive integer, got {h}")
    h = int(h)
    b = _MetricBuilder()
    near = [1.0, SQRT2 - 1.0, 1.0]
    wide = [1.0 + SQRT2 - eps, 1.0 - (SQRT2 - 1.0) * eps, 1.0 - (SQRT2 - 1.0) * eps]
    for side, eps_names, tight, loose in (
        ("a", ["a1", "a2", "a3"], "t1", "t2"),
        ("b", ["b1", "b2", "b3"], "t3", "t4"),
    ):
        for e, endpoint in enumerate(eps_names):
            b.dist(tight, endpoint, near[e])
            b.dist(loose, endpoint, wide[e])
    group_sizes = [6 * h - 1, 6 * h - 1, 3 * h + 2]
    endpoints = []
    for g, size in enumerate(group_sizes):
        endpoints.extend([(f"a{g + 1}", f"b{g + 1}")] * size)
    # Decoys t5 to t7 are named only here, so they sit at infinity.
    return b.instance(endpoints, [f"t{j}" for j in range(1, 8)], 5)


def eca_jr_tight_instance(eps: float = 0.01) -> Instance:
    """Four agents across two mirrored regions where expanding cost is worst.

    The slightly cheap stop pair covers agents 2-4 a hair before the tight
    pair would, stranding agent 1 at cost ratio 1+sqrt(2) (minus an eps
    sliver).  Note the eps perturbation makes the raw table of segments
    triangle-infeasible; the shortest-path closure trims two long entries by
    O(eps), which leaves the blocking coalition's ratios untouched.
    """
    _check(0.0 <= eps < 1.0, f"eps must lie in [0, 1), got {eps}")
    b = _MetricBuilder()
    near = [1.0, SQRT2 - 1.0, 1.0 + SQRT2]
    cheap = [1.0 + SQRT2, 1.0 - eps / 4.0, 1.0 - eps / 4.0]
    for side, eps_names, tight, loose in (
        ("a", ["a1", "a23", "a4"], "t1", "t2"),
        ("b", ["b1", "b23", "b4"], "t3", "t4"),
    ):
        for e, endpoint in enumerate(eps_names):
            b.dist(tight, endpoint, near[e])
            b.dist(loose, endpoint, cheap[e])
    endpoints = [("a1", "b1"), ("a23", "b23"), ("a23", "b23"), ("a4", "b4")]
    return b.instance(endpoints, ["t1", "t2", "t3", "t4"], 3)


def kz_core_failure_instance(gamma: float = 1.0, r: int = 2) -> Instance:
    """Complete-graph construction on which expanding cost has no core factor.

    Vertices of a complete graph are mutually unreachable stop locations;
    each edge carries two on-edge stops one unit in from either side and
    ``r`` agents traveling across.  Expanding cost spends the whole budget on
    the on-edge pairs at cost 2 each, while the vertex stops would serve the
    vertex-to-vertex agents for free.  The family stops at 17 vertices
    (``gamma <= 8`` at ``r = 2``, 561 points): closing and validating its
    metric grows as z^6 and takes about 2 s there.
    """
    _check(1.0 <= gamma < INF, f"gamma must be finite and >= 1, got {gamma}")
    _check(2 <= r < INF and int(r) == r, f"r must be an integer >= 2, got {r}")
    r = int(r)
    z = math.ceil(r / (r - 1) * gamma + 1 - 1e-12)
    _check(z <= 17, f"gamma must give at most 17 vertices, ceil(r/(r-1)*gamma + 1); "
                    f"gamma={gamma} with r={r} gives {z}")
    b = _MetricBuilder()
    for v in range(1, z + 1):
        b.point(f"v{v}")
    edges = list(itertools.combinations(range(1, z + 1), 2))
    for i, j in edges:
        # Branch of the cluster around vertex i, then around vertex j.
        b.dist(f"v{i}", f"s{j}.{i}", 1.0)
        b.dist(f"s{j}.{i}", f"p{i}.{j}", 1.0)
        b.dist(f"v{j}", f"s{i}.{j}", 1.0)
        b.dist(f"s{i}.{j}", f"p{j}.{i}", 1.0)
    endpoints = []
    for i, j in edges:
        endpoints.extend([(f"v{i}", f"v{j}")] * (r - 1))
        endpoints.append((f"p{i}.{j}", f"p{j}.{i}"))
    cand_names = [f"v{v}" for v in range(1, z + 1)]
    labels = [f"t{v}" for v in range(1, z + 1)]
    for i, j in edges:
        cand_names.extend([f"s{j}.{i}", f"s{i}.{j}"])
        labels.extend([f"t{j}{i}" if z < 10 else f"t{j}.{i}",
                       f"t{i}{j}" if z < 10 else f"t{i}.{j}"])
    return b.instance(endpoints, cand_names, z * z - z, labels)


def hybrid_core_tight_instance(
    lam: float = 0.5, eps: float = 0.01, delta: float = 0.5
) -> Instance:
    """Four-zone construction attaining the hybrid sweep's core lower bound.

    Each of four mutually unreachable zones holds a tight stop and a slightly
    cheaper wide stop; group sizes are tuned (via ``h = ceil(2/delta)``) so
    the wide stops always win the sweep while a near-double coalition prefers
    the four tight stops by the bound's factor.  Four decoys at infinity pad
    the candidate set to 12; budget 8.
    """
    _check(0.0 < lam <= 1.0, f"lam must lie in (0, 1], got {lam}")
    _check(0.0 <= eps < 1.0, f"eps must lie in [0, 1), got {eps}")
    _check(0.0 < delta <= 2.0 and 2.0 / delta < INF,
           f"delta must lie in (0, 2] with 2/delta finite, got {delta}")
    h = math.ceil(2.0 / delta - 1e-12)
    q = (math.sqrt(4 * lam * lam + 12 * lam + 1) - 2 * lam - 1) / (4 * lam)
    half = 1.0 / (2.0 * lam)
    b = _MetricBuilder()
    for z in range(1, 5):
        b.dist(f"x{z}", f"t{z}", 1.0)
        b.dist(f"x{z}", f"c{z}", 1.0 + q + half - eps)
        b.dist(f"y{z}", f"t{z}", q)
        b.dist(f"y{z}", f"c{z}", half - q * eps)
        b.dist(f"z{z}", f"t{z}", 1.0 + q)
        b.dist(f"z{z}", f"c{z}", half - q * eps)
    groups = [
        (h - 1, ("x1", "x3")),
        (h - 1, ("x2", "x4")),
        (h - 1, ("y1", "y2")),
        (h - 1, ("y3", "y4")),
        (2, ("z1", "z2")),
        (2, ("z3", "z4")),
    ]
    endpoints = [pair for size, pair in groups for _ in range(size)]
    # Decoys c5 to c8 are named only here, so they sit at infinity.
    stops = [f"t{z}" for z in range(1, 5)] + [f"c{z}" for z in range(1, 9)]
    return b.instance(endpoints, stops, 8)


def clustering_lb_instance() -> Instance:
    """Twelve endpoints in three unreachable unit T-shapes; budget 6 of 9 centers.

    Whatever an endpoint-only (clustering) selection rule picks, some pairing
    of the endpoints into agents leaves a two-agent coalition improving by a
    factor of 3 (or unboundedly, if a whole shape is skipped).  The emitted
    agent pairing is the adversarial one for selections that take two centers
    in each of the first two shapes.
    """
    b = _MetricBuilder()
    for g in range(3):
        left, top, right, center = (f"x{4 * g + i}" for i in (1, 2, 3, 4))
        b.dist(left, center, 1.0)
        b.dist(center, right, 1.0)
        b.dist(center, top, 1.0)
    endpoints = [("x1", "x8"), ("x4", "x5"), ("x2", "x3"),
                 ("x6", "x7"), ("x9", "x10"), ("x11", "x12")]
    return b.instance(endpoints, ["x1", "x2", "x3", "x5", "x6", "x7", "x9", "x10", "x11"], 6)


def motivating_instance() -> Instance:
    """Six agents on a small Euclidean grid with four corner stops, budget 3.

    Distances are Euclidean over the drawn coordinates (the grid does not fix
    a metric by itself; Euclidean is this generator's labeled choice) and
    rides between stops are free.  Picking the three stops that ignore the
    four parallel commuters leaves a two-thirds coalition improving on the
    skipped pair.
    """
    coords = {
        "a1": (-1, 5), "a2": (0, 6), "a3": (1, 5), "a4": (0, 4),
        "a5": (-1, 2), "b5": (0, 1), "a6": (5, 6), "b6": (6, 5),
        "b1": (4, 2), "b2": (6, 2), "b3": (5, 1), "b4": (5, 3),
        "c1": (0, 5), "c2": (0, 2), "c3": (5, 5), "c4": (5, 2),
    }
    return _MetricBuilder(coords).instance(
        [(f"a{i}", f"b{i}") for i in range(1, 7)], ["c1", "c2", "c3", "c4"], 3)


def line_pf_example(ell: int = 1) -> LineClusteringInstance:
    """Four datapoints and four centers on a line where block sweeps lose fairness.

    The nearest-right block rule picks the centers at 6 and 13; letting each
    block's ``ell``-th member pick its nearest center yields 2 and 9 instead,
    which is exactly proportionally fair.
    """
    return LineClusteringInstance(
        datapoints=(1.0, 3.0, 8.0, 10.0),
        centers=(2.0, 6.0, 9.0, 13.0),
        k=2,
        ell=ell,
    )


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

TRANSIT_MODES = ("null", "scaled", "random")


def random_euclidean(
    n: int,
    m: int,
    k: int,
    seed: int,
    transit: str = "null",
    factor: float = 1.0,
) -> Instance:
    """Uniform points in the unit square with a choice of transit metric.

    ``transit="null"`` makes rides free; ``"scaled"`` prices them at
    ``factor`` times the Euclidean candidate distance; ``"random"`` draws a
    symmetric matrix and repairs it into a metric by shortest-path closure.
    Deterministic for a given seed.
    """
    if n < 1 or m < 1 or not 1 <= k <= m:
        raise ValueError(f"need n, m >= 1 and 1 <= k <= m, got n={n} m={m} k={k}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if transit not in TRANSIT_MODES:
        raise ValueError(f"transit must be one of {TRANSIT_MODES}, got {transit!r}")
    if not (math.isfinite(factor) and factor >= 0.0):
        raise ValueError(f"factor must be finite and >= 0, got {factor}")
    rng = np.random.default_rng(seed)
    walk = _euclidean(rng.uniform(0.0, 1.0, size=(2 * n + m, 2)))
    cand = np.arange(2 * n, 2 * n + m)
    if transit == "null":
        ride = np.zeros((m, m))
    elif transit == "scaled":
        ride = factor * walk[np.ix_(cand, cand)]
    else:
        raw = rng.uniform(0.0, 1.0, size=(m, m))
        ride = np.minimum(raw, raw.T)
        np.fill_diagonal(ride, 0.0)
        _closure(ride)
    return _instance(np.arange(2 * n).reshape(n, 2), cand, walk, ride, k)


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------


FAMILIES = {
    "motivating": (motivating_instance, ()),
    "jr-lower": (jr_lower_instance, ()),
    "clustering-lb": (clustering_lb_instance, ()),
    "gc-jr-tight": (gc_jr_tight_instance, ("eps",)),
    "gc-core-tight": (gc_core_tight_instance, ("eps", "h")),
    "eca-jr-tight": (eca_jr_tight_instance, ("eps",)),
    "kz": (kz_core_failure_instance, ("gamma", "r")),
    "hybrid-jr-tight": (hybrid_jr_tight_instance, ("lam", "eps")),
    "hybrid-core-tight": (hybrid_core_tight_instance, ("lam", "eps", "delta")),
    "line-pf": (line_pf_example, ("ell",)),
}

_ALIASES = {
    "fig1": "motivating",
    "motivating-fig1": "motivating",
    "table3": "jr-lower",
    "jr-lower-table3": "jr-lower",
    "fig4": "clustering-lb",
    "clustering-impossibility-fig4": "clustering-lb",
    "fig5": "gc-jr-tight",
    "gc-jr-tight-fig5": "gc-jr-tight",
    "table4": "gc-core-tight",
    "gc-core-tight-table4": "gc-core-tight",
    "table5": "eca-jr-tight",
    "eca-jr-tight-table5": "eca-jr-tight",
    "eca-core-fail-kz": "kz",
    "fig6": "hybrid-jr-tight",
    "hybrid-jr-tight-fig6": "hybrid-jr-tight",
    "table6": "hybrid-core-tight",
    "table7": "hybrid-core-tight",
    "hybrid-core-tight-table6": "hybrid-core-tight",
    "fig7": "line-pf",
    "line-fig7": "line-pf",
}


def canonical_family(name: str) -> str:
    """Resolve a family name or alias to its canonical registry key."""
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    if key not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}")
    return key


def generate(name: str, **params):
    """Build the named family instance from its parameters as keywords, for
    example ``generate("eca-jr-tight", eps=0.02)``; ``name`` may be any alias
    :func:`canonical_family` resolves.  Returns a line instance for
    ``line-pf``; an unknown name or a parameter the family does not take
    raises ``ValueError``."""
    key = canonical_family(name)
    builder, allowed = FAMILIES[key]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"family {key!r} does not take parameters {sorted(unknown)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def _encode_tri(d: np.ndarray) -> list:
    out: list = []
    for i in range(d.shape[0]):
        for j in range(i + 1):
            v = d[i, j]
            out.append("inf" if math.isinf(v) else float(v))
    return out


#: The range of numpy's default integer, which the instance's index arrays hold.
_INT_RANGE = np.iinfo(int)


def _int(value, fieldname: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceParseError(f"field '{fieldname}' must hold integers, got {value!r}")
    if not _INT_RANGE.min <= value <= _INT_RANGE.max:
        raise InstanceParseError(f"field '{fieldname}' holds an integer outside "
                                 f"[{_INT_RANGE.min}, {_INT_RANGE.max}]")
    return value


def _decode_tri(values, size: int, fieldname: str) -> np.ndarray:
    expected = size * (size + 1) // 2
    if not isinstance(values, list) or len(values) != expected:
        raise InstanceParseError(
            f"field '{fieldname}' must hold {expected} lower-triangular entries, "
            f"got {len(values) if isinstance(values, list) else type(values).__name__}"
        )
    d = np.zeros((size, size))
    it = iter(values)
    for i in range(size):
        for j in range(i + 1):
            v = next(it)
            if isinstance(v, str) and v.lower() in ("inf", "infinity", "+inf"):
                x = INF
            elif isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0:
                try:
                    x = float(v)  # NaN and -inf fail the test above
                except OverflowError:
                    raise InstanceParseError(
                        f"field '{fieldname}': an integer entry exceeds the float range") from None
            else:
                raise InstanceParseError(
                    f"field '{fieldname}': bad entry {v!r} (want a number >= 0 or \"inf\")")
            d[i, j] = d[j, i] = x
    return d


def write_instance(instance: Instance, path) -> None:
    """Write an instance as UTF-8 JSON with canonical key order.

    Lower-triangular row-major distance arrays; infinities encoded as the
    string ``"inf"``.  Candidate labels, when present, ride along in an
    optional ``labels`` field.
    """
    doc = {
        "n": instance.n,
        "m": instance.m,
        "k": instance.k,
        "points": instance.walk.size,
        "endpoints": [[int(a), int(b)] for a, b in instance.endpoints],
        "candidates": [int(c) for c in instance.candidates],
        "walk": _encode_tri(instance.walk.dist),
        "transit": _encode_tri(instance.transit.dist),
    }
    if instance.candidate_labels is not None:
        doc["labels"] = list(instance.candidate_labels)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Read an instance file written by :func:`write_instance` (any key order).

    Every distance entry must be a number >= 0 or ``"inf"``, the structure
    must show no :func:`~fairstops.model.structure_problems` (budget, index
    ranges), and the walk must meet :func:`~fairstops.model.walk_bound_problem`'s
    bound (O(n * m)); the other metric axioms cost O(p^3) and are left to
    :func:`validate_instance`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise InstanceParseError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceParseError(f"{path}: top level must be an object")
    for fieldname in ("n", "m", "k", "points", "endpoints", "candidates", "walk", "transit"):
        if fieldname not in doc:
            raise InstanceParseError(f"{path}: missing field '{fieldname}'")
    n, m, k, p = (_int(doc[key], key) for key in ("n", "m", "k", "points"))
    for fieldname, count in (("n", n), ("m", m), ("points", p)):
        if count < 0:
            raise InstanceParseError(f"{path}: field '{fieldname}' must be >= 0, got {count}")
    endpoints = doc["endpoints"]
    if not isinstance(endpoints, list) or len(endpoints) != n:
        raise InstanceParseError(f"{path}: field 'endpoints' must list {n} pairs")
    for row in endpoints:
        if not isinstance(row, list) or len(row) != 2:
            raise InstanceParseError(f"{path}: field 'endpoints' entries must be pairs")
        for v in row:
            _int(v, "endpoints")
    candidates = doc["candidates"]
    if not isinstance(candidates, list) or len(candidates) != m:
        raise InstanceParseError(f"{path}: field 'candidates' must list {m} indices")
    for c in candidates:
        _int(c, "candidates")
    walk = _decode_tri(doc["walk"], p, "walk")
    transit = _decode_tri(doc["transit"], m, "transit")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != m:
            raise InstanceParseError(f"{path}: field 'labels' must list {m} names")
        labels = tuple(str(s) for s in labels)
    instance = _instance(endpoints, candidates, walk, transit, k, labels)
    if problems := structure_problems(instance):
        raise InstanceParseError(f"{path}: " + "; ".join(problems))
    if problem := walk_bound_problem(instance):
        raise InstanceParseError(f"{path}: field 'walk': {problem}")
    return instance

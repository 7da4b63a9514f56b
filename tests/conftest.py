import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import fairstops as fs

sys.path.insert(0, str(Path(__file__).parent))

#: One line per acceptance criterion, echoed after the run (see test_acceptance).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def corpus_sizes(seed: int) -> tuple[int, int, int]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 21))
    m = int(rng.integers(2, 11))
    k = int(rng.integers(2, min(5, m) + 1))
    return n, m, k


def grid_instance(xy, m: int, k: int, ride=None) -> fs.Instance:
    """The 2n endpoints and then m candidates at grid points ``xy`` under L1
    walking distances.  ``ride`` holds integer ride lengths (its upper
    triangle is used), closed under shortest paths into the transit metric;
    None makes rides free."""
    xy = np.asarray(xy, dtype=float)
    n = (len(xy) - m) // 2
    walk = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    if ride is None:
        transit = np.zeros((m, m))
    else:
        upper = np.triu(np.asarray(ride, dtype=float).reshape(m, m), 1)
        transit = upper + upper.T
        for mid in range(m):
            transit = np.minimum(transit, transit[:, [mid]] + transit[[mid], :])
    return fs.Instance(
        endpoints=np.arange(2 * n).reshape(n, 2),
        candidates=np.arange(2 * n, 2 * n + m),
        walk=fs.Metric(walk),
        transit=fs.Metric(transit),
        k=k,
    )


@st.composite
def grid_instances(draw):
    """Small instances on a 4 x 4 integer grid under L1 walking distances, so
    that distances, route costs and order statistics tie often."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(2, 7))
    k = draw(st.integers(1, m))
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    xy = draw(st.lists(cells, min_size=2 * n + m, max_size=2 * n + m))
    ride = None
    if not draw(st.booleans()):
        ride = draw(st.lists(st.integers(0, 4), min_size=m * m, max_size=m * m))
    return grid_instance(xy, m, k, ride)


#: Values an instance file must not carry: (field, index or None, value).
#: Each must fail to read with an error naming the field.
BAD_FIELD_VALUES = [
    pytest.param("n", None, "abc", id="n-str"),
    pytest.param("n", None, -1, id="n-negative"),
    pytest.param("m", None, -1, id="m-negative"),
    pytest.param("points", None, -2, id="points-negative"),
    pytest.param("k", None, 1.7, id="k-float"),
    pytest.param("k", None, True, id="k-bool"),
    pytest.param("walk", 1, [0.5], id="walk-list"),
    pytest.param("walk", 1, float("nan"), id="walk-nan"),
    pytest.param("walk", 1, -5.0, id="walk-negative"),
    pytest.param("walk", 1, float("-inf"), id="walk-minus-inf"),
    pytest.param("transit", 1, -1.0, id="transit-negative"),
    pytest.param("transit", 0, None, id="transit-null"),
    pytest.param("endpoints", 0, [0, "1"], id="endpoints-str"),
    pytest.param("endpoints", 0, [0, 1.0], id="endpoints-float"),
    pytest.param("candidates", 0, "8", id="candidates-str"),
    pytest.param("endpoints", 0, [0, 2**63], id="endpoints-past-int64"),
    pytest.param("candidates", 0, -2**63 - 1, id="candidates-past-int64"),
    pytest.param("walk", 1, 10**400, id="walk-past-float"),
    pytest.param("transit", 1, 10**400, id="transit-past-float"),
    pytest.param("labels", None, [1, "b", "c", "d"], id="labels-int"),
    pytest.param("labels", None, ["a", None, "c", "d"], id="labels-null"),
    pytest.param("labels", None, ["a", "b", ["c"], "d"], id="labels-list"),
]


def write_bad_field_value(path, field, index, value) -> None:
    """Write ``random_euclidean(4, 4, 2, 0)`` to ``path`` with one value replaced."""
    fs.write_instance(fs.random_euclidean(4, 4, 2, 0), path)
    doc = json.loads(path.read_text())
    if index is None:
        doc[field] = value
    else:
        doc[field][index] = value
    path.write_text(json.dumps(doc))


def walk_bound_breaker() -> fs.Instance:
    """Three agents whose endpoints are 10 apart but 1 from stop 0 (stop 1 is
    unreachable), at k = 1: a route through stop 0 alone beats every walk."""
    walk = np.full((8, 8), 2.0)
    for i in range(3):
        walk[2 * i, 2 * i + 1] = walk[2 * i + 1, 2 * i] = 10.0
    walk[:6, 6] = walk[6, :6] = 1.0
    walk[7, :] = walk[:, 7] = np.inf
    np.fill_diagonal(walk, 0.0)
    return fs.Instance(
        endpoints=[(0, 1), (2, 3), (4, 5)],
        candidates=[6, 7],
        walk=fs.Metric(walk),
        transit=fs.Metric([[0.0, np.inf], [np.inf, 0.0]]),
        k=1,
    )


def adversarial_instance() -> fs.Instance:
    """``random_euclidean(12, 6, 3, 5, "random")`` with every route sum
    exposed: rides made asymmetric with a nonzero diagonal, one ride INF and
    two -0.0 (one of them a stop's own), and every direct walk cut, so no
    route hides under the walk cap."""
    base = fs.random_euclidean(12, 6, 3, 5, transit="random")
    ride = base.transit.dist + np.random.default_rng(5).uniform(0.0, 0.3, (base.m, base.m))
    ride[0, 1], ride[2, 4], ride[3, 3] = np.inf, -0.0, -0.0
    walk = base.walk.dist.copy()
    walk[tuple(base.endpoints.T)] = walk[tuple(base.endpoints.T[::-1])] = np.inf
    return fs.Instance(endpoints=base.endpoints, candidates=base.candidates,
                       walk=fs.Metric(walk), transit=fs.Metric(ride), k=base.k)


def family_instances():
    """Every named family at default parameters, clustering families embedded,
    plus the tight families at the parameters the acceptance tests use."""
    out = []
    for name in sorted(fs.FAMILIES):
        inst = fs.generate(name)
        if isinstance(inst, fs.LineClusteringInstance):
            inst = fs.clustering_to_trsp(fs.line_to_clustering(inst))
        out.append((name, inst))
    for lam in (0.25, 0.5, 1.0):
        for name in ("hybrid-jr-tight", "hybrid-core-tight"):
            out.append((f"{name} lam={lam}", fs.generate(name, lam=lam, eps=0.01)))
    return out


@pytest.fixture(scope="session")
def corpus():
    """100 seeded random unit-square instances with free transit."""
    return [fs.random_euclidean(*corpus_sizes(seed), seed) for seed in range(100)]


@pytest.fixture(scope="session")
def corpus_random_transit():
    """Same sizes and seeds, transit drawn as a repaired random metric."""
    return [
        fs.random_euclidean(*corpus_sizes(seed), seed, transit="random")
        for seed in range(100)
    ]


@pytest.fixture(scope="session")
def gc_outputs(corpus):
    return [fs.gc_trsp(inst)[0] for inst in corpus]


@pytest.fixture(scope="session")
def eca_outputs(corpus):
    return [fs.eca(inst)[0] for inst in corpus]


@pytest.fixture(scope="session")
def hybrid_outputs(corpus):
    return {
        lam: [fs.hybrid(inst, lam)[0] for inst in corpus]
        for lam in (0.25, 0.5, 1.0)
    }

"""Clustered commuter instances, generated by the benchmark itself.

Agents travel from two suburbs to a central business district (most of
them) or to a secondary job centre, the way the small-market carpooling
data the paper ends with is laid out.  One agent in nine starts anywhere
in the unit square.  Half of the candidate stops sit near a suburb or a job
centre, the rest anywhere.  Walking is Euclidean; transit is either free
(``"null"``) or a random metric repaired by shortest-path closure
(``"random"``).

The layout of suburbs and job centres and the share of agents on each
corridor are fixed; the seed only moves points within them.  This keeps
the work a sweep does from one seed to the next close, while the inputs
still differ.  With ``k = 6`` each suburb-to-district corridor holds more
than ``ceil(2n/k)`` agents, so pairs of stops open and a placement that
misses a corridor is blocked.
"""

from __future__ import annotations

import numpy as np

SUBURBS = np.array([[0.12, 0.18], [0.85, 0.22]])
JOBS = np.array([[0.5, 0.78], [0.2, 0.75]])
#: Share of agents living in SUBURBS[0]; the rest live in SUBURBS[1].
SUBURB_SHARE = 0.75
#: Share of agents commuting to JOBS[0]; the rest go to JOBS[1].
DISTRICT_SHARE = 0.8


def _closure(ride: np.ndarray) -> np.ndarray:
    for mid in range(ride.shape[0]):
        np.minimum(ride, ride[:, [mid]] + ride[[mid], :], out=ride)
    return ride


def commuter_arrays(n: int, m: int, seed: int, transit: str):
    """Walk matrix, transit matrix, endpoint pairs and candidate indices."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    suburb = np.where(idx % 4 < 4 * SUBURB_SHARE, 0, 1)
    origin = SUBURBS[suburb] + rng.normal(0.0, 0.05, size=(n, 2))
    job = np.where((idx // 4) % 5 < 5 * DISTRICT_SHARE, 0, 1)
    dest = JOBS[job] + rng.normal(0.0, 0.04, size=(n, 2))
    stray = idx % 9 == 8
    origin[stray] = rng.uniform(0.0, 1.0, size=(int(stray.sum()), 2))
    hubs = np.concatenate([SUBURBS, JOBS])
    near = m // 2
    cand = np.concatenate([
        hubs[np.arange(near) % len(hubs)] + rng.normal(0.0, 0.06, size=(near, 2)),
        rng.uniform(0.0, 1.0, size=(m - near, 2)),
    ])
    ends = np.empty((2 * n, 2))
    ends[0::2] = origin
    ends[1::2] = dest
    pts = np.concatenate([ends, cand])
    diff = pts[:, None, :] - pts[None, :, :]
    walk = np.sqrt((diff ** 2).sum(axis=2))
    if transit == "null":
        ride = np.zeros((m, m))
    elif transit == "random":
        raw = rng.uniform(0.0, 1.0, size=(m, m))
        ride = np.minimum(raw, raw.T)
        np.fill_diagonal(ride, 0.0)
        _closure(ride)
    else:
        raise ValueError(f"transit must be null or random, got {transit!r}")
    endpoints = np.arange(2 * n).reshape(n, 2)
    candidates = np.arange(2 * n, 2 * n + m)
    return walk, ride, endpoints, candidates


def commuter_instance(lib, n: int, m: int, k: int, seed: int, transit: str = "null"):
    """A ``fairstops.Instance`` over :func:`commuter_arrays`."""
    walk, ride, endpoints, candidates = commuter_arrays(n, m, seed, transit)
    return lib.Instance(
        endpoints=endpoints,
        candidates=candidates,
        walk=lib.Metric(walk),
        transit=lib.Metric(ride),
        k=k,
    )

"""Reference fairness factors computed from the raw distance matrices.

Everything here works on plain numpy arrays (the walk matrix, the transit
matrix, the endpoint pairs and the candidate point indices) and shares no
code with ``fairstops.model`` or ``fairstops.fairness``.  Costs of all
deviation targets of one size are evaluated at once as an
``(agents x targets)`` table, and a target's blockable factor is the
``t``-th largest improvement ratio in its column.

Ratio conventions follow the paper's extended reals: ``0/0 = 1``,
``x/0 = inf`` for ``x > 0``, ``x/inf = 0`` for finite ``x`` and
``inf/inf = 1``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def ratios(cy: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """Improvement ratios ``cy / ct``, broadcast, under the conventions above."""
    cy, ct = np.broadcast_arrays(np.asarray(cy, dtype=float), np.asarray(ct, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = cy / ct
    out = np.where(ct == 0.0, np.where(cy == 0.0, 1.0, math.inf), out)
    return np.where(np.isinf(ct), np.where(np.isinf(cy), 1.0, 0.0), out)


def kth_largest(table: np.ndarray, t: int) -> np.ndarray:
    """Per column, the ``t``-th largest entry of an ``(agents x targets)`` table."""
    return np.sort(table, axis=0)[table.shape[0] - t]


class Problem:
    """A placement instance as raw matrices."""

    def __init__(self, walk, transit, endpoints, candidates, k):
        self.walk = np.asarray(walk, dtype=float)
        self.transit = np.asarray(transit, dtype=float)
        ends = np.asarray(endpoints, dtype=int).reshape(-1, 2)
        cand = np.asarray(candidates, dtype=int)
        self.n, self.m, self.k = len(ends), len(cand), int(k)
        self.to_stop_a = self.walk[np.ix_(ends[:, 0], cand)]
        self.to_stop_b = self.walk[np.ix_(ends[:, 1], cand)]
        self.direct = self.walk[ends[:, 0], ends[:, 1]]
        # Datapoints of the induced clustering: a_0, b_0, a_1, b_1, ...
        self.point_stop = self.walk[np.ix_(ends.reshape(-1), cand)]

    @classmethod
    def of(cls, instance) -> "Problem":
        """Read the raw matrices of a ``fairstops.Instance``."""
        return cls(instance.walk.dist, instance.transit.dist, instance.endpoints,
                   instance.candidates, instance.k)

    def target_costs(self, targets: np.ndarray) -> np.ndarray:
        """Agent costs (walking included) under each target, ``(n x len(targets))``.

        ``targets`` is an integer array with one stop set per row.  A route
        boards at any stop of the set and alights at any stop of the set.
        """
        targets = np.asarray(targets, dtype=int).reshape(len(targets), -1)
        best = np.full((self.n, len(targets)), math.inf)
        for on in range(targets.shape[1]):
            y1 = targets[:, on]
            for off in range(targets.shape[1]):
                y2 = targets[:, off]
                route = self.to_stop_a[:, y1] + self.transit[y1, y2][None, :] + self.to_stop_b[:, y2]
                np.minimum(best, route, out=best)
        return np.minimum(self.direct[:, None], best)

    def costs(self, stops) -> np.ndarray:
        """Agent costs under one stop set."""
        stops = sorted(set(int(s) for s in stops))
        if not stops:
            return self.direct.copy()
        return self.target_costs(np.array([stops]))[:, 0]

    def _factor(self, cy: np.ndarray, size: int, need: int) -> float:
        if need < 1 or need > self.n:
            return 1.0
        targets = np.array(list(itertools.combinations(range(self.m), size)), dtype=int)
        if not len(targets):
            return 1.0
        table = ratios(cy[:, None], self.target_costs(targets))
        return float(kth_largest(table, need).max())

    def jr_threshold(self) -> int:
        return -(-2 * self.n // self.k)

    def jr_factor(self, stops) -> float:
        """Tight pair-representation factor: over stop pairs, the ``ceil(2n/k)``-th
        largest improvement ratio, at least 1."""
        return max(1.0, self._factor(self.costs(stops), 2, self.jr_threshold()))

    def core_factor(self, stops, alpha) -> float:
        """Tight (alpha, beta)-core factor: over targets of every admissible size
        ``s``, the ``ceil(alpha * s * n / k)``-th largest ratio, at least 1."""
        alpha = Fraction(alpha)
        p, q = alpha.numerator, alpha.denominator
        cy = self.costs(stops)
        best = 1.0
        for size in range(1, min(self.m, (self.k * q) // p) + 1):
            need = -(-p * size * self.n // (self.k * q))
            best = max(best, self._factor(cy, size, need))
        return best

    def pf_factor(self, centers) -> float:
        """Tight proportional-fairness factor on the induced clustering: over
        single centers, the ``ceil(2n/k)``-th largest ratio of distances."""
        centers = sorted(set(int(c) for c in centers))
        d = self.point_stop
        near = d[:, centers].min(axis=1) if centers else np.full(2 * self.n, math.inf)
        need = -(-2 * self.n // self.k)
        if need > 2 * self.n:
            return 1.0
        return max(1.0, float(kth_largest(ratios(near[:, None], d), need).max()))

    def all_improve(self, stops, coalition, deviation) -> bool:
        """Whether every coalition member pays strictly less under the
        deviation than under the placement."""
        cy = self.costs(stops)
        ct = self.costs(deviation)
        return all(ct[i] < cy[i] for i in coalition)

"""One SHA-256 over the outputs of every sweep, verifier, exact search and
stop-set cost table on a fixed, seeded corpus.

A change that must leave every output as it was (a refactor or a speed-up)
keeps this digest; one that changes outputs on purpose says why.  Run from
the repository root:

    PYTHONPATH=src python tests/identity.py          # the digest
    PYTHONPATH=src python tests/identity.py --part   # one digest per section

The corpus is ``random_euclidean`` at 12 small sizes and at one size whose
tables span several row blocks, each under null, random and scaled transit;
small instances on an integer grid, whose costs tie often; the adversarial
and walk-bound-breaking instances of ``conftest.py``; and every named family
(``conftest.family_instances``).  The sections:

* ``sweeps``: the solution and trace of ``gc_trsp``, ``eca`` and ``hybrid``
  at weights 0, 0.3, 0.5, 0.7 and 1;
* ``jr``, ``core`` and ``pf``: each check's ratio and violation on every
  distinct placement the sweeps gave, the core at alpha 1 and 2 by
  enumeration, and by the integer program too where ``m <= 8``;
* ``pairs``: ``improving_pairs`` of every agent on those placements;
* ``mincost``: ``exact_min_cost`` where ``m <= 12``;
* ``rows``: the sets and the cost rows, as bytes, of ``stop_set_costs`` at
  each size from 0 to 5 (to 3 where ``m > 12``).

A call that raises records the error's type and message instead.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import fairstops as fs  # noqa: E402
from conftest import (  # noqa: E402
    adversarial_instance,
    family_instances,
    grid_instance,
    walk_bound_breaker,
)
from fairstops import model  # noqa: E402

SECTIONS = ("sweeps", "jr", "core", "pf", "pairs", "mincost", "rows")
LAMS = (0.0, 0.3, 0.5, 0.7, 1.0)


def corpus() -> list[tuple[str, fs.Instance]]:
    out = []
    rng = np.random.default_rng(2026)
    sizes = []
    for _ in range(12):
        m = int(rng.integers(3, 13))
        sizes.append((int(rng.integers(4, 25)), m, int(rng.integers(2, min(5, m) + 1))))
    # 780 pair rows, three row blocks of 349 at 600 agents.
    sizes.append((600, 40, 3))
    for seed, (n, m, k) in enumerate(sizes):
        for transit in ("null", "random", "scaled"):
            out.append((f"uniform {n} {m} {k} {seed} {transit}",
                        fs.random_euclidean(n, m, k, seed, transit)))
    for seed in range(6):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 8))
        xy = rng.integers(0, 4, size=(2 * n + m, 2))
        ride = rng.integers(0, 5, size=m * m) if seed % 2 else None
        out.append((f"grid {seed}", grid_instance(xy, m, int(rng.integers(1, m + 1)), ride)))
    out.append(("adversarial", adversarial_instance()))
    out.append(("walk-bound-breaker", walk_bound_breaker()))
    return out + family_instances()


def outcome(call):
    """``call()``, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, fs.EnumerationGuardError) as exc:
        return type(exc).__name__, str(exc)


def digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in SECTIONS}

    def put(section: str, label: str, value) -> None:
        hashes[section].update(f"{label}: {value!r}\n".encode())

    for name, inst in corpus():
        runs = [("gc", fs.gc_trsp), ("eca", fs.eca)]
        runs += [(f"hybrid {lam}", lambda x, lam=lam: fs.hybrid(x, lam)) for lam in LAMS]
        placements = []
        for alg, sweep in runs:
            sol, trace = sweep(inst)
            put("sweeps", f"{name} {alg}", (sol, trace))
            placements += [sol.stops] if sol.stops not in placements else []
        clustering = fs.induce_clustering(inst)
        for stops in placements:
            label = f"{name} {stops}"
            put("jr", label, (outcome(lambda: fs.jr_ratio(inst, stops)),
                              outcome(lambda: fs.jr_violation(inst, stops))))
            for alpha in (1, 2):
                for backend in ("enumerate", "milp") if inst.m <= 8 else ("enumerate",):
                    put("core", f"{label} {alpha} {backend}", (
                        outcome(lambda: fs.core_ratio(inst, stops, alpha, backend)),
                        outcome(lambda: fs.core_violation(inst, stops, alpha, 1.0, backend))))
            put("pf", label, (fs.pf_ratio(clustering, stops), fs.pf_violation(clustering, stops)))
            put("pairs", label, [fs.improving_pairs(inst, i, stops) for i in range(inst.n)])
        if inst.m <= 12:
            put("mincost", name, outcome(lambda: fs.exact_min_cost(inst)))
        for size in range(6 if inst.m <= 12 else 4):
            # Sets and rows each hash as one stream, so the digest does not
            # depend on where the blocks split them.
            sets_hash, rows_hash = hashlib.sha256(), hashlib.sha256()
            for sets, routes in model.stop_set_costs(inst, [size]):
                sets_hash.update(sets.astype(np.int64).tobytes())
                rows_hash.update(routes.tobytes())
            put("rows", f"{name} {size}", (sets_hash.hexdigest(), rows_hash.hexdigest()))
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", action="store_true", help="print one digest per section")
    args = parser.parse_args(argv)
    parts = digests()
    if args.part:
        for name, digest in parts.items():
            print(name, digest)
    whole = "".join(f"{name} {digest}\n" for name, digest in parts.items())
    print(hashlib.sha256(whole.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A small reproducible batch sweep, via the same entry point as the CLI.

Runs all three algorithms over seeded random instances, collects tight
fairness factors per row, and summarizes how far below the worst-case
guarantees typical instances sit.
"""

import csv
import statistics
import tempfile
from pathlib import Path

import fairstops as fs
from fairstops.cli import main

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    assert main([
        "experiment", "--out", str(out),
        "--rounds", "20", "--n", "12", "--m", "8", "--k", "2,4",
        "--algs", "gc,eca,hybrid:0.5", "--checks", "jr,core", "--alpha", "2",
    ]) == 0
    with open(out) as fh:
        fh.readline()  # schema comment
        rows = list(csv.DictReader(fh))

bounds = {
    "gc": (fs.GC_JR_FACTOR, fs.GC_CORE_BETA),
    "eca": (fs.ECA_JR_FACTOR, None),
    "hybrid:0.5": (fs.hybrid_jr_factor(0.5), fs.hybrid_core_beta(0.5)),
}
print(f"{len(rows)} rows from {out.name}")
print("algorithm    mean jr  max jr  jr bound   mean core  max core  core beta")
for alg, (jr_bound, core_beta) in bounds.items():
    jr = [float(r["jr_factor"]) for r in rows if r["algorithm"] == alg]
    core = [float(r["core_factor"]) for r in rows if r["algorithm"] == alg]
    beta = f"{core_beta:8.3f}" if core_beta else "   none "
    print(f"{alg:11s} {statistics.mean(jr):8.3f} {max(jr):7.3f} {jr_bound:9.3f}"
          f"  {statistics.mean(core):9.3f} {max(core):9.3f} {beta}")
print("\nempirical factors stay far below the worst-case guarantees.")

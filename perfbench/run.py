#!/usr/bin/env python3
"""Benchmark of fairstops: stop placement, certification and the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload place --seed 0 --seconds 35 --trace 0

Workloads (closed loops, one operation at a time):

* ``place``: one operation takes one instance through ``gc_trsp``, ``eca``
  and ``hybrid`` at lambda = 0.5;
* ``certify``: one operation certifies one (instance, placement) pair with
  ``jr_ratio``, ``jr_violation``, ``core_ratio`` (both backends) and
  ``pf_ratio``;
* ``cli``: one operation is one ``python -m fairstops`` child process, in a
  fixed cycle of ``gen``, ``run --trace``, four ``verify --json`` calls and
  a small ``experiment``.

The seed fixes every input.  A run repeats whole rounds of the same
operations for about ``--seconds`` seconds, checks every output against
``reference.py``, the paper's guarantees or the sweep invariants, and
prints a digest of its outputs and, as its last line, one JSON object.
With ``--trace 0`` the object holds the end-to-end metrics, their times in
the reference seconds of ``calibrate.py``; with
``--trace 1`` it holds the per-layer metrics of ``layers.py``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
WORKLOADS = ("place", "certify", "cli")
#: Set-ups timed in fresh interpreters; setup_s is their median.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120

LAM = 0.5
GC_JR = 2.0 + math.sqrt(5.0)
GC_CORE_BETA = 1.0 + math.sqrt(2.0)
ECA_JR = 1.0 + math.sqrt(2.0)
HYBRID_JR = (LAM + 3.0 + math.sqrt(LAM * LAM + 10.0 * LAM + 9.0)) / 2.0
HYBRID_CORE_BETA = (math.sqrt(LAM * LAM + 6.0 * LAM + 1.0) + LAM + 1.0) / (2.0 * LAM)
#: Slack on a guarantee, as in the package's own tests.
BOUND_SLACK = 1e-9
#: Relative agreement required between a program factor and the reference.
FACTOR_RTOL = 1e-12

#: (generator, n, m, k, transit) of the place inputs, one operation each.
#: The work a sweep does on a uniform instance swings by 12 to 15 % (standard
#: deviation) from seed to seed, on a commuter instance by 4 to 8 %, so the
#: uniform inputs are the small ones.  Seven alike instances at n = 60 sit in
#: the middle, so the median operation is the middle one of them whatever
#: the seed, and their median swings less from seed to seed than any one.
PLACE_INPUTS = (
    ("uniform", 40, 16, 4, "null"),
    ("uniform", 50, 18, 4, "random"),
    *(("commuter", 60, 20, 4, transit)
      for transit in ("null", "random", "null", "random", "null", "random", "null")),
    ("commuter", 70, 24, 4, "random"),
    ("commuter", 80, 26, 5, "null"),
    ("commuter", 100, 30, 6, "null"),
)
#: (n, m, k, transit) of the certify instances.  At k = 6 a few placements in
#: a hundred make the core MILP branch for seconds instead of a tenth of one,
#: even at n = 24, and one such case moves a run's throughput by a third; at
#: k = 4 every case stays near the median.  Twelve instances a round keep the
#: sum close from seed to seed.
CERTIFY_INPUTS = tuple(
    (n, m, 4, transit)
    for n, m in ((24, 12), (28, 12), (32, 13), (36, 14), (40, 14), (40, 14))
    for transit in ("null", "random")
)
#: Seeded random k-subsets certified per instance, besides the eca output.
CERTIFY_RANDOM_PLACEMENTS = 2
#: Families certified with every distance scaled; the absolute tolerance in
#: fairness._improvers makes the witness disagree with the factor there.
SCALE_FAULT_FAMILIES = (("eca-jr-tight", "eca"), ("gc-jr-tight", "gc_trsp"))
SCALE_FAULT_FACTORS = (1e-10, 1e12)
SCALE_FAULT = "absolute TOL in fairness._improvers"


def pin_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The CPUs of a shared host change speed independently of each other
    within a fraction of a second, so the calibration kernels only tell the
    speed an operation ran at when both ran on the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cap_threads() -> None:
    """Cap BLAS and OpenMP threads of this process and its children at nproc."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = threads


def import_fairstops():
    """Import the package from this checkout's ``src``; return it, the
    seconds the import took and the number of modules it loaded."""
    if not (SRC / "fairstops" / "__init__.py").is_file():
        raise SystemExit(f"error: no fairstops package under {SRC}; "
                         "run from the root of a fairstops checkout")
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import fairstops
    elapsed = time.perf_counter() - t0
    if Path(fairstops.__file__).resolve().parent != SRC / "fairstops":
        raise SystemExit(f"error: imported fairstops from {fairstops.__file__}, not {SRC}")
    return fairstops, elapsed, len(sys.modules) - before


def same_factor(got: float, want: float) -> bool:
    if got == want:
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= FACTOR_RTOL * max(abs(got), abs(want))


@dataclass
class Op:
    """One benchmark operation: a timed call, its check and its digest text."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]
    #: The known program fault that makes this operation fail, if any.
    fault: str | None = None


def sweep_text(solution, trace) -> str:
    # Radii go through float(): hybrid mixes np.float64 and float radii.
    events = ";".join(
        f"{float(ev.radius)!r}/{ev.opened}/{ev.endpoints}/{ev.agents}" for ev in trace.events
    )
    return f"{solution.stops}|{events}"


def sweep_problems(name: str, instance, solution, trace) -> list[str]:
    """Trace invariants every sweep keeps."""
    out = []
    radii = [float(ev.radius) for ev in trace.events]
    if any(b < a for a, b in zip(radii, radii[1:])):
        out.append(f"{name}: radii decrease")
    retired = [e for ev in trace.events for e in ev.endpoints]
    retired += [e for ev in trace.events for i in ev.agents for e in (2 * i, 2 * i + 1)]
    if sorted(retired) != list(range(2 * instance.n)):
        out.append(f"{name}: not every agent or endpoint retired exactly once")
    opened = trace.opened()
    if len(set(opened)) != len(opened) or tuple(sorted(opened)) != solution.stops:
        out.append(f"{name}: opened stops {opened} differ from solution {solution.stops}")
    if len(solution.stops) > instance.k:
        out.append(f"{name}: {len(solution.stops)} stops exceed k={instance.k}")
    return out


def bound_problems(label: str, factor: float, bound: float) -> list[str]:
    return [] if factor <= bound + BOUND_SLACK else [f"{label} {factor!r} exceeds {bound!r}"]


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------


class Place:
    """The three sweeps on fixed uniform and commuter instances."""

    def __init__(self, fs, seed: int):
        from commuter import commuter_instance

        self.fs = fs
        self.instances = []
        for j, (gen, n, m, k, transit) in enumerate(PLACE_INPUTS):
            inst_seed = seed * 100 + j
            if gen == "uniform":
                inst = fs.random_euclidean(n, m, k, inst_seed, transit=transit)
            else:
                inst = commuter_instance(fs, n, m, k, inst_seed, transit)
            self.instances.append(inst)

    def ops(self) -> list[Op]:
        out = []
        for (gen, n, m, k, transit), inst in zip(PLACE_INPUTS, self.instances):
            out.append(Op(
                name=f"place/{gen}-{n}x{m}-k{k}-{transit}",
                run=lambda inst=inst: self.sweep(inst),
                check=lambda res, inst=inst: self.check(inst, res),
                digest=lambda res: "\n".join(sweep_text(*r) for r in res),
            ))
        return out

    def sweep(self, inst):
        fs = self.fs
        return fs.gc_trsp(inst), fs.eca(inst), fs.hybrid(inst, LAM)

    def check(self, inst, res) -> list[str]:
        from fairstops.algorithms import greedy_capture
        from fairstops.model import induce_clustering
        from reference import Problem

        (gc, gc_trace), (ec, ec_trace), (hy, hy_trace) = res
        out = sweep_problems("gc_trsp", inst, gc, gc_trace)
        out += sweep_problems("eca", inst, ec, ec_trace)
        out += sweep_problems("hybrid", inst, hy, hy_trace)
        twin = tuple(sorted(greedy_capture(induce_clustering(inst))[0]))
        if twin != gc.stops:
            out.append(f"gc_trsp {gc.stops} != greedy_capture {twin}")
        ref = Problem.of(inst)
        out += bound_problems("eca JR", ref.jr_factor(ec.stops), ECA_JR)
        if inst.null_transit:
            out += bound_problems("gc JR", ref.jr_factor(gc.stops), GC_JR)
            out += bound_problems("gc (2, beta)-core", ref.core_factor(gc.stops, 2), GC_CORE_BETA)
            out += bound_problems("hybrid JR", ref.jr_factor(hy.stops), HYBRID_JR)
            out += bound_problems("hybrid (2, beta)-core", ref.core_factor(hy.stops, 2),
                                  HYBRID_CORE_BETA)
            out += bound_problems("hybrid PF", ref.pf_factor(hy.stops), HYBRID_CORE_BETA)
        return out


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def witness_text(w) -> str:
    return "-" if w is None else f"{w.coalition}/{w.deviation}/{float(w.factor)!r}"


def report_text(report) -> str:
    return f"{report.prop}:{float(report.factor)!r}:{witness_text(report.witness)}"


class Certify:
    """The verifiers on fixed (instance, placement) pairs."""

    def __init__(self, fs, seed: int):
        import numpy as np

        from commuter import commuter_instance

        self.fs = fs
        self.cases = []  # (name, instance, stops, fault)
        for j, (n, m, k, transit) in enumerate(CERTIFY_INPUTS):
            inst = commuter_instance(fs, n, m, k, seed * 100 + j, transit)
            tag = f"{n}x{m}-k{k}-{transit}"
            self.cases.append((f"certify/{tag}/eca", inst, fs.eca(inst)[0].stops, None))
            rng = np.random.default_rng([seed, j])
            for r in range(CERTIFY_RANDOM_PLACEMENTS):
                stops = tuple(sorted(int(c) for c in rng.choice(m, size=k, replace=False)))
                self.cases.append((f"certify/{tag}/random{r}", inst, stops, None))
        for family, alg in SCALE_FAULT_FAMILIES:
            base = fs.generate(family, eps=0.01)
            stops = getattr(fs, alg)(base)[0].stops
            for scale in SCALE_FAULT_FACTORS:
                inst = fs.Instance(
                    endpoints=base.endpoints,
                    candidates=base.candidates,
                    walk=fs.Metric(base.walk.dist * scale),
                    transit=fs.Metric(base.transit.dist * scale),
                    k=base.k,
                    candidate_labels=base.candidate_labels,
                )
                self.cases.append((f"certify/{family}-x{scale:g}", inst, stops, SCALE_FAULT))

    def ops(self) -> list[Op]:
        return [
            Op(
                name=name,
                run=lambda inst=inst, stops=stops: self.certify(inst, stops),
                check=lambda res, inst=inst, stops=stops: self.check(inst, stops, res),
                digest=lambda res: "\n".join(
                    [report_text(res[0]), witness_text(res[1])] + [report_text(r) for r in res[2:]]
                ),
                fault=fault,
            )
            for name, inst, stops, fault in self.cases
        ]

    def certify(self, inst, stops):
        fs = self.fs
        return (
            fs.jr_ratio(inst, stops),
            fs.jr_violation(inst, stops, 1.0),
            fs.core_ratio(inst, stops, 2, backend="enumerate"),
            fs.core_ratio(inst, stops, 2, backend="milp"),
            fs.pf_ratio(fs.induce_clustering(inst), stops),
        )

    def check(self, inst, stops, res) -> list[str]:
        from reference import Problem

        jr, violation, core_enum, core_milp, pf = res
        ref = Problem.of(inst)
        core = ref.core_factor(stops, 2)
        out = []
        for label, got, want in (
            ("jr_ratio", jr.factor, ref.jr_factor(stops)),
            ("core_ratio enumerate", core_enum.factor, core),
            ("core_ratio milp", core_milp.factor, core),
            ("pf_ratio", pf.factor, ref.pf_factor(stops)),
        ):
            if not same_factor(got, want):
                out.append(f"{label} {got!r} != reference {want!r}")
        if core_enum.factor != core_milp.factor:
            out.append(f"core backends differ: {core_enum.factor!r} vs {core_milp.factor!r}")
        thr = ref.jr_threshold()
        if jr.factor > 1.0:
            for label, w in (("jr_ratio", jr.witness), ("jr_violation(beta=1)", violation)):
                if w is None:
                    out.append(f"{label}: no witness for factor {jr.factor!r}")
                elif len(w.coalition) < thr:
                    out.append(f"{label}: witness of {len(w.coalition)} agents, threshold {thr}")
                elif not ref.all_improve(stops, w.coalition, w.deviation):
                    out.append(f"{label}: a witness member does not improve")
        elif violation is not None:
            out.append("jr_violation(beta=1) found a witness for factor 1")
        return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_N, CLI_M, CLI_K = 24, 12, 6
GEN_FAMILY = "gc-core-tight"
EXPERIMENT = dict(rounds=2, n=16, m=8, k=4)
CSV_SCHEMA = "# fairstops-experiment v1"


def _child_overran(signum, frame):
    raise TimeoutError(f"child process ran over {CHILD_TIMEOUT_S} s")


class Cli:
    """A fixed cycle of ``python -m fairstops`` child processes.

    Traced runs call ``fairstops.cli.main`` in-process instead, so that the
    layer wrappers see the calls.
    """

    def __init__(self, fs, seed: int, tracer=None):
        import numpy as np

        from commuter import commuter_instance

        self.fs = fs
        self.seed = seed
        self.tracer = tracer
        self.peak_rss_kb = 0
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(exist_ok=True)
        self.instance = commuter_instance(fs, CLI_N, CLI_M, CLI_K, seed * 100, "null")
        fs.write_instance(self.instance, self.dir / "instance.json")
        rng = np.random.default_rng([seed, 99])
        self.stops = tuple(sorted(int(c) for c in rng.choice(CLI_M, size=CLI_K, replace=False)))
        self.eps = float(rng.uniform(0.005, 0.05))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def commands(self) -> list[tuple[str, list[str]]]:
        inst = self.path("instance.json")
        sol = ",".join(str(c) for c in self.stops)
        verify = ["verify", "--instance", inst, "--solution", sol, "--json"]
        e = EXPERIMENT
        return [
            ("gen", ["gen", "--family", GEN_FAMILY, "--eps", repr(self.eps),
                     "--out", self.path("gen.json")]),
            ("run", ["run", "--instance", inst, "--alg", "hybrid", "--lam", repr(LAM),
                     "--trace", self.path("trace.json")]),
            ("verify-jr", verify + ["--prop", "jr"]),
            ("verify-core", verify + ["--prop", "core", "--alpha", "2"]),
            ("verify-core-milp", verify + ["--prop", "core", "--alpha", "2", "--backend", "milp"]),
            ("verify-pf", verify + ["--prop", "pf"]),
            ("experiment", ["experiment", "--out", self.path("experiment.csv"),
                            "--rounds", str(e["rounds"]), "--n", str(e["n"]), "--m", str(e["m"]),
                            "--k", str(e["k"]), "--seed-base", str(self.seed),
                            "--algs", f"gc,eca,hybrid:{LAM}", "--checks", "jr,core,pf",
                            "--alpha", "2"]),
        ]

    def ops(self) -> list[Op]:
        return [
            Op(
                name=f"cli/{name}",
                run=lambda argv=argv: self.call(argv),
                check=lambda res, name=name: self.check(name, res),
                # Output names the run's work directory; leave it out.
                digest=lambda res: f"{res[0]}\n{res[1].replace(str(self.dir), '.')}",
            )
            for name, argv in self.commands()
        ]

    def call(self, argv: list[str]) -> tuple[int, str]:
        """Run one subcommand; return its exit code and standard output."""
        if self.tracer:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.tracer.span(f"cli.{argv[0]}", self.fs.cli.main, argv)
            return code, buf.getvalue()
        out_path = self.dir / "stdout.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(out_path, "wb") as out, open(self.dir / "stderr.txt", "wb") as err:
            child = subprocess.Popen([sys.executable, "-m", "fairstops", *argv],
                                     stdout=out, stderr=err, cwd=ROOT, env=env)
            # os.wait4 reports the child's peak memory but takes no timeout.
            previous = signal.signal(signal.SIGALRM, _child_overran)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return child.returncode, out_path.read_text(encoding="utf-8")

    def check(self, name: str, res) -> list[str]:
        code, stdout = res
        if name == "gen":
            return self.check_gen(code)
        if name == "run":
            return self.check_run(code, stdout)
        if name == "experiment":
            return self.check_experiment(code)
        return self.check_verify(name, code, stdout)

    def check_gen(self, code: int) -> list[str]:
        from fairstops.instances import generate, read_instance

        if code != 0:
            return [f"gen exited {code}"]
        if read_instance(self.path("gen.json")) != generate(GEN_FAMILY, eps=self.eps):
            return ["gen file does not read back equal to generate(...)"]
        return []

    def check_run(self, code: int, stdout: str) -> list[str]:
        from fairstops.algorithms import hybrid

        if code != 0:
            return [f"run exited {code}"]
        solution, trace = hybrid(self.instance, LAM)
        want = [
            {
                "radius": "inf" if math.isinf(ev.radius) else float(ev.radius),
                "opened": list(ev.opened),
                "endpoints": list(ev.endpoints),
                "agents": list(ev.agents),
            }
            for ev in trace.events
        ]
        out = []
        with open(self.path("trace.json"), encoding="utf-8") as fh:
            if json.load(fh) != want:
                out.append("run --trace file differs from an in-process hybrid run")
        line = "stop indices: " + ",".join(str(c) for c in solution.stops)
        if line not in stdout.splitlines():
            out.append(f"run printed no line {line!r}")
        return out

    def check_verify(self, name: str, code: int, stdout: str) -> list[str]:
        from reference import Problem

        ref = Problem.of(self.instance)
        want = {
            "verify-jr": lambda: ref.jr_factor(self.stops),
            "verify-core": lambda: ref.core_factor(self.stops, 2),
            "verify-core-milp": lambda: ref.core_factor(self.stops, 2),
            "verify-pf": lambda: ref.pf_factor(self.stops),
        }[name]()
        try:
            doc = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"{name}: no JSON report (exit {code})"]
        got = math.inf if doc["factor"] == "inf" else float(doc["factor"])
        out = []
        if not same_factor(got, want):
            out.append(f"{name}: factor {got!r} != reference {want!r}")
        expected_code = 1 if want > 1.0 else 0
        if code != expected_code:
            out.append(f"{name}: exit {code}, expected {expected_code} for factor {want!r}")
        if bool(doc["coalition"]) != (code == 1):
            out.append(f"{name}: coalition {doc['coalition']} disagrees with exit {code}")
        return out

    def check_experiment(self, code: int) -> list[str]:
        import csv

        if code != 0:
            return [f"experiment exited {code}"]
        with open(self.path("experiment.csv"), encoding="utf-8") as fh:
            schema = fh.readline().rstrip("\n")
            rows = list(csv.DictReader(fh))
        out = []
        if schema != CSV_SCHEMA:
            out.append(f"experiment schema line {schema!r}")
        expected = EXPERIMENT["rounds"] * 3
        if len(rows) != expected:
            out.append(f"experiment wrote {len(rows)} rows, expected {expected}")
        jr_bound = {"gc": GC_JR, "eca": ECA_JR, f"hybrid:{LAM}": HYBRID_JR}
        core_bound = {"gc": GC_CORE_BETA, f"hybrid:{LAM}": HYBRID_CORE_BETA}
        pf_bound = {f"hybrid:{LAM}": HYBRID_CORE_BETA}
        for row in rows:
            if "error" in row.values():
                out.append(f"experiment row with an error cell: {row}")
                continue
            alg = row["algorithm"]
            for col, bounds in (("jr_factor", jr_bound), ("core_factor", core_bound),
                                ("pf_factor", pf_bound)):
                if alg in bounds:
                    out += bound_problems(f"experiment {alg} {col}", float(row[col]), bounds[alg])
        return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def build(fs, workload: str, seed: int, tracer=None):
    if workload == "place":
        return Place(fs, seed)
    if workload == "certify":
        return Certify(fs, seed)
    return Cli(fs, seed, tracer)


def setup_probe(workload: str, seed: int) -> float:
    """Time the set-up of the workload in a fresh interpreter, in reference
    seconds (the calibration kernels run here, around the child)."""
    import calibrate

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    before = calibrate.timed()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    after = calibrate.timed()
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return calibrate.scale(float(done.stdout.split()[-1]), before, after)


@dataclass
class Loop:
    #: Per operation, its time in each round in reference seconds.
    times: list[list[float]]
    #: Per operation, its wall time in each round in seconds.
    wall: list[list[float]]
    rounds: int
    attempted: int
    failed: int
    correct: bool
    digest: str


def measure(ops: list[Op], seconds: float, log) -> Loop:
    """Run whole rounds of ``ops`` until less than half a round of ``seconds``
    is left.  Each operation is bracketed by calibration kernels."""
    import calibrate

    times: list[list[float]] = [[] for _ in ops]
    wall: list[list[float]] = [[] for _ in ops]
    first: list[tuple[str, list[str]]] = []
    attempted = failed = rounds = 0
    correct = True
    start = time.perf_counter()
    while True:
        before = calibrate.timed()
        for j, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                res, error = op.run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                res, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            after = calibrate.timed()
            wall[j].append(elapsed)
            times[j].append(calibrate.scale(elapsed, before, after))
            text = error or op.digest(res)
            if rounds == 0:
                problems = [error] if error else op.check(res)
                first.append((text, problems))
                for p in problems:
                    log(f"{op.name}: {p}" + (f" [{op.fault}]" if op.fault else ""))
            elif text != first[j][0]:
                problems = ["output differs from the first round"]
                log(f"{op.name}: {problems[0]}")
            else:
                problems = first[j][1]
            attempted += 1
            if problems:
                failed += 1
                correct = correct and op.fault is not None
            # In the first round the checks ran since ``after``; time anew.
            before = after if rounds else calibrate.timed()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    digest = hashlib.sha256("\n".join(t for t, _ in first).encode()).hexdigest()
    return Loop(times, wall, rounds, attempted, failed, correct, digest)


def throughput(times: list[list[float]]) -> float:
    """A round's operations over the sum of each operation's median time, so
    that a stall in one round does not move the figure."""
    return len(times) / sum(statistics.median(ts) for ts in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_one_cpu()
    cap_threads()
    t0 = time.perf_counter()
    fs, import_s, modules = import_fairstops()
    # The benchmark's own modules load numpy; import them after timing the
    # package import so that it is measured in a fresh interpreter.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import METRICS, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.setup["import.fairstops_s"] = import_s
        tracer.setup["import.modules"] = modules
        tracer.install(fs)
    workload = build(fs, args.workload, args.seed, tracer)
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        if isinstance(workload, Cli):
            workload.close()
        print(repr(setup_s))
        return 0

    def log(msg: str) -> None:
        print(f"{args.workload}: {msg}", file=sys.stderr)

    try:
        setups = [] if args.trace else [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        ops = workload.ops()
        if tracer:
            tracer.bucket = tracer.loop
            for op in ops:
                op.check = tracer.untraced(op.check)
        loop = measure(ops, args.seconds, log)
    finally:
        if tracer:
            tracer.uninstall()
        if isinstance(workload, Cli):
            workload.close()

    ops_per_s = throughput(loop.times)
    op_p50 = statistics.median(t for ts in loop.times for t in ts)
    print(f"digest {args.workload} seed={args.seed} {loop.digest}")
    print(f"{args.workload}: {loop.rounds} rounds of {len(loop.times)} operations, "
          f"ops_per_s={ops_per_s:.6g} op_s.p50={op_p50:.6g} in reference seconds; "
          f"wall: ops_per_s={throughput(loop.wall):.6g} "
          f"op_s.p50={statistics.median(t for ts in loop.wall for t in ts):.6g}"
          + (" (traced)" if args.trace else ""))
    if args.trace:
        totals = tracer.totals(loop.rounds)
        metrics = {
            name: {"value": (int(round(totals[name])) if unit != "s" else totals[name]),
                   "unit": unit}
            for name, unit in METRICS
        }
    else:
        if isinstance(workload, Cli):
            peak_kb = workload.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_s.p50": {"value": op_p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": loop.correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

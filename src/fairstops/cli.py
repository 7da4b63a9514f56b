"""Command-line surface: generate instances, run algorithms, verify, batch-run.

Exit codes follow one convention across subcommands: 0 success / property
holds, 1 fairness witness found, 2 usage error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .algorithms import eca, exact_min_cost, gc_trsp, hybrid
from .fairness import (
    _as_alpha,
    _reaches,
    core_ratio,
    core_violation,
    jr_ratio,
    jr_violation,
    pf_ratio,
    pf_violation,
)
from .instances import (
    FAMILIES,
    InstanceParseError,
    generate,
    random_euclidean,
    read_instance,
    write_instance,
)
from .model import (
    EnumerationGuardError,
    Instance,
    induce_clustering,
    solution_costs,
    total_cost,
    validate_instance,
)

#: Every family parameter flag: name, type and help (``--lam`` is also ``--lambda``).
_FAMILY_PARAM_FLAGS = (
    ("eps", float, "tightness gap of the construction"),
    ("h", float, "group-size scale"),
    ("gamma", float, "coalition size factor (kz family)"),
    ("r", int, "agents per edge (kz family)"),
    ("lam", float, "hybrid mixing weight"),
    ("delta", float, "coalition-size gap"),
    ("ell", int, "dictator rank (line family)"),
)

USAGE_ERROR = 2
GUARD_ERROR = 3


class _CliError(Exception):
    """A refusal of the command line's input: exit 2."""


def _label(instance: Instance, c: int) -> str:
    if instance.candidate_labels is not None:
        return instance.candidate_labels[c]
    return f"s{c}"


def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _generate(args):
    """The ``--family`` instance built from the family parameter flags given."""
    params = {}
    for name, _, _ in _FAMILY_PARAM_FLAGS:
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    try:
        return generate(args.family, **params)
    except (ValueError, TypeError) as exc:
        # A family refusal opens with the name of the parameter it refuses.
        name = str(exc).split(" ", 1)[0]
        raise _CliError(f"--{name}: {exc}" if name in params else str(exc))


def _cmd_gen(args) -> int:
    built = _generate(args)
    if isinstance(built, Instance):
        issues = validate_instance(built)
        if issues:
            raise _CliError("generated instance failed validation: " + "; ".join(issues))
        write_instance(built, args.out)
        print(f"wrote {args.out}: n={built.n} m={built.m} k={built.k}")
        if built.candidate_labels:
            legend = "  ".join(f"{lb}={j}" for j, lb in enumerate(built.candidate_labels))
            print(f"stop legend: {legend}")
    else:
        # Line clustering instances use their own small format.
        doc = {
            "kind": "line-clustering",
            "datapoints": list(built.datapoints),
            "centers": list(built.centers),
            "k": built.k,
            "ell": built.ell,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}: line instance n={built.n} m={len(built.centers)} k={built.k}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _load_instance(path) -> Instance:
    try:
        return read_instance(path)
    except InstanceParseError as exc:
        raise _CliError(str(exc))
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")


def _sweep(alg: str, lam: float | None, flag: str):
    """The CSV name of sweep ``alg`` at weight ``lam`` and a callable that runs
    it on an instance; a weight for ``gc`` or ``eca``, or one outside [0, 1],
    is refused naming ``flag``.  The callable looks the sweep up in this
    module when called, not now."""
    if alg != "hybrid" and lam is not None:
        raise _CliError(f"{flag}: {alg} takes no weight, got {lam}")
    if alg == "gc":
        return alg, lambda inst: gc_trsp(inst)
    if alg == "eca":
        return alg, lambda inst: eca(inst)
    if lam is None or not 0.0 <= lam <= 1.0:
        raise _CliError(f"{flag}: hybrid weight must lie in [0, 1], got {lam}")
    return f"hybrid:{lam}", lambda inst: hybrid(inst, lam)


def _cmd_run(args) -> int:
    instance = _load_instance(args.instance)
    solution, trace = _sweep(args.alg, args.lam, "--lam")[1](instance)
    print("stops:", " ".join(_label(instance, c) for c in solution) or "(none)")
    print("stop indices:", ",".join(str(c) for c in solution))
    costs = solution_costs(instance, solution)
    print("agent costs:", " ".join(_fmt(c) for c in costs))
    print("total cost:", _fmt(float(costs.sum())))  # total_cost of the row above
    if args.trace:
        doc = [
            {
                "radius": "inf" if math.isinf(ev.radius) else ev.radius,
                "opened": list(ev.opened),
                "endpoints": list(ev.endpoints),
                "agents": list(ev.agents),
            }
            for ev in trace.events
        ]
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"trace written to {args.trace}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_solution(text: str, instance: Instance) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        stops = tuple(sorted({int(tok) for tok in text.split(",")}))
    except ValueError:
        raise _CliError(f"--solution must be comma-separated indices, got {text!r}")
    if stops and (stops[0] < 0 or stops[-1] >= instance.m):
        raise _CliError(f"--solution index out of range [0, {instance.m})")
    if len(stops) > instance.k:
        raise _CliError(f"--solution has {len(stops)} stops, over the budget k={instance.k}")
    return stops


def _parse_alpha(text: str) -> Fraction:
    try:
        return _as_alpha(text)
    except ValueError as exc:
        raise _CliError(f"--alpha: {exc}")


def _scipy_available() -> bool:
    """Whether ``scipy.optimize`` can be found, without executing it: only
    the ``scipy`` package itself is imported."""
    try:
        return importlib.util.find_spec("scipy.optimize") is not None
    except (ImportError, ValueError):
        return False


def _cmd_verify(args) -> int:
    # A missing scipy is a usage error on every input, found before any work;
    # the solver itself loads on the first probe the reach counts leave open.
    if args.prop == "core" and args.backend == "milp" and not _scipy_available():
        raise _CliError("--backend milp needs scipy")
    instance = _load_instance(args.instance)
    stops = _parse_solution(args.solution, instance)
    if not args.beta >= 1:
        raise _CliError(f"--beta must be >= 1, got {args.beta}")
    # A violation at beta exists exactly when the tight factor reaches beta
    # under the boundary rule, so the violation is searched for only then.
    if args.prop == "jr":
        report = jr_ratio(instance, stops)
        witness = _reaches(report.factor, args.beta) and jr_violation(instance, stops, args.beta)
    elif args.prop == "core":
        alpha = _parse_alpha(args.alpha)
        try:
            report = core_ratio(instance, stops, alpha, backend=args.backend)
            witness = _reaches(report.factor, args.beta) and core_violation(
                instance, stops, alpha, args.beta, backend=args.backend)
        except ImportError:
            # Found above but broken: exit 1 would read as a witness.
            raise _CliError("--backend milp needs scipy")
    else:
        clustering = induce_clustering(instance)
        report = pf_ratio(clustering, stops)
        witness = _reaches(report.factor, args.beta) and pf_violation(clustering, stops, args.beta)
    if args.json:
        doc = {
            "property": report.prop,
            "alpha": str(report.alpha) if report.alpha is not None else None,
            "factor": "inf" if math.isinf(report.factor) else report.factor,
            "coalition": list(witness.coalition) if witness else [],
            "deviation": list(witness.deviation) if witness else [],
        }
        print(json.dumps(doc))
        return 1 if witness else 0
    print("property:", args.prop)
    if args.prop == "core":
        print("alpha:", args.alpha)
    print("tight factor:", _fmt(report.factor))
    print(f"holds at beta={_fmt(args.beta)}:", "no" if witness else "yes")
    if witness:
        print("witness coalition:", ",".join(str(i) for i in witness.coalition))
        print(
            "witness deviation:",
            ",".join(str(c) for c in witness.deviation),
            "(" + " ".join(_label(instance, c) for c in witness.deviation) + ")",
        )
        print("witness factor:", _fmt(witness.factor))
        return 1
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

CSV_SCHEMA = "# fairstops-experiment v1"
CSV_COLUMNS = (
    "seed",
    "n",
    "m",
    "k",
    "transit_scale",
    "algorithm",
    "jr_factor",
    "core_alpha",
    "core_factor",
    "pf_factor",
    "total_cost",
    "runtime_ms",
)


def _parse_algs(text: str) -> list:
    out = []
    for tok in [tok.strip() for tok in text.split(",") if tok.strip()]:
        alg, colon, weight = tok.partition(":")
        if alg != "hybrid" and (colon or alg not in ("gc", "eca")):
            raise _CliError(f"--algs: unknown algorithm {tok!r}")
        try:  # a bare "hybrid" mixes at 0.5; gc and eca take no weight
            lam = float(weight) if colon else 0.5 if alg == "hybrid" else None
        except ValueError:
            raise _CliError(f"--algs: bad hybrid weight in {tok!r}")
        out.append(_sweep(alg, lam, "--algs"))
    if not out:
        raise _CliError("--algs: need at least one algorithm")
    _refuse_repeats("--algs", [name for name, _ in out])
    return out


def _refuse_repeats(flag: str, values) -> None:
    """Refuse a value listed twice in ``flag``: its rows would be written twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise _CliError(f"{flag}: {value} repeats")
        seen.add(value)


def _parse_transit(text: str) -> tuple[str, float, str]:
    if text == "null":
        return "null", 1.0, "0"
    if text == "random":
        return "random", 1.0, "random"
    if text.startswith("scaled:"):
        try:
            factor = float(text.split(":", 1)[1])
        except ValueError:
            raise _CliError(f"bad --transit factor in {text!r}")
        if not (math.isfinite(factor) and factor >= 0.0):
            raise _CliError(f"--transit factor must be finite and >= 0, got {text!r}")
        return "scaled", factor, repr(factor)
    raise _CliError(f"--transit must be null, random or scaled:<factor>, got {text!r}")


def _guarded(measure) -> str:
    """``measure()`` formatted, or ``"error"`` when it trips the enumeration guard."""
    try:
        return _fmt(measure())
    except EnumerationGuardError:
        return "error"


def _measures(inst: Instance, sweep, checks, alpha) -> dict:
    """The measured CSV cells of one row: the placement of ``sweep`` and its
    checks, or the exact minimum cost when ``sweep`` is None."""
    if sweep is None:
        return {"total_cost": _guarded(lambda: exact_min_cost(inst)[1])}
    solution, _ = sweep(inst)
    cells = {"total_cost": _fmt(total_cost(inst, solution))}
    if "jr" in checks:
        cells["jr_factor"] = _guarded(lambda: jr_ratio(inst, solution).factor)
    if "core" in checks:
        cells["core_alpha"] = str(alpha)
        cells["core_factor"] = _guarded(lambda: core_ratio(inst, solution, alpha).factor)
    if "pf" in checks:
        cells["pf_factor"] = _fmt(pf_ratio(induce_clustering(inst), solution.stops).factor)
    return cells


def _cmd_experiment(args) -> int:
    checks = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
    unknown = set(checks) - {"jr", "core", "pf", "mincost"}
    if unknown:
        raise _CliError(f"--checks: unknown checks: {sorted(unknown)}")
    if not checks:
        raise _CliError("--checks: need at least one check")
    algs = _parse_algs(args.algs)
    alpha = _parse_alpha(args.alpha)
    if args.rounds < 1:
        raise _CliError("--rounds must be >= 1")
    if args.seed_base < 0:
        raise _CliError(f"--seed-base must be >= 0, got {args.seed_base}")
    # A file or family instance keeps its own size and transit and repeats
    # every round; only a family takes family parameters.
    if args.instance or args.family:
        for flag in ("n", "m", "k"):
            if getattr(args, flag) is not None:
                raise _CliError(f"--{flag}: a file or family instance has its own size")
        if args.transit != "null":
            raise _CliError(f"--transit {args.transit}: only random instances take a transit mode")
        if args.rounds > 1:
            raise _CliError(f"--rounds {args.rounds}: a file or family instance runs one round")
    if not args.family:
        for name, _, _ in _FAMILY_PARAM_FLAGS:
            if getattr(args, name) is not None:
                raise _CliError(f"--{name}: only a --family instance takes family parameters")
    mode, factor, scale_label = _parse_transit(args.transit)
    # A file or family instance is the same in every round: build it once,
    # so a bad one fails before any round runs.
    fixed = None
    if args.instance:
        fixed = _load_instance(args.instance)
    elif args.family:
        fixed = _generate(args)
        if not isinstance(fixed, Instance):
            raise _CliError("--family: line instances are not supported by experiment")
    else:
        n = 12 if args.n is None else args.n
        m = 8 if args.m is None else args.m
        k_text = "3" if args.k is None else args.k
        try:
            ks = [int(tok) for tok in k_text.split(",") if tok.strip()]
        except ValueError:
            raise _CliError(f"--k must be comma-separated integers, got {k_text!r}")
        if not ks:
            raise _CliError("random experiments need --k")
        for flag, value in (("--n", n), ("--m", m), ("--k", min(ks))):
            if value < 1:
                raise _CliError(f"{flag} must be >= 1, got {value}")
        if max(ks) > m:
            raise _CliError(f"--k budget {max(ks)} exceeds --m {m}")
        _refuse_repeats("--k", ks)

    if "mincost" in checks:
        algs.append(("mincost", None))  # one exact-optimum row per instance
    rows = []
    for seed in range(args.seed_base, args.seed_base + args.rounds):
        if fixed is not None:
            instances = [fixed]
        else:
            instances = [
                random_euclidean(n, m, k, seed, transit=mode, factor=factor)
                for k in ks
            ]
        for inst in instances:
            for name, sweep in algs:
                row = dict.fromkeys(CSV_COLUMNS, "")
                row.update(seed=seed, n=inst.n, m=inst.m, k=inst.k,
                           transit_scale=scale_label, algorithm=name)
                t0 = time.perf_counter()
                row.update(_measures(inst, sweep, checks, alpha))
                if args.timing:
                    row["runtime_ms"] = f"{(time.perf_counter() - t0) * 1e3:.3f}"
                rows.append(row)

    rows.sort(key=lambda rr: (rr["seed"], rr["algorithm"], rr["k"]))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_family_flags(sub) -> None:
    for name, kind, text in _FAMILY_PARAM_FLAGS:
        flags = (f"--{name}", "--lambda") if name == "lam" else (f"--{name}",)
        sub.add_argument(*flags, dest=name, type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairstops",
        description="Fair transit stop placement: algorithms, verifiers, generators.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a named instance family to a file")
    gen.add_argument("--family", required=True,
                     help=f"one of {', '.join(sorted(FAMILIES))} (aliases accepted)")
    _add_family_flags(gen)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    run = subs.add_parser("run", help="run one algorithm on an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument("--alg", required=True, choices=("gc", "eca", "hybrid"))
    run.add_argument("--lam", "--lambda", dest="lam", type=float,
                     help="mixing weight for --alg hybrid")
    run.add_argument("--trace", help="write the sweep trace to this JSON file")
    run.set_defaults(func=_cmd_run)

    verify = subs.add_parser("verify", help="verify a fairness property of a solution")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--solution", required=True, help="comma-separated candidate indices")
    verify.add_argument("--prop", required=True, choices=("jr", "core", "pf"))
    verify.add_argument("--alpha", default="1", help="coalition-size factor (core)")
    verify.add_argument("--beta", type=float, default=1.0, help="cost factor to test (default 1)")
    verify.add_argument("--backend", default="enumerate", choices=("enumerate", "milp"))
    verify.add_argument("--json", action="store_true", help="emit the report as one JSON object")
    verify.set_defaults(func=_cmd_verify)

    exp = subs.add_parser("experiment", help="batch runs with CSV output")
    exp.add_argument("--out", required=True)
    source = exp.add_mutually_exclusive_group()
    source.add_argument("--instance", help="run on one instance file")
    source.add_argument("--family", help="run on a generated family instance")
    _add_family_flags(exp)
    exp.add_argument("--n", type=int, help="agents per random instance (default 12)")
    exp.add_argument("--m", type=int, help="candidates per random instance (default 8)")
    exp.add_argument("--k", help="comma-separated budgets for random instances (default 3)")
    exp.add_argument("--rounds", type=int, default=1, help="number of seeds (repetitions)")
    exp.add_argument("--seed-base", type=int, default=0)
    exp.add_argument("--algs", default="gc,eca,hybrid:0.5")
    exp.add_argument("--checks", default="jr")
    exp.add_argument("--alpha", default="2", help="core size factor")
    exp.add_argument("--transit", default="null", help="null | random | scaled:<factor>")
    exp.add_argument("--timing", action="store_true",
                     help="record wall times (breaks byte determinism)")
    exp.set_defaults(func=_cmd_experiment)

    ver = subs.add_parser("version", help="print the package version")
    ver.set_defaults(func=lambda args: (print(__version__), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_ERROR
    except OSError as exc:
        # Reads map their own errors (_load_instance), so this is an output
        # file; exit 1 would read as a fairness witness.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

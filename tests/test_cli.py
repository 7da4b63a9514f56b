"""Command-line surface: subcommands, exit codes, output formats."""

import csv
import json
import math
import sys

import pytest

import fairstops as fs
from conftest import BAD_FIELD_VALUES, walk_bound_breaker, write_bad_field_value
from fairstops import cli
from fairstops.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "t3.json"
    code, stdout, _ = run_cli(capsys, "gen", "--family", "table3", "--out", str(out))
    assert code == 0
    inst = fs.read_instance(out)
    assert fs.validate_instance(inst) == []
    assert "stop legend" in stdout


def test_gen_two_line_family(tmp_path, capsys):
    out = tmp_path / "f5.json"
    code, _, _ = run_cli(capsys, "gen", "--family", "gc-jr-tight", "--eps", "0.01", "--out", str(out))
    assert code == 0
    inst = fs.read_instance(out)
    assert inst.n == 7 and inst.candidate_labels[2] == "y1"


def test_gen_kz(tmp_path, capsys):
    out = tmp_path / "kz.json"
    code, _, _ = run_cli(capsys, "gen", "--family", "kz", "--gamma", "1", "--r", "2", "--out", str(out))
    assert code == 0
    assert fs.read_instance(out).m == 9


def test_gen_line_family_uses_line_format(tmp_path, capsys):
    out = tmp_path / "line.json"
    code, _, _ = run_cli(capsys, "gen", "--family", "fig7", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "line-clustering"
    assert doc["datapoints"] == [1.0, 3.0, 8.0, 10.0]


def test_gen_bad_params_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run_cli(capsys, "gen", "--family", "kz", "--gamma", "0.2", "--r", "2", "--out", str(out))
    assert code == 2
    assert "gamma" in err
    code, _, _ = run_cli(capsys, "gen", "--family", "nope", "--out", str(out))
    assert code == 2


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_gc_on_two_line_family(tmp_path, capsys):
    out = tmp_path / "f5.json"
    run_cli(capsys, "gen", "--family", "fig5", "--eps", "0.01", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "run", "--instance", str(out), "--alg", "gc")
    assert code == 0
    assert "stops: y1 y2" in stdout


def test_run_eca_on_table_family(tmp_path, capsys):
    out = tmp_path / "t5.json"
    run_cli(capsys, "gen", "--family", "table5", "--eps", "0.01", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "run", "--instance", str(out), "--alg", "eca")
    assert code == 0
    assert "stops: t2 t4" in stdout


def test_run_hybrid_bad_weight_exits_2(tmp_path, capsys):
    out = tmp_path / "t5.json"
    run_cli(capsys, "gen", "--family", "table5", "--eps", "0.01", "--out", str(out))
    code, _, err = run_cli(
        capsys, "run", "--instance", str(out), "--alg", "hybrid", "--lam", "1.5"
    )
    assert code == 2
    assert "lam" in err
    code, _, _ = run_cli(
        capsys, "run", "--instance", str(out), "--alg", "hybrid", "--lambda", "1.5"
    )
    assert code == 2  # long spelling accepted too


def test_run_writes_trace(tmp_path, capsys):
    inst_path = tmp_path / "t5.json"
    trace_path = tmp_path / "trace.json"
    run_cli(capsys, "gen", "--family", "table5", "--eps", "0.01", "--out", str(inst_path))
    code, _, _ = run_cli(
        capsys, "run", "--instance", str(inst_path), "--alg", "eca", "--trace", str(trace_path)
    )
    assert code == 0
    events = json.loads(trace_path.read_text())
    assert events[0]["opened"] == [1, 3]
    radii = [math.inf if ev["radius"] == "inf" else ev["radius"] for ev in events]
    assert radii == sorted(radii)


@pytest.mark.parametrize("command", ["gen", "run", "experiment"])
def test_unwritable_output_exits_2(tmp_path, capsys, command):
    # Exit 1 means "witness found", so a failed write must not end with it.
    inst_path = tmp_path / "t5.json"
    fs.write_instance(fs.generate("table5", eps=0.01), inst_path)
    out = tmp_path / "missing" / "out.json"
    argv = {
        "gen": ["gen", "--family", "table5", "--out", str(out)],
        "run": ["run", "--instance", str(inst_path), "--alg", "gc", "--trace", str(out)],
        "experiment": ["experiment", "--out", str(out), "--n", "4", "--m", "4", "--k", "2"],
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert str(out) in err


def test_run_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "/nonexistent.json", "--alg", "gc")
    assert code == 2


def _broken_instance_file(tmp_path, field):
    """A 12-point instance file with k > m or an endpoint index out of range."""
    path = tmp_path / f"bad_{field}.json"
    fs.write_instance(fs.random_euclidean(4, 4, 2, 0), path)
    doc = json.loads(path.read_text())
    if field == "k":
        doc["k"] = doc["m"] + 1
    else:
        doc["endpoints"][0][1] = 999
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("field", ["k", "endpoint"])
@pytest.mark.parametrize("command", ["run", "verify", "experiment"])
def test_structurally_bad_instance_exits_2(tmp_path, capsys, command, field):
    path = str(_broken_instance_file(tmp_path, field))
    argv = {
        "run": ["run", "--instance", path, "--alg", "gc"],
        "verify": ["verify", "--instance", path, "--solution", "0", "--prop", "jr"],
        "experiment": ["experiment", "--instance", path, "--rounds", "1",
                       "--out", str(tmp_path / "x.csv")],
    }[command]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert ("k=" if field == "k" else "endpoint index") in err


@pytest.mark.parametrize("field, index, value", BAD_FIELD_VALUES)
def test_unreadable_value_exits_2(tmp_path, capsys, field, index, value):
    path = tmp_path / "bad.json"
    write_bad_field_value(path, field, index, value)
    code, stdout, err = run_cli(capsys, "verify", "--instance", str(path), "--solution", "0",
                                "--prop", "jr")
    assert code == 2 and stdout == ""
    assert f"'{field}'" in err


def test_negative_point_count_exits_2(tmp_path, capsys):
    # With "points": -2 a one-entry walk has the length the count implies.
    path = tmp_path / "bad.json"
    write_bad_field_value(path, "points", None, -2)
    doc = json.loads(path.read_text())
    doc["walk"] = [0]
    path.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "run", "--instance", str(path), "--alg", "gc")
    assert code == 2 and stdout == ""
    assert "'points'" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_jr_violation_found(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run_cli(capsys, "gen", "--family", "table3", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys,
        "verify", "--instance", str(out), "--solution", "0,1,3",
        "--prop", "jr", "--beta", "1.36",
    )
    assert code == 1
    assert "witness coalition" in stdout


def test_verify_core_holds(tmp_path, capsys):
    out = tmp_path / "t4.json"
    run_cli(capsys, "gen", "--family", "table4", "--eps", "0.01", "--h", "10", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys,
        "verify", "--instance", str(out), "--solution", "1,3",
        "--prop", "core", "--alpha", "2", "--beta", "2.4142136",
    )
    assert code == 0
    assert "holds at beta=2.4142136: yes" in stdout


def test_verify_zero_cost_solution_holds_everywhere(tmp_path, capsys):
    import numpy as np

    walk = np.zeros((3, 3))
    inst = fs.Instance(
        endpoints=np.array([(0, 1), (1, 2)]),
        candidates=np.array([0, 1, 2]),
        walk=fs.Metric(walk),
        transit=fs.Metric(np.zeros((3, 3))),
        k=3,
    )
    path = tmp_path / "z.json"
    fs.write_instance(inst, path)
    for prop in ("jr", "core", "pf"):
        code, _, _ = run_cli(
            capsys, "verify", "--instance", str(path), "--solution", "0,1,2", "--prop", prop
        )
        assert code == 0


def test_verify_searches_a_violation_only_after_a_witness(tmp_path, capsys, monkeypatch):
    # The report's factor is 1 here, which settles every beta >= 1: the
    # violation's integer program, the ratio's first one again, is not solved.
    path = tmp_path / "r.json"
    fs.write_instance(fs.random_euclidean(14, 6, 6, 4, transit="random"), path)
    solves, real_milp = [], fs.fairness.milp

    def counting_milp(*args, **kwargs):
        solves.append(1)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(fs.fairness, "milp", counting_milp)
    code, stdout, _ = run_cli(capsys, "verify", "--instance", str(path), "--solution", "",
                              "--prop", "core", "--alpha", "1", "--backend", "milp")
    assert code == 0 and "tight factor: 1.0\nholds at beta=1.0: yes\n" in stdout
    assert len(solves) == 1


@pytest.mark.parametrize("prop, solution, extra", [
    ("jr", "2,3", ()),
    ("core", "1,3", ("--alpha", "1", "--backend", "enumerate")),
    ("core", "1,3", ("--alpha", "1", "--backend", "milp")),
    ("pf", "2", ()),
])
def test_verify_skips_the_violation_when_the_factor_misses_beta(tmp_path, capsys, monkeypatch,
                                                                 prop, solution, extra):
    # A violation at beta exists exactly when the tight factor reaches beta,
    # so verify searches for one only then; its output and exit code must
    # be those of searching after every witness, at beta on either side of
    # the factor and of the boundary rule's threshold.
    import numpy as np

    inst = {"jr": fs.generate("gc-jr-tight", eps=0.01),
            "core": fs.generate("eca-jr-tight", eps=0.01),
            "pf": fs.random_euclidean(12, 6, 3, 0, transit="random")}[prop]
    path = tmp_path / "i.json"
    fs.write_instance(inst, path)
    stops = tuple(map(int, solution.split(",")))
    factor = (fs.pf_ratio(fs.induce_clustering(inst), stops) if prop == "pf"
              else fs.jr_ratio(inst, stops) if prop == "jr"
              else fs.core_ratio(inst, stops, 1)).factor
    reaches = fs.fairness._reaches
    assert 1.0 < factor < math.inf
    edge = factor / (1.0 - fs.fairness.RTOL)  # the largest beta the factor reaches
    while not reaches(factor, edge):
        edge = np.nextafter(edge, 0.0)
    while reaches(factor, np.nextafter(edge, math.inf)):
        edge = np.nextafter(edge, math.inf)
    low = factor * (1.0 - fs.fairness.RTOL)
    betas = [1.0, (1.0 + factor) / 2, factor, np.nextafter(low, 0.0), np.nextafter(low, math.inf),
             edge, np.nextafter(edge, math.inf), factor * 1e6]
    calls = []
    for name in ("jr_violation", "core_violation", "pf_violation"):
        monkeypatch.setattr(cli, name, lambda *a, real=getattr(cli, name), **kw:
                            calls.append(1) or real(*a, **kw))
    for beta in betas:
        for fmt in ((), ("--json",)):
            argv = ("verify", "--instance", str(path), "--solution", solution, "--prop", prop,
                    "--beta", repr(float(beta)), *extra, *fmt)
            calls.clear()
            got = run_cli(capsys, *argv)
            assert calls == ([1] if reaches(factor, beta) else []), beta
            with monkeypatch.context() as always:
                # A witness exists exactly when the factor exceeds 1.
                always.setattr(cli, "_reaches", lambda f, b: f > 1.0)
                assert run_cli(capsys, *argv) == got, beta
            assert got[0] == (1 if reaches(factor, beta) else 0)
    assert not reaches(factor, np.nextafter(edge, math.inf)) and reaches(factor, low)


def test_run_prices_its_placement_once(tmp_path, capsys, monkeypatch):
    inst = fs.random_euclidean(20, 8, 3, 1, transit="random")
    path = tmp_path / "r.json"
    fs.write_instance(inst, path)
    calls, real = [], fs.model.solution_costs

    def counted(instance, solution):
        calls.append(tuple(solution))
        return real(instance, solution)

    monkeypatch.setattr(cli, "solution_costs", counted)
    monkeypatch.setattr(fs.model, "solution_costs", counted)  # total_cost's lookup
    code, stdout, _ = run_cli(capsys, "run", "--instance", str(path), "--alg", "gc")
    stops = fs.gc_trsp(inst)[0].stops
    assert code == 0 and calls == [stops]
    assert f"total cost: {cli._fmt(fs.total_cost(inst, stops))}\n" in stdout


def test_verify_core_guard_exits_3(tmp_path, capsys):
    # m=40, k=12 at alpha 1 lists sum(C(40, s) for s in 1..12) stop sets.
    inst = fs.random_euclidean(3, 40, 12, seed=0)
    path = tmp_path / "big.json"
    fs.write_instance(inst, path)
    code, _, err = run_cli(
        capsys, "verify", "--instance", str(path), "--solution", "0", "--prop", "core",
        "--alpha", "1",
    )
    assert code == 3
    assert "9119901051 stop sets" in err and str(2**24) in err


def test_verify_milp_without_scipy_exits_2(tmp_path, capsys, monkeypatch):
    # The reach counts settle this placement, so no solve would run; the
    # missing solver is reported all the same, before the instance is read.
    path = tmp_path / "jr.json"
    fs.write_instance(fs.generate("jr-lower"), path)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    code, stdout, err = run_cli(
        capsys,
        "verify", "--instance", str(path), "--solution", "0,1,5",
        "--prop", "core", "--alpha", "2", "--backend", "milp",
    )
    assert code == 2
    assert "--backend milp needs scipy" in err
    assert stdout == ""


def test_verify_milp_without_scipy_package_exits_2(tmp_path, capsys, monkeypatch):
    # The up-front check finds no scipy package at all on a settled input
    # (nor the solver an earlier test may have loaded into this process).
    path = tmp_path / "jr.json"
    fs.write_instance(fs.generate("jr-lower"), path)
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.delitem(sys.modules, "scipy.optimize", raising=False)
    code, stdout, err = run_cli(
        capsys,
        "verify", "--instance", str(path), "--solution", "0,1,5",
        "--prop", "core", "--alpha", "2", "--backend", "milp",
    )
    assert code == 2
    assert "--backend milp needs scipy" in err
    assert stdout == ""


def test_verify_milp_with_broken_scipy_exits_2(tmp_path, capsys, monkeypatch):
    # scipy.optimize is found but fails to import at the first solve, which
    # this placement reaches; exit 1 would read as a witness.
    path = tmp_path / "jr.json"
    fs.write_instance(fs.generate("jr-lower"), path)
    monkeypatch.setattr(cli, "_scipy_available", lambda: True)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    code, stdout, err = run_cli(
        capsys,
        "verify", "--instance", str(path), "--solution", "0,3", "--json",
        "--prop", "core", "--alpha", "1", "--backend", "milp",
    )
    assert code == 2
    assert "--backend milp needs scipy" in err
    assert stdout == ""


def test_verify_core_refuses_a_broken_walk_bound(tmp_path, capsys):
    # Each agent's endpoints are 10 apart but 1 from stop 0.  Enumeration would
    # report factor 5.0 here and the MILP, which skips single-stop targets,
    # 1.0, so both backends refuse the file.
    path = tmp_path / "bent.json"
    fs.write_instance(walk_bound_breaker(), path)
    for backend in ("enumerate", "milp"):
        code, stdout, err = run_cli(
            capsys,
            "verify", "--instance", str(path), "--solution", "1",
            "--prop", "core", "--alpha", "1", "--backend", backend,
        )
        assert code == 2, backend
        assert "field 'walk': agent 0's walk 10.0 exceeds its route 2.0 through stop 0" in err
        assert stdout == ""


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "t5.json"
    run_cli(capsys, "gen", "--family", "table5", "--eps", "0.01", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys,
        "verify", "--instance", str(out), "--solution", "1,3",
        "--prop", "jr", "--beta", "2.4", "--json",
    )
    assert code == 1
    doc = json.loads(stdout)
    assert doc["property"] == "JR"
    assert doc["deviation"] == [0, 2]
    assert set(doc) == {"property", "alpha", "factor", "coalition", "deviation"}


def test_verify_pf(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run_cli(capsys, "gen", "--family", "table3", "--out", str(out))
    code, stdout, _ = run_cli(
        capsys, "verify", "--instance", str(out), "--solution", "0,1,2", "--prop", "pf",
        "--beta", "1.5",
    )
    assert code == 1  # the whole second region prefers its own stops


def test_verify_nan_beta_exits_2(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run_cli(capsys, "gen", "--family", "table3", "--out", str(out))
    for prop in ("jr", "core", "pf"):
        code, stdout, err = run_cli(
            capsys, "verify", "--instance", str(out), "--solution", "0,1", "--prop", prop,
            "--beta", "nan",
        )
        assert code == 2 and stdout == ""
        assert "--beta" in err


def test_verify_solution_over_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "t3.json"
    run_cli(capsys, "gen", "--family", "table3", "--out", str(out))
    inst = fs.read_instance(out)
    over = ",".join(str(c) for c in range(inst.k + 1))
    for prop in ("jr", "core", "pf"):
        code, stdout, err = run_cli(
            capsys, "verify", "--instance", str(out), "--solution", over, "--prop", prop
        )
        assert code == 2 and stdout == ""
        assert "--solution" in err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_row_count_and_determinism(tmp_path, capsys):
    args = [
        "experiment", "--out", None, "--rounds", "50", "--n", "6", "--m", "5",
        "--k", "2,4", "--algs", "gc,eca,hybrid:0.5", "--checks", "jr",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args[2] = str(out1)
    assert main([str(a) for a in args]) == 0
    args[2] = str(out2)
    assert main([str(a) for a in args]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        fh.readline()  # schema comment
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50 * 3 * 2
    assert all(float(row["jr_factor"]) >= 1.0 for row in rows)


def test_experiment_rows_sorted_and_mincost(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "--out", str(out), "--rounds", "3", "--n", "5", "--m", "4",
        "--k", "2", "--algs", "eca,gc", "--checks", "jr,mincost",
    )
    assert code == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    keys = [(int(r["seed"]), r["algorithm"], int(r["k"])) for r in rows]
    assert keys == sorted(keys)
    opt = {int(r["seed"]): float(r["total_cost"]) for r in rows if r["algorithm"] == "mincost"}
    for row in rows:
        if row["algorithm"] != "mincost":
            assert opt[int(row["seed"])] <= float(row["total_cost"]) + 1e-9


def test_experiment_family_source(tmp_path, capsys):
    out = tmp_path / "fam.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "--out", str(out), "--family", "table5", "--eps", "0.01",
        "--rounds", "1", "--algs", "eca", "--checks", "jr,core", "--alpha", "1",
    )
    assert code == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert all(row["core_alpha"] == "1" for row in rows)


def test_experiment_records_partial_failures_per_row(tmp_path, capsys):
    out = tmp_path / "guard.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "--out", str(out), "--rounds", "1", "--n", "3", "--m", "40",
        "--k", "12", "--algs", "gc", "--checks", "jr,core,pf", "--alpha", "1",
    )
    assert code == 0  # the run continues; the failing cell is marked
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert rows[0]["core_factor"] == "error"
    assert float(rows[0]["jr_factor"]) >= 1.0
    assert float(rows[0]["pf_factor"]) >= 1.0


@pytest.mark.parametrize("transit, mode, factor, label", [
    ("random", "random", 1.0, "random"),
    ("scaled:2", "scaled", 2.0, "2.0"),
])
def test_experiment_transit_mode_builds_and_labels_its_rows(tmp_path, capsys, transit, mode,
                                                             factor, label):
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "--out", str(out), "--rounds", "3", "--n", "8", "--m", "5",
        "--k", "2", "--algs", "hybrid:0.5", "--checks", "jr", "--transit", transit,
    )
    assert code == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [row["transit_scale"] for row in rows] == [label] * 3
    free = 0
    for row in rows:
        seed = int(row["seed"])
        inst = fs.random_euclidean(8, 5, 2, seed, transit=mode, factor=factor)
        assert row["total_cost"] == repr(fs.total_cost(inst, fs.hybrid(inst, 0.5)[0]))
        null = fs.random_euclidean(8, 5, 2, seed)
        free += row["total_cost"] == repr(fs.total_cost(null, fs.hybrid(null, 0.5)[0]))
    assert free < 3  # the mode reaches the instances


def test_experiment_bad_args_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, _ = run_cli(capsys, "experiment", "--out", str(out), "--checks", "bogus")
    assert code == 2
    code, _, _ = run_cli(capsys, "experiment", "--out", str(out), "--algs", "")
    assert code == 2
    code, _, _ = run_cli(capsys, "experiment", "--out", str(out), "--transit", "fancy")
    assert code == 2
    code, _, err = run_cli(capsys, "experiment", "--out", str(out), "--k", "a,b")
    assert code == 2 and "--k" in err
    code, _, err = run_cli(capsys, "experiment", "--out", str(out), "--n", "-3")
    assert code == 2 and "--n" in err
    code, _, err = run_cli(
        capsys, "experiment", "--out", str(out), "--family", "gc-core-tight", "--eps", "-1"
    )
    assert code == 2 and "eps" in err
    code, _, err = run_cli(capsys, "experiment", "--out", str(out), "--family", "nosuch")
    assert code == 2 and "nosuch" in err
    assert not out.exists()


@pytest.mark.parametrize("algs", ["hybridzz", "gc,hybrid0.5", "hybrid_0.3"])
def test_experiment_rejects_malformed_hybrid_token(tmp_path, capsys, algs):
    # Only "hybrid" and "hybrid:<lam>" name the hybrid sweep.
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "experiment", "--out", str(out), "--algs", algs)
    assert code == 2 and repr(algs.split(",")[-1]) in err
    assert not out.exists()


@pytest.mark.parametrize("ks", ["5", "2,5"])
def test_experiment_budget_above_m_exits_2(tmp_path, capsys, ks):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--out", str(out), "--n", "10", "--m", "3", "--k", ks
    )
    assert code == 2 and "--k" in err and "5" in err
    assert not out.exists()
    # A budget equal to --m still runs.
    code, _, _ = run_cli(
        capsys, "experiment", "--out", str(out), "--n", "10", "--m", "3", "--k", "2,3",
        "--algs", "hybrid", "--rounds", "1",
    )
    assert code == 0
    with open(out) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [(row["k"], row["algorithm"]) for row in rows] == [("2", "hybrid:0.5"),
                                                             ("3", "hybrid:0.5")]


@pytest.mark.parametrize("factor", ["nan", "inf", "-1"])
def test_experiment_bad_transit_factor_exit_2(tmp_path, capsys, factor):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "experiment", "--out", str(out), "--transit", f"scaled:{factor}"
    )
    assert code == 2 and "--transit" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    pytest.param(["verify", "--solution", "1,x"], "--solution", id="verify-solution-token"),
    pytest.param(["verify", "--solution", "99"], "--solution index", id="verify-solution-range"),
    pytest.param(["verify", "--alpha", "abc"], "--alpha", id="verify-alpha-text"),
    pytest.param(["verify", "--alpha", "1/0"], "--alpha", id="verify-alpha-zero-denominator"),
    pytest.param(["verify", "--alpha", "1/2"], "--alpha: alpha must be >= 1",
                 id="verify-alpha-below-1"),
    pytest.param(["experiment", "--algs", "hybrid:x"], "--algs: bad hybrid weight",
                 id="exp-algs-weight"),
    pytest.param(["experiment", "--algs", "hybrid:1.5"], "--algs: hybrid weight",
                 id="exp-algs-range"),
    pytest.param(["experiment", "--algs", "gc:1"], "--algs: unknown", id="exp-algs-unknown"),
    pytest.param(["experiment", "--transit", "scaled:x"], "--transit", id="exp-transit"),
    pytest.param(["experiment", "--checks", ","], "--checks: need at least one check",
                 id="exp-checks-empty"),
    pytest.param(["experiment", "--rounds", "0"], "--rounds", id="exp-rounds"),
    pytest.param(["experiment", "--seed-base", "-1"], "--seed-base", id="exp-seed-base"),
    pytest.param(["experiment", "--family", "line-pf"], "--family: line instances",
                 id="exp-line-family"),
    pytest.param(["experiment", "--k", ""], "--k", id="exp-k-empty"),
    pytest.param(["experiment", "--family", "table3", "--transit", "random"],
                 "--transit random: only random instances", id="exp-fixed-transit"),
    pytest.param(["experiment", "--family", "table3", "--rounds", "2"],
                 "--rounds 2: a file or family instance", id="exp-fixed-rounds"),
    pytest.param(["experiment", "--family", "table5", "--instance", "f.json"],
                 "--instance: not allowed with argument --family", id="exp-two-sources"),
    pytest.param(["experiment", "--instance", "f.json", "--n", "99", "--k", "7"],
                 "--n: a file or family instance has its own size", id="exp-file-size"),
    pytest.param(["experiment", "--family", "table3", "--k", "7"],
                 "--k: a file or family instance has its own size", id="exp-family-size"),
    pytest.param(["experiment", "--family", "table3", "--m", "9"],
                 "--m: a file or family instance has its own size", id="exp-family-m"),
    pytest.param(["experiment", "--eps", "0.3"], "--eps: only a --family instance",
                 id="exp-random-family-param"),
    pytest.param(["experiment", "--instance", "f.json", "--lambda", "0.5"],
                 "--lam: only a --family instance", id="exp-file-family-param"),
    pytest.param(["run", "--alg", "gc", "--lam", "7"], "--lam: gc takes no weight",
                 id="run-gc-lam"),
    pytest.param(["run", "--alg", "eca", "--lam", "0.5"], "--lam: eca takes no weight",
                 id="run-eca-lam"),
    pytest.param(["experiment", "--algs", "gc,gc,hybrid,hybrid:0.5"], "--algs: gc repeats",
                 id="exp-algs-repeat"),
    pytest.param(["experiment", "--algs", "gc,hybrid,hybrid:0.5"],
                 "--algs: hybrid:0.5 repeats", id="exp-algs-repeat-weight"),
    pytest.param(["experiment", "--k", "3,3"], "--k: 3 repeats", id="exp-k-repeat"),
    pytest.param(["gen", "--family", "gc-core-tight", "--h", "inf"],
                 "--h: h must be a positive integer, got inf", id="gen-h-inf"),
    pytest.param(["gen", "--family", "kz", "--gamma", "inf"],
                 "--gamma: gamma must be finite and >= 1, got inf", id="gen-gamma-inf"),
    pytest.param(["gen", "--family", "hybrid-core-tight", "--delta", "1e-320"],
                 "--delta: delta must lie in (0, 2] with 2/delta finite", id="gen-delta-subnormal"),
    pytest.param(["gen", "--family", "kz", "--gamma", "40"],
                 "--gamma: gamma must give at most 17 vertices", id="gen-gamma-too-large"),
])
def test_refusals_name_their_flag(tmp_path, capsys, argv, named):
    out = tmp_path / "x.csv"
    if argv[0] in ("experiment", "gen"):
        argv = [*argv, "--out", str(out)]
    else:
        path = tmp_path / "t3.json"
        fs.write_instance(fs.generate("table3"), path)
        argv = [*argv, "--instance", str(path)]
        if argv[0] == "verify":
            solution = [] if "--solution" in argv else ["--solution", "0"]
            argv += ["--prop", "core", *solution]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert named in err
    assert not out.exists()


def test_experiment_raises_unexpected_errors(tmp_path, monkeypatch):
    # Only the enumeration guard becomes an "error" cell; a bug propagates.
    def broken(*args, **kwargs):
        raise RuntimeError("broken verifier")

    monkeypatch.setattr("fairstops.cli.jr_ratio", broken)
    out = tmp_path / "x.csv"
    with pytest.raises(RuntimeError, match="broken verifier"):
        main(["experiment", "--out", str(out), "--rounds", "1", "--n", "6", "--m", "5",
              "--k", "2", "--algs", "gc", "--checks", "jr"])
    assert not out.exists()


def test_version(capsys):
    code, stdout, _ = run_cli(capsys, "version")
    assert code == 0
    assert stdout.strip() == fs.__version__


def test_usage_error_exits_2(capsys):
    assert main(["run", "--alg", "gc"]) == 2  # missing --instance

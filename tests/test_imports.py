"""What importing loads, and which names a traced benchmark run wraps.

scipy is loaded by the core MILP backend only, on the first probe the pair
reach counts leave open; ``verify --backend milp`` checks up front that it
can be found, without loading it.  Those checks run in a fresh interpreter,
so modules imported by other tests cannot hide an import; they count
modules, not time.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs CLI commands in order and prints, per step, the scipy modules loaded
#: after it, plus the core factors of both backends.
SCRIPT = r"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

loaded = {}
import fairstops
loaded["import"] = scipy_modules()
from fairstops.cli import main

def call(step, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code in (0, 1), (step, code)  # verify exits 1 on a violation
    loaded[step] = scipy_modules()
    return out.getvalue()

verify = ["verify", "--instance", "inst.json", "--solution", "0,3", "--json"]
call("gen", "gen", "--family", "jr-lower", "--out", "inst.json")
call("run", "run", "--instance", "inst.json", "--alg", "hybrid", "--lam", "0.5",
     "--trace", "trace.json")
call("verify-jr", *verify, "--prop", "jr")
enumerate_out = call("verify-core", *verify, "--prop", "core", "--alpha", "1")
call("verify-pf", *verify, "--prop", "pf")
call("experiment", "experiment", "--out", "x.csv", "--rounds", "1", "--n", "6",
     "--m", "5", "--k", "2", "--checks", "jr,core,pf")
milp_out = call("verify-core-milp", *verify, "--prop", "core", "--alpha", "1",
                "--backend", "milp")
print(json.dumps({
    "loaded": loaded,
    "enumerate": json.loads(enumerate_out)["factor"],
    "milp": json.loads(milp_out)["factor"],
}))
"""


def test_scipy_loads_only_for_the_core_milp(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    loaded = result["loaded"]
    milp_step = loaded.pop("verify-core-milp")
    assert list(loaded) == [
        "import", "gen", "run", "verify-jr", "verify-core", "verify-pf", "experiment",
    ]
    assert all(modules == [] for modules in loaded.values()), loaded
    assert "scipy.optimize" in milp_step
    assert result["milp"] == result["enumerate"] > 1.0


def test_settled_core_milp_leaves_scipy_unloaded():
    # The pair reach counts settle this fair placement, so no program is solved.
    script = (
        "import sys, fairstops as fs\n"
        "report = fs.core_ratio(fs.generate('jr-lower'), (0, 1, 5), 2, backend='milp')\n"
        "print(report.factor, 'scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1.0", "False"]


def test_cli_milp_verify_leaves_scipy_unloaded_on_a_settled_probe(tmp_path):
    # The same settled placement as above: the CLI only checks that scipy is
    # there, and the library solves nothing, so the solver is never loaded.
    script = (
        "import contextlib, io, sys, fairstops as fs\n"
        "from fairstops.cli import main\n"
        "fs.write_instance(fs.generate('jr-lower'), 'inst.json')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--instance', 'inst.json', '--solution', '0,1,5',\n"
        "                 '--prop', 'core', '--alpha', '2', '--backend', 'milp'])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "False"]


def test_traced_names_resolve():
    # A traced benchmark run wraps these names where they are looked up; a
    # kernel call moved to another module would silently drop out of it.
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for _stem, attr, owners in layers.WRAPPED:
        for owner in owners:
            module = importlib.import_module(f"fairstops.{owner}" if owner else "fairstops")
            assert callable(getattr(module, attr, None)), (attr, owner)

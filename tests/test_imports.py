"""Start-up cost: each entry point loads only the modules it runs, and the
exact operations never import numpy or scipy.

The suite itself has everything loaded, so each check of ``sys.modules``
runs in a fresh interpreter.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import thermo_ops
from thermo_ops import (decompose, gibbs_context_from_weights, jaynes_cummings,
                        majorization, thermo_transposition)
from thermo_ops.io import (context_to_json, decomposition_to_json,
                           matrix_to_json, population_to_json,
                           write_json_atomic)

F = Fraction
SRC = os.path.dirname(os.path.dirname(os.path.abspath(thermo_ops.__file__)))
HEAVY = ("numpy", "scipy")
JC_NAMES = ("JcParams", "NotAchievable", "RegionRow", "beta_bar_from_physical",
            "find_s_for_target", "j_lower_bound", "j_lower_bound_with_argmax",
            "j_probabilities", "j_upper_bound", "jc_params", "plt_max",
            "region_sweep")


def modules_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; return
    which of numpy, scipy and the ``thermo_ops`` modules it left in
    ``sys.modules`` (``thermo_ops.`` prefixes dropped)."""
    script = (code + "\nimport json, sys\nprint(json.dumps("
              f"[m for m in sys.modules if m in {HEAVY!r} "
              "or m.split('.')[0] == 'thermo_ops']))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return {m.removeprefix("thermo_ops.")
            for m in json.loads(done.stdout.splitlines()[-1])}


@pytest.mark.parametrize("module", ["thermo_ops", "thermo_ops.cli"])
def test_import_leaves_numpy_out(module):
    """The package loads no submodule; the CLI only ``io`` and ``core``,
    which its error handling and file readers need."""
    expected = {"thermo_ops": {"thermo_ops"},
                "thermo_ops.cli": {"thermo_ops", "cli", "io", "core"}}
    assert modules_after(f"import {module}") == expected[module]


@pytest.fixture
def fixtures(tmp_path):
    ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
    T = thermo_transposition(ctx, 0, 1).as_matrix(ctx)
    write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
    write_json_atomic(tmp_path / "p.json", population_to_json((F(1), F(0))))
    write_json_atomic(tmp_path / "q.json",
                      population_to_json((F(1, 2), F(1, 2))))
    write_json_atomic(tmp_path / "t.json", matrix_to_json(T))
    write_json_atomic(tmp_path / "dec.json",
                      decomposition_to_json(decompose(T, ctx)))
    return tmp_path


def run_all(argvs) -> str:
    """Code that runs each argv through ``cli.main`` and asserts exit 0."""
    return ("import json\nfrom thermo_ops.cli import main\n"
            f"argvs = json.loads({json.dumps(argvs)!r})\n"
            "statuses = [main(a) for a in argvs]\n"
            "assert statuses == [0] * len(statuses), statuses")


def argv_for(command: str, d) -> list[str]:
    """A valid request of ``command`` on the fixtures in ``d``, writing
    ``d / <command>.out``."""
    ctx, p, q = (str(d / f) for f in ("ctx.json", "p.json", "q.json"))
    pair = ["--ctx", ctx, "--p", p, "--q", q]
    flags = {
        "check-majorization": pair,
        "thermalisation-check": pair,
        "synthesize": pair,
        "decompose": ["--ctx", ctx, "--t", str(d / "t.json")],
        "simulate": ["--dec", str(d / "dec.json"), "--p", p,
                     "--samples", "10", "--seed", "1"],
        "cone": ["--ctx", ctx, "--p", p],
        "cone --facets": ["--ctx", ctx, "--p", p],
        "relax": ["--ctx", ctx, "--p", p, "--t", "1", "--xi", "1"],
        "jc-region": ["--beta-min", "0.5", "--beta-max", "1", "--step",
                      "0.25"],
        "jc-solve": ["--target", "0.3", "--beta-bar", "1"],
    }[command]
    out = d / f"{command.replace(' ', '')}.out"
    return command.split() + flags + ["--out", str(out)]


def test_exact_subcommands_leave_numpy_out(fixtures):
    commands = ["check-majorization", "thermalisation-check", "synthesize",
                "decompose", "relax", "cone", "cone --facets"]
    code = run_all([argv_for(c, fixtures) for c in commands])
    assert not modules_after(code) & set(HEAVY)
    for command in commands:
        out = fixtures / f"{command.replace(' ', '')}.out"
        assert json.loads(out.read_text())


# What each subcommand loads besides the package, ``cli``, ``io`` and
# ``core``: no subcommand loads ``linprog``, only ``decompose`` and
# ``simulate`` load ``birkhoff``.
LOADS = {
    "check-majorization": {"majorization"},
    "thermalisation-check": {"majorization", "thermalization"},
    "synthesize": {"majorization", "synthesis"},
    "decompose": {"birkhoff"},
    "simulate": {"birkhoff", "numpy"},
    "cone": {"majorization", "cone"},
    "cone --facets": {"majorization", "cone"},
    "relax": {"majorization", "thermalization"},
    "jc-region": {"jaynes_cummings", "numpy"},
    "jc-solve": {"jaynes_cummings", "numpy"},
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_subcommand_loads_only_what_it_runs(command, fixtures):
    code = run_all([argv_for(command, fixtures)])
    assert modules_after(code) == (
        {"thermo_ops", "cli", "io", "core"} | LOADS[command])


def test_exchange_model_subcommand_loads_numpy():
    """The guard above is not vacuous: jc-solve does load numpy."""
    code = ("from thermo_ops.cli import main\n"
            "assert main(['jc-solve', '--target', '0.3', '--beta-bar', '1'])"
            " == 0")
    assert "numpy" in modules_after(code)


def test_lazy_exchange_model_names():
    from thermo_ops import NotAchievable, region_sweep
    assert region_sweep is jaynes_cummings.region_sweep
    assert NotAchievable is jaynes_cummings.NotAchievable
    for name in JC_NAMES:
        assert getattr(thermo_ops, name) is getattr(jaynes_cummings, name)
        assert name in dir(thermo_ops)


def test_every_public_name_is_its_modules_object():
    names = dir(thermo_ops)
    for name in thermo_ops.__all__:
        obj = getattr(thermo_ops, name)
        assert name in names
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from thermo_ops import *", namespace)
    assert len(thermo_ops.__all__) == 77
    assert set(namespace) - {"__builtins__"} == set(thermo_ops.__all__)
    assert set(JC_NAMES) <= set(namespace)


def test_lookup_follows_a_rebound_name(monkeypatch):
    """Names are looked up on their module at every access, so a function
    rebound there (as a tracer does) is what the next caller gets."""
    def stand_in(*args, **kwargs):
        raise AssertionError("not to be called")

    monkeypatch.setattr(majorization, "thermo_majorizes", stand_in)
    assert thermo_ops.thermo_majorizes is stand_in


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thermo_ops.no_such_name
    assert not hasattr(thermo_ops, "no_such_name")


def test_benchmark_trace_targets_resolve():
    """Every ``(module, function)`` that the benchmark's tracer wraps
    exists, so a renamed or deleted library function fails here rather
    than breaking a traced benchmark run.  The tracer module imports only
    the standard library."""
    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(f"thermo_ops.{mod}"),
                              attr)]
    assert tracing.TARGETS and not missing

"""Start-up cost: the exact operations never import numpy or scipy.

The suite itself has numpy loaded, so each check of ``sys.modules`` runs in
a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import thermo_ops
from thermo_ops import (gibbs_context_from_weights, jaynes_cummings,
                        thermo_transposition)
from thermo_ops.io import (context_to_json, matrix_to_json,
                           population_to_json, write_json_atomic)

F = Fraction
SRC = os.path.dirname(os.path.dirname(os.path.abspath(thermo_ops.__file__)))
HEAVY = ("numpy", "scipy")
JC_NAMES = ("JcParams", "NotAchievable", "RegionRow", "beta_bar_from_physical",
            "find_s_for_target", "j_lower_bound", "j_lower_bound_with_argmax",
            "j_probabilities", "j_upper_bound", "jc_params", "plt_max",
            "region_sweep")


def heavy_modules_after(code: str, *args: str) -> list[str]:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; return
    which of numpy and scipy it left in ``sys.modules``."""
    script = (code + "\nimport json, sys\nprint(json.dumps("
              f"[m for m in {HEAVY!r} if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["thermo_ops", "thermo_ops.cli"])
def test_import_leaves_numpy_out(module):
    assert heavy_modules_after(f"import {module}") == []


@pytest.fixture
def fixtures(tmp_path):
    ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
    write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
    write_json_atomic(tmp_path / "p.json", population_to_json((F(1), F(0))))
    write_json_atomic(tmp_path / "q.json",
                      population_to_json((F(1, 2), F(1, 2))))
    write_json_atomic(tmp_path / "t.json", matrix_to_json(
        thermo_transposition(ctx, 0, 1).as_matrix(ctx)))
    return tmp_path


def test_exact_subcommands_leave_numpy_out(fixtures):
    d = fixtures
    ctx, p, q = (str(d / f) for f in ("ctx.json", "p.json", "q.json"))
    argvs = [
        ["check-majorization", "--ctx", ctx, "--p", p, "--q", q],
        ["thermalisation-check", "--ctx", ctx, "--p", p, "--q", q],
        ["synthesize", "--ctx", ctx, "--p", p, "--q", q],
        ["decompose", "--ctx", ctx, "--t", str(d / "t.json")],
        ["relax", "--ctx", ctx, "--p", p, "--t", "1", "--xi", "1"],
        ["cone", "--ctx", ctx, "--p", p],
    ]
    for k, argv in enumerate(argvs):
        argv += ["--out", str(d / f"out{k}.json")]
    code = ("import json, sys\nfrom thermo_ops.cli import main\n"
            "statuses = [main(a) for a in json.loads(sys.argv[1])]\n"
            "assert statuses == [0] * len(statuses), statuses")
    assert heavy_modules_after(code, json.dumps(argvs)) == []
    for k in range(len(argvs)):
        assert json.loads((d / f"out{k}.json").read_text())


def test_exchange_model_subcommand_loads_numpy():
    """The guard above is not vacuous: jc-solve does load numpy."""
    code = ("from thermo_ops.cli import main\n"
            "assert main(['jc-solve', '--target', '0.3', '--beta-bar', '1'])"
            " == 0")
    assert "numpy" in heavy_modules_after(code)


def test_lazy_exchange_model_names():
    from thermo_ops import NotAchievable, region_sweep
    assert region_sweep is jaynes_cummings.region_sweep
    assert NotAchievable is jaynes_cummings.NotAchievable
    for name in JC_NAMES:
        assert getattr(thermo_ops, name) is getattr(jaynes_cummings, name)
        assert name in dir(thermo_ops)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        thermo_ops.no_such_name
    assert not hasattr(thermo_ops, "no_such_name")

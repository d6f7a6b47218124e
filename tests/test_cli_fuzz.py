"""Fuzz the CLI's file readers in-process: a random JSON value in any field of
a population, matrix, context or decomposition file ends in exit 1 or 2
with exactly one error line, never in a traceback.  A value that happens to
form a valid file (say ``"x": [1, 0]``) may succeed instead."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from thermo_ops import (decompose, gibbs_context_from_weights,
                        thermo_transposition)
from thermo_ops.cli import main
from thermo_ops.io import decomposition_to_json, matrix_to_json

F = Fraction
_CTX = gibbs_context_from_weights([F(2, 3), F(1, 3)])
_T = thermo_transposition(_CTX, 0, 1).as_matrix(_CTX)

BASE = {
    "ctx": {"g": [["2", "3"], ["1", "3"]], "d": [2, 1], "D": 3},
    "fit": {"energies": [0.0, 0.7], "max_denominator": 50},
    "p": {"x": [["1", "1"], ["0", "1"]]},
    "q": {"x": [["1", "2"], ["1", "2"]]},
    "t": matrix_to_json(_T),
    "dec": decomposition_to_json(decompose(_T, _CTX)),
}

# (file, path to the field); the command run for each file is in _argv
FIELDS = [("p", ("x",)), ("p", ("x", 0)),
          ("ctx", ("g",)), ("ctx", ("d",)), ("ctx", ("D",)),
          ("fit", ("energies",)), ("fit", ("energies", 0)),
          ("fit", ("max_denominator",)),
          ("t", ("n",)), ("t", ("cols",)), ("t", ("cols", 0)),
          ("dec", ("terms",)), ("dec", ("terms", 0)),
          ("dec", ("terms", 0, "weight")),
          ("dec", ("terms", 0, "lifted_perm")),
          ("dec", ("terms", 0, "cols")), ("dec", ("terms", 0, "cols", 0))]

MISSING = object()

_scalars = (st.none() | st.booleans() | st.integers(-1000, 1000)
            | st.sampled_from([10**12, -10**12, 10**400]) | st.floats()
            | st.text(max_size=4)
            | st.lists(st.integers(-3, 3).map(str), min_size=2, max_size=2))
json_values = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=10)


def _argv(kind, path):
    files = {name: os.path.join(path, f"{name}.json") for name in BASE}
    if kind == "t":
        return ["decompose", "--t", files["t"], "--ctx", files["ctx"]]
    if kind == "dec":
        return ["simulate", "--dec", files["dec"], "--p", files["p"],
                "--samples", "10", "--seed", "1"]
    return ["check-majorization", "--p", files["p"], "--q", files["q"],
            "--ctx", files["fit" if kind == "fit" else "ctx"]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), value=json_values | st.just(MISSING))
def test_random_field_value(field, value):
    kind, keys = field
    doc = json.loads(json.dumps(BASE[kind]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as path:
        for name, content in BASE.items():
            with open(os.path.join(path, f"{name}.json"), "w") as handle:
                json.dump(doc if name == kind else content, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(_argv(kind, path))
    lines = err.getvalue().splitlines()
    if status == 0:
        assert lines == []
        json.loads(out.getvalue())
    else:
        assert status in (1, 2)
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=")

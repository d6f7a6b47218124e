"""Fuzz the CLI's file readers in-process: a random JSON value in any field of
a population, matrix, context or decomposition file (old or new format)
ends in exit 1 or 2 with exactly one error line, never in a traceback.  A
value that happens to form a valid file (say ``"x": [1, 0]``) may succeed
instead."""

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
# a decomposition file of an earlier version: column-stochastic terms and
# no slot counts, refused whatever its fields hold
BASE["old"] = {"n": 2, "terms": [
    {"weight": ["1", "1"], "cols": matrix_to_json(_T)["cols"]}]}

# (file, path to the field); the command run for each file is in _argv
FIELDS = [("p", ("x",)), ("p", ("x", 0)),
          ("ctx", ("g",)), ("ctx", ("d",)), ("ctx", ("D",)),
          ("fit", ("energies",)), ("fit", ("energies", 0)),
          ("fit", ("max_denominator",)),
          ("t", ("n",)), ("t", ("cols",)), ("t", ("cols", 0)),
          ("dec", ("d",)), ("dec", ("d", 0)),
          ("dec", ("terms",)), ("dec", ("terms", 0)),
          ("dec", ("terms", 0, "weight")),
          ("old", ("terms", 0, "cols")),
          ("dec", ("terms", 0, "counts")), ("dec", ("terms", 0, "counts", 0)),
          ("dec", ("terms", 0, "counts", 0, 0))]

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
    if kind in ("dec", "old"):
        return ["simulate", "--dec", files[kind], "--p", files["p"],
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


# Numeric arguments: each is set on a command that is otherwise valid.  The
# finite values drawn keep every run small (grids of at most 10^3 rows,
# solves of at most 10^3 series terms); 1e300 and the non-finite values
# reach the caps and the range checks instead.
SPECIAL = ["nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-1e300", "1e300",
           "", "abc", "1/3", "0x10", "1,5", "--tol"]
_COMMANDS = {
    "check-majorization": lambda f: ["check-majorization", "--ctx", f["ctx"],
                                     "--p", f["p"], "--q", f["q"]],
    "decompose": lambda f: ["decompose", "--ctx", f["ctx"], "--t", f["t"]],
    "thermalisation-check": lambda f: ["thermalisation-check",
                                       "--ctx", f["ctx"], "--p", f["p"],
                                       "--q", f["q"]],
    "relax": lambda f: ["relax", "--ctx", f["ctx"], "--p", f["p"]],
    "simulate": lambda f: ["simulate", "--dec", f["dec"], "--p", f["p"]],
    "jc-solve": lambda f: ["jc-solve"],
    "jc-region": lambda f: ["jc-region"],
}
# the valid values of each command's numeric arguments
_VALID = {
    "check-majorization": {}, "decompose": {}, "thermalisation-check": {},
    "relax": {"t": "0.7", "xi": "1.3"},
    "simulate": {"samples": "10", "seed": "1"},
    "jc-solve": {"target": "0.3", "beta-bar": "1.0", "tol": "1e-9"},
    "jc-region": {"beta-min": "0.5", "beta-max": "1.0", "step": "0.25"},
}
_floats = st.floats(allow_nan=False, allow_infinity=False)
NUMERIC = [  # (command, argument, finite values that keep the run small)
    ("check-majorization", "tol", _floats),
    ("decompose", "tol", _floats),
    ("thermalisation-check", "tol", _floats),
    ("relax", "t", _floats), ("relax", "xi", _floats),
    ("simulate", "samples", st.integers(-10, 10**6) | st.integers()),
    ("simulate", "seed", st.integers()),
    ("jc-solve", "target", _floats),
    ("jc-solve", "beta-bar", st.floats(0.03, 1e3) | st.floats(-1e3, 0)),
    ("jc-solve", "tol", st.floats(1e-300, 1e3) | st.floats(-1, 0)),
    ("jc-region", "beta-min", st.floats(-50, 10)),
    ("jc-region", "beta-max", st.floats(-10, 50)),
    ("jc-region", "step", st.floats(0.005, 1e3) | st.floats(-1, 0)),
]


def _no_constant(name):
    raise AssertionError(f"{name} in the output")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(field=st.sampled_from(NUMERIC), data=st.data())
def test_random_numeric_argument(field, data):
    """A NaN, infinite, zero, negative, huge or non-numeric value of a
    numeric argument ends in exit 1 or 2 with one error line; a run that
    succeeds prints no NaN or infinity."""
    command, name, finite = field
    value = data.draw(st.sampled_from(SPECIAL) | finite.map(repr))
    args = {**_VALID[command], name: value}
    with tempfile.TemporaryDirectory() as path:
        files = {}
        for kind, content in BASE.items():
            files[kind] = os.path.join(path, f"{kind}.json")
            with open(files[kind], "w") as handle:
                json.dump(content, handle)
        argv = _COMMANDS[command](files) + [f"--{k}={v}"
                                            for k, v in args.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    lines = err.getvalue().splitlines()
    if status == 0:
        assert lines == []
        if command == "jc-region":
            assert "nan" not in out.getvalue()
            assert "inf" not in out.getvalue()
        else:
            json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert status in (1, 2)
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=")

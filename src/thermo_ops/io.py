"""Stable JSON/CSV file formats shared by the CLI subcommands.

Rational values are serialised as ``["num", "den"]`` string pairs so exact
mode round-trips through files without loss; plain JSON numbers are accepted
and mean float mode (integers stay exact).  All writes are atomic (temp file
in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .core import (ConvexDecomposition, DomainError, FormatError,
                   GibbsContext, Number, Population, StochasticMatrix,
                   ThermoPermutation, as_values, gibbs_context_from_weights,
                   make_gibbs_context)


def encode_number(v: Number) -> Any:
    if isinstance(v, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(v, float):
        return v
    f = Fraction(v)
    return [str(f.numerator), str(f.denominator)]


def decode_number(obj: Any) -> Number:
    if isinstance(obj, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(obj, (int, float)):
        return obj if isinstance(obj, float) else Fraction(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(x, str) for x in obj)):
        try:
            return Fraction(int(obj[0]), int(obj[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational pair {obj!r}") from exc
    raise FormatError(f"cannot decode number from {obj!r}")


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    return obj


def _require(obj: dict, key: str):
    if key not in obj:
        raise FormatError(f"missing required field {key!r}")
    return obj[key]


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a JSON array")
    return value


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be a JSON integer")
    return value


def _real(value, what: str) -> Number:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a JSON number")
    return value


def _square(cols, what: str) -> tuple[tuple[Number, ...], ...]:
    """An n x n array of numbers given as its n columns."""
    cols = _array(cols, what)
    if any(len(_array(c, f"each column of {what}")) != len(cols)
           for c in cols):
        raise FormatError(f"{what} must form an n x n array")
    return tuple(tuple(decode_number(v) for v in col) for col in cols)


def context_to_json(ctx: GibbsContext) -> dict:
    out = {"energies": list(ctx.energies),
           "g": [encode_number(v) for v in ctx.g]}
    if ctx.rational:
        out["d"] = list(ctx.d)
        out["D"] = ctx.D
    return out


def context_from_json(obj: dict) -> GibbsContext:
    _object(obj, "context file")
    if "g" not in obj and ("d" in obj or "D" in obj):
        raise FormatError("d and D are read only beside the weights g")
    if "g" in obj:
        weights = [decode_number(v) for v in _array(obj["g"], "g")]
        if any(isinstance(w, float) for w in weights):
            raise FormatError("context weights must be exact rationals")
        ctx = gibbs_context_from_weights(weights)
        if "d" in obj or "D" in obj:
            # honour an explicit slot split as long as it is consistent
            d = tuple(_integer(di, "each entry of d")
                      for di in _array(_require(obj, "d"), "d"))
            big = _integer(_require(obj, "D"), "D")
            if sum(d) != big or any(di <= 0 for di in d):
                raise FormatError("d must be positive integers summing to D")
            if any(Fraction(di, big) != g for di, g in zip(d, ctx.g)):
                raise FormatError("d/D is inconsistent with the weights g")
            ctx = GibbsContext(ctx.energies, ctx.g, d, big, exact=True)
        return ctx
    energies = [_real(e, "each energy")
                for e in _array(_require(obj, "energies"), "energies")]
    max_denominator = obj.get("max_denominator", 1000)
    if max_denominator is not None:  # null asks for float mode
        _integer(max_denominator, "max_denominator")
    return make_gibbs_context(energies, max_denominator)


def population_to_json(p) -> dict:
    return {"x": [encode_number(v) for v in as_values(p)]}


def population_from_json(obj: dict) -> Population:
    _object(obj, "population file")
    return Population(tuple(decode_number(v)
                            for v in _array(_require(obj, "x"), "x")))


def matrix_to_json(T: StochasticMatrix) -> dict:
    return {"n": T.n,
            "cols": [[encode_number(v) for v in col] for col in T.cols]}


def matrix_from_json(obj: dict) -> StochasticMatrix:
    _object(obj, "matrix file")
    n = _integer(_require(obj, "n"), "n")
    cols = _square(_require(obj, "cols"), "matrix cols")
    if len(cols) != n:
        raise FormatError("matrix cols must form an n x n array")
    return StochasticMatrix(cols)


def decomposition_to_json(dec: ConvexDecomposition) -> dict:
    return {"d": list(dec.terms[0][1].d),
            "terms": [{"weight": encode_number(w),
                       "counts": [list(col) for col in tp.counts]}
                      for w, tp in dec.terms]}


def decomposition_from_json(obj: dict) -> ConvexDecomposition:
    """Each term's ``counts`` must be a block-count table over the file's
    slot counts ``d`` (see ``ThermoPermutation``).  Files of earlier
    versions held column-stochastic ``cols`` and no ``d``; they are
    refused, as no term of theirs can be checked to be thermal."""
    _object(obj, "decomposition file")
    if "d" not in obj:
        raise FormatError("decomposition file has no 'd': it was written by "
                          "an earlier version; run decompose again")
    d = tuple(_array(obj["d"], "d"))
    terms = []
    for term in _array(_require(obj, "terms"), "terms"):
        _object(term, "each term")
        weight = decode_number(_require(term, "weight"))
        counts = tuple(tuple(_array(col, "each column of counts"))
                       for col in _array(_require(term, "counts"), "counts"))
        try:
            terms.append((weight, ThermoPermutation(counts, d)))
        except DomainError as exc:
            raise FormatError(
                f"a term is not a thermo-permutation: {exc}") from None
    return ConvexDecomposition(tuple(terms))


def sequence_to_json(seq) -> dict:
    return {
        "relabel_in": list(seq.relabel_in),
        "relabel_out": list(seq.relabel_out),
        "steps": [{"lo": s.lo, "hi": s.hi, "p_down": encode_number(s.p_down)}
                  for s in seq.steps],
        "provenance": [{"lo": r.lo, "hi": r.hi,
                        "delta": encode_number(r.delta),
                        "j_ex": r.j_ex, "j_df": r.j_df,
                        "lam": encode_number(r.lam), "origin": r.origin}
                       for r in seq.provenance],
    }


def region_csv_text(rows) -> str:
    lines = ["beta_bar,lower,upper,plt_max,jc_beats_plt"]
    for r in rows:
        lines.append(f"{r.beta_bar:.12g},{r.lower:.12g},{r.upper:.12g},"
                     f"{r.plt_max:.12g},{int(r.jc_beats_plt)}")
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc

"""Spans and counters recorded around the public functions of thermo_ops.

The benchmark never edits the library.  ``Tracer.install`` rebinds every
name under which a target function is reachable in a loaded ``thermo_ops``
module, so calls that one module makes into another (``decompose`` into
``lift``, ``cone_vertices`` into ``thermo_majorizes``) pass through the
wrappers too.  Spans are kept in memory as
``[name, start, end, parent, op, counters]`` and written out when the run
ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

SUBCOMMANDS = ("check-majorization", "synthesize", "decompose", "simulate",
               "cone", "jc-region", "jc-solve", "relax",
               "thermalisation-check")


def _embedded(args, kwargs, result):
    return {"slots": args[2].D}


def _synthesized(args, kwargs, result):
    counts = Counter(r.origin for r in result.provenance)
    return {"transfers": len(result.provenance), "steps": len(result.steps),
            **{f"origin.{k}": v for k, v in counts.items()}}


def _synthesis_error(exc):
    # a SynthesisError without a witness was raised on a majorized pair
    if getattr(exc, "witness", 1) is None:
        return {"search_exhausted": 1}
    return None


def _decomposed(args, kwargs, result):
    return {"terms": len(result.terms), "n2": result.n ** 2}


def _written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _sized(key):
    return lambda args, kwargs, result: {key: len(result)}


# (module, function, layer, counter hook on return, counter hook on raise)
TARGETS = (
    ("majorization", "thermo_majorizes", "majorization", None, None),
    ("majorization", "thermo_majorizes_curve", "majorization", None, None),
    ("majorization", "thermo_majorizes_abs", "majorization", None, None),
    ("majorization", "thermo_majorizes_embedded", "majorization",
     _embedded, None),
    ("majorization", "majorization_witness", "majorization", None, None),
    ("majorization", "lorenz_curve", "majorization", None, None),
    ("majorization", "beta_order", "majorization", None, None),
    ("synthesis", "synthesize", "synthesis", _synthesized, _synthesis_error),
    ("cone", "cone_vertices", "cone", _sized("vertices"), None),
    ("cone", "cone_membership", "cone", None, None),
    ("cone", "thermal_cone", "cone", None, None),
    ("cone", "hull_facets", "cone", None, None),
    ("thermalization", "is_thermalisation_of", "thermalization", None, None),
    ("thermalization", "relax", "thermalization", None, None),
    ("birkhoff", "decompose", "birkhoff", _decomposed, None),
    ("birkhoff", "lift", "birkhoff", None, None),
    ("birkhoff", "birkhoff_von_neumann", "birkhoff", _sized("bvn_terms"),
     None),
    ("birkhoff", "pull_back", "birkhoff", None, None),
    ("birkhoff", "simulate_mean", "birkhoff", None, None),
    ("core", "gibbs_context_from_weights", "core", None, None),
    ("core", "make_gibbs_context", "core", None, None),
    ("io", "read_json", "io", None, None),
    ("io", "context_from_json", "io", None, None),
    ("io", "population_from_json", "io", None, None),
    ("io", "matrix_from_json", "io", None, None),
    ("io", "decomposition_from_json", "io", None, None),
    ("io", "context_to_json", "io", None, None),
    ("io", "population_to_json", "io", None, None),
    ("io", "matrix_to_json", "io", None, None),
    ("io", "decomposition_to_json", "io", None, None),
    ("io", "sequence_to_json", "io", None, None),
    ("io", "region_csv_text", "io", None, None),
    ("io", "write_text_atomic", "io", _written, None),
    ("jaynes_cummings", "region_sweep", "jaynes_cummings", _sized("rows"),
     None),
    ("jaynes_cummings", "find_s_for_target", "jaynes_cummings", None, None),
)
LAYER_OF = {f"{m}.{f}": layer for m, f, layer, _, _ in TARGETS}
PARSE = {"io.read_json", "io.context_from_json", "io.population_from_json",
         "io.matrix_from_json", "io.decomposition_from_json"}
ENCODE = {"io.context_to_json", "io.population_to_json", "io.matrix_to_json",
          "io.decomposition_to_json", "io.sequence_to_json",
          "io.region_csv_text"}


class Tracer:
    """Span recorder; ``op`` tags the spans of the operation in progress
    (-1 while setting up), and nothing is recorded while ``paused``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, on_return, on_raise):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, perf_counter(), None,
                    stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    span[5] = on_return(args, kwargs, result)
                return result
            except Exception as exc:
                if on_raise is not None:
                    span[5] = on_raise(exc)
                raise
            finally:
                stack.pop()
                span[2] = perf_counter()

        return wrapper

    def install(self) -> None:
        for mod in {t[0] for t in TARGETS}:
            importlib.import_module(f"thermo_ops.{mod}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "thermo_ops"
                                         or k.startswith("thermo_ops."))]
        for mod, attr, _, on_return, on_raise in TARGETS:
            original = getattr(sys.modules[f"thermo_ops.{mod}"], attr)
            wrapper = self._wrap(original, f"{mod}.{attr}", on_return,
                                 on_raise)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **(extra or {})}, handle)


def merge(into: list, spans: list, op: int) -> None:
    """Append a child process's spans, re-basing parent indices."""
    base = len(into)
    for name, start, end, parent, _, counters in spans:
        into.append([name, start, end, parent + base if parent >= 0 else -1,
                     op, counters])


def self_times(spans) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, cli_times: dict, import_times: list) -> dict:
    """Per-layer values, named as in ``BENCHMARK.json``."""
    own = self_times(spans)
    busy = Counter()
    inclusive = Counter()
    calls = Counter()
    count = Counter()
    for k, (name, start, end, parent, _, counters) in enumerate(spans):
        layer = LAYER_OF[name]
        busy[layer] += own[k]
        inclusive[name] += end - start
        if parent < 0 or LAYER_OF[spans[parent][0]] != layer:
            calls[layer] += 1
        if name in PARSE:
            count["io.parse_s"] += own[k]
        elif name in ENCODE:
            count["io.encode_s"] += own[k]
        elif name == "io.write_text_atomic":
            count["io.write_s"] += own[k]
        for key, value in (counters or {}).items():
            count[f"{name}.{key}"] += value
        count[f"{name}.calls"] += 1

    terms = count["birkhoff.decompose.terms"]
    n2 = count["birkhoff.decompose.n2"]
    out = {
        "majorization.calls": calls["majorization"],
        "majorization.busy_s": busy["majorization"],
        "majorization.curve_s":
            inclusive["majorization.thermo_majorizes_curve"],
        "majorization.abs_s": inclusive["majorization.thermo_majorizes_abs"],
        "majorization.embedded_s":
            inclusive["majorization.thermo_majorizes_embedded"],
        "majorization.witness_s":
            inclusive["majorization.majorization_witness"],
        "majorization.embedded_slots":
            count["majorization.thermo_majorizes_embedded.slots"],
        "synthesis.calls": calls["synthesis"],
        "synthesis.busy_s": busy["synthesis"],
        "synthesis.transfers": count["synthesis.synthesize.transfers"],
        "synthesis.steps": count["synthesis.synthesize.steps"],
    }
    for origin in ("aligned", "phase", "transit", "greedy"):
        out[f"synthesis.origin.{origin}"] = \
            count[f"synthesis.synthesize.origin.{origin}"]
    out.update({
        "synthesis.search_exhausted":
            count["synthesis.synthesize.search_exhausted"],
        "cone.calls": calls["cone"],
        "cone.busy_s": busy["cone"],
        "cone.vertices": count["cone.cone_vertices.vertices"],
        "thermalization.calls": calls["thermalization"],
        "thermalization.busy_s": busy["thermalization"],
        "birkhoff.decompose_s": inclusive["birkhoff.decompose"],
        "birkhoff.lift_s": inclusive["birkhoff.lift"],
        "birkhoff.bvn_s": inclusive["birkhoff.birkhoff_von_neumann"],
        "birkhoff.pull_back_s": inclusive["birkhoff.pull_back"],
        "birkhoff.bvn_terms": count["birkhoff.birkhoff_von_neumann.bvn_terms"],
        "birkhoff.terms": terms,
        "birkhoff.terms_per_n2": terms / n2 if n2 else 0.0,
        "birkhoff.simulate_s": inclusive["birkhoff.simulate_mean"],
        "core.context_s": busy["core"],
        "core.contexts_built":
            count["core.gibbs_context_from_weights.calls"]
            + count["core.make_gibbs_context.calls"],
        "io.parse_s": count["io.parse_s"],
        "io.encode_s": count["io.encode_s"],
        "io.write_s": count["io.write_s"],
        "io.bytes_written": count["io.write_text_atomic.bytes"],
        "cli.import_s": statistics.median(import_times) if import_times
        else 0.0,
    })
    for sub in SUBCOMMANDS:
        times = cli_times.get(sub, [])
        out[f"cli.{sub}.p50_ms"] = (statistics.median(times) * 1e3
                                    if times else 0.0)
    out.update({
        "jaynes_cummings.region_sweep_s":
            inclusive["jaynes_cummings.region_sweep"],
        "jaynes_cummings.rows": count["jaynes_cummings.region_sweep.rows"],
        "jaynes_cummings.find_s_s":
            inclusive["jaynes_cummings.find_s_for_target"],
    })
    return out


PER_LAYER_UNITS = {
    name: ("count" if name.endswith(("calls", "slots", "transfers", "steps",
                                     "vertices", "terms", "built", "rows",
                                     "exhausted"))
           or ".origin." in name
           else "B" if name.endswith("bytes_written")
           else "ratio" if name.endswith("per_n2")
           else "ms" if name.endswith("_ms") else "s")
    for name in layer_metrics([], {}, [])
}

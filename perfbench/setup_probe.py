"""Set-up probe: import thermo_ops and build a workload's Gibbs contexts.

Run in a fresh interpreter as ``python perfbench/setup_probe.py SPEC``; it
prints the seconds from its first statement until every context is built.
``SPEC`` is a JSON list of context specs, each one of
``{"weights": [[num, den], ...]}`` (``gibbs_context_from_weights``),
``{"energies": [...]}`` (``make_gibbs_context``) or ``{"file": path}``
(``io.context_from_json`` on a context file).
"""

import json
import sys
from fractions import Fraction
from time import perf_counter


def build_contexts(spec):
    from thermo_ops import gibbs_context_from_weights, make_gibbs_context
    from thermo_ops import io as tio

    out = []
    for item in spec:
        if "weights" in item:
            out.append(gibbs_context_from_weights(
                [Fraction(int(a), int(b)) for a, b in item["weights"]]))
        elif "energies" in item:
            out.append(make_gibbs_context(item["energies"]))
        else:
            out.append(tio.context_from_json(tio.read_json(item["file"])))
    return out


if __name__ == "__main__":
    t0 = perf_counter()
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    build_contexts(spec)
    print(perf_counter() - t0)

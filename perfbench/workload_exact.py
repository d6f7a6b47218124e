"""exact-small: the acceptance-suite pipeline over many tiny exact instances.

One op is one corpus instance: ``thermo_majorizes(route="all")``,
``majorization_witness``, ``synthesize``, ``is_thermalisation_of`` and, when
n <= 5, ``cone_vertices`` with its default self-check.  Thousands of small
Fraction computations make interpreter overhead and exact arithmetic the
cost here, not the slot count D.
"""

from __future__ import annotations

import thermo_ops as to
from thermo_ops.linprog import gibbs_map_exists

import corpus as cp

CORPUS_SIZE = 500
CONE_MAX_N = 5
SYNTHESIS_GAP = "synthesis failed on a reachable pair"
# every (n, kind) pair once
BLOCK = len(cp.EXACT_N) * len(cp.EXACT_KINDS)


def build(seed: int, work: str):
    """(corpus, context spec, size parameters, corpus digest)."""
    items = cp.exact_small(seed, CORPUS_SIZE)
    for item in items:
        if item["majorized"] is None:
            ctx = to.gibbs_context_from_weights(item["g"])
            item["majorized"] = gibbs_map_exists(item["p"], item["q"],
                                                 ctx) is not None
    spec = [{"weights": [[str(w.numerator), str(w.denominator)]
                         for w in item["g"]]} for item in items]
    sizes = {"instances": CORPUS_SIZE, "n": list(cp.EXACT_N),
             "D_max": cp.EXACT_DMAX, "cone_max_n": CONE_MAX_N,
             "kinds": list(cp.EXACT_KINDS)}
    return items, spec, sizes, cp.digest(items)


def run_op(item, ctx) -> dict:
    p, q = item["p"], item["q"]
    out = {}
    try:
        out["verdict"] = to.thermo_majorizes(p, q, ctx, route="all")
        out["witness"] = to.majorization_witness(p, q, ctx)
        try:
            out["seq"] = to.synthesize(p, q, ctx)
        except to.SynthesisError as exc:
            out["synth_error"] = exc
        out["therm"] = to.is_thermalisation_of(p, q, ctx)
        if ctx.n <= CONE_MAX_N:
            out["vertices"] = to.cone_vertices(p, ctx)
    except Exception as exc:  # anything else is undocumented: a failed op
        out["error"] = repr(exc)
    return out


def ops(items, ctxs):
    return [(f"instance-{k}", lambda k=k: run_op(items[k], ctxs[k]))
            for k in range(len(items))]


def check_op(item, ctx, out) -> list[str]:
    """Reasons the op's output is wrong; empty when it is right."""
    if "error" in out:
        return [f"undocumented exception {out['error']}"]
    p, q, g = item["p"], item["q"], item["g"]
    truth = item["majorized"]
    bad = []
    routes = {r: to.thermo_majorizes(p, q, ctx, route=r)
              for r in ("curve", "abs", "embedded")}
    if len(set(routes.values())) != 1:
        bad.append(f"routes disagree {routes}")
    if out["verdict"] != truth:
        bad.append(f"verdict {out['verdict']} against ground truth {truth}")
    if (out["witness"] is None) != truth:
        bad.append("witness inconsistent with the verdict")
    seq = out.get("seq")
    if seq is not None:
        report = to.verify_sequence(seq, p, q, ctx, tol=0)
        if not report.ok:
            bad.append(f"verify_sequence: {report.reason}")
        x = p
        for step in seq.steps:
            x = cp.apply_step(x, g, step.lo, step.hi, step.p_down)
        if x != tuple(q):
            bad.append("exact replay does not reach q")
    else:
        err = out["synth_error"]
        if not truth:
            if err.witness is None or err.witness != out["witness"]:
                bad.append("refusal does not carry the violated elbow")
        elif item["kind"] != "unrelated":
            # generated targets are reachable by construction
            bad.append(f"{SYNTHESIS_GAP}: {err}")
    expect = truth and cp.beta_perm(p, g) == cp.beta_perm(q, g)
    if out["therm"] != expect:
        bad.append(f"is_thermalisation_of {out['therm']}, expected {expect}")
    if ctx.n <= CONE_MAX_N:
        vertices = out["vertices"]
        if not vertices or not all(to.thermo_majorizes_curve(p, v, ctx)
                                   for v in vertices):
            bad.append("a cone vertex is not majorized by p")
    return bad


def fingerprint(out) -> str:
    """A canonical rendering of one op's output, for comparing repeats."""
    err = out.get("synth_error")
    shown = {k: v for k, v in out.items() if k != "synth_error"}
    if err is not None:
        shown["synth_error"] = (type(err).__name__, str(err), err.witness)
    return repr(sorted(shown.items()))


def checker(items, ctxs):
    """Checks each op in full, except a repeat whose output equals that of
    an earlier run of the same instance that passed."""
    passed = {}

    def check(op, name, out):
        k = op % len(items)
        key = fingerprint(out)
        if passed.get(k) == key:
            return []
        reasons = check_op(items[k], ctxs[k], out)
        if not reasons:
            passed[k] = key
        return [(reason, "synthesis-gap" if reason.startswith(SYNTHESIS_GAP)
                 else None) for reason in reasons]
    return check

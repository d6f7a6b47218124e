"""cli-mix: a fixed sequence of ``python -m thermo_ops.cli`` processes.

One op is one subprocess, run to completion before the next starts.  The
sequence covers all nine subcommands on fixture files written through
``thermo_ops.io``; the seed draws the fixture contents, while the order of
the requests and their slot counts are fixed, so every seed does the same
amount of work.  Four requests in 38 are invalid and must end in exit 1 or 2
with exactly one ``THERMO-OPS-ERROR`` line.

Sizing: every invocation stays within a few seconds on 2 CPUs.  The
``synthesize`` fixtures at D = 10^4 and 10^5 use targets whose beta-order
differs from the source, because the aligned transfer loop is O(D^2); the
aligned loop runs at D = 10^3.  ``THERMO_OPS_THREADS`` is removed from every
child's environment and only ever set to the invalid value ``abc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np

import thermo_ops as to
from thermo_ops import io as tio

import corpus as cp
from tracing import merge

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 120
ERROR_TAG = "THERMO-OPS-ERROR"

# name -> (n, D) of the exact context fixtures
CONTEXTS = {"A": (4, 10**3), "B": (5, 10**4), "C": (4, 10**5),
            "S": (3, 10**3), "S2": (3, 10**4), "K": (4, 10**3),
            "T1": (3, 12), "T2": (4, 16)}


def _req(name, sub, *args, env=None, invalid=False, known=None,
         source=None):
    """One request.  In ``args`` a value '@x' is fixture file x, '>x' an
    output file x the request writes and '<x' a file an earlier request
    wrote.  ``source`` names the context and matrix fixtures behind a
    decomposition file that ``simulate`` reads.  ``known`` is the id of a
    known defect in how an invalid request is reported."""
    return {"name": name, "sub": sub, "args": list(args), "env": env or {},
            "invalid": invalid, "known": known, "source": source}


SEQUENCE = (
    _req("check-majorization.d1e3", "check-majorization",
         "--ctx", "@A", "--p", "@pA", "--q", "@qA_edp"),
    _req("relax.float", "relax", "--ctx", "@E", "--p", "@pE",
         "--t", "0.7", "--xi", "1.3"),
    _req("jc-solve.reach", "jc-solve", "--target", "0.3", "--beta-bar", "1.0"),
    _req("synthesize.phase.d1e4", "synthesize", "--ctx", "@B", "--p", "@pB",
         "--q", "@qB", "--out", ">seqB.json"),
    _req("thermalisation-check.d1e3", "thermalisation-check",
         "--ctx", "@A", "--p", "@pA", "--q", "@qA_mix"),
    _req("cone.d1e3.simplex", "cone", "--ctx", "@S", "--p", "@pS",
         "--out", ">coneS.json", "--simplex-csv", ">coneS.csv"),
    _req("jc-region.step0", "jc-region", "--step", "0", invalid=True,
         known="step0-traceback"),
    _req("decompose.d12", "decompose", "--ctx", "@T1", "--t", "@T1m",
         "--out", ">dec1.json"),
    _req("simulate.d12", "simulate", "--dec", "<dec1.json", "--p", "@pT1",
         "--samples", "100000", "--seed", "11", source="T1"),
    _req("check-majorization.d1e4", "check-majorization",
         "--ctx", "@B", "--p", "@pB", "--q", "@qB", "--out", ">majB.json"),
    _req("jc-region.default", "jc-region"),
    _req("check-majorization.malformed", "check-majorization",
         "--ctx", "@bad", "--p", "@pA", "--q", "@qA_edp", invalid=True),
    _req("thermalisation-check.d1e5", "thermalisation-check",
         "--ctx", "@C", "--p", "@pC", "--q", "@qC", "--out", ">thC.json"),
    _req("synthesize.aligned.d1e3", "synthesize", "--ctx", "@A", "--p", "@pA",
         "--q", "@qA_mix", "--out", ">seqA.json"),
    _req("jc-solve.unreachable", "jc-solve", "--target", "0.999",
         "--beta-bar", "0.2"),
    _req("check-majorization.embedded.d1e4", "check-majorization",
         "--ctx", "@B", "--p", "@pB", "--q", "@qB", "--route", "embedded"),
    _req("cone.d1e4", "cone", "--ctx", "@S2", "--p", "@pS2"),
    _req("jc-region.threads-abc", "jc-region",
         env={"THERMO_OPS_THREADS": "abc"}, invalid=True,
         known="threads-abc-traceback"),
    _req("relax.exact", "relax", "--ctx", "@A", "--p", "@pA", "--t", "2.0",
         "--xi", "0.5", "--out", ">relaxA.json"),
    _req("check-majorization.d1e5", "check-majorization",
         "--ctx", "@C", "--p", "@pC", "--q", "@qC"),
    _req("jc-region.fine", "jc-region", "--step", "0.02",
         "--out", ">fine.csv"),
    _req("decompose.d16", "decompose", "--ctx", "@T2", "--t", "@T2m",
         "--out", ">dec2.json"),
    _req("simulate.d16", "simulate", "--dec", "<dec2.json", "--p", "@pT2",
         "--samples", "1000000", "--seed", "12", source="T2"),
    _req("synthesize.not-majorized", "synthesize", "--ctx", "@A",
         "--p", "@qA_mix", "--q", "@pA", invalid=True),
    _req("thermalisation-check.d1e4", "thermalisation-check",
         "--ctx", "@B", "--p", "@pB", "--q", "@qB"),
    _req("synthesize.phase.d1e5", "synthesize", "--ctx", "@C", "--p", "@pC",
         "--q", "@qC"),
    _req("cone.d1e3.facets", "cone", "--ctx", "@K", "--p", "@pK", "--facets",
         "--out", ">coneK.json"),
    _req("jc-region.default.out", "jc-region", "--out", ">region.csv"),
    _req("check-majorization.curve.d1e5", "check-majorization",
         "--ctx", "@C", "--p", "@pC", "--q", "@qC", "--route", "curve"),
    _req("jc-solve.reach2", "jc-solve", "--target", "0.5", "--beta-bar", "2.0",
         "--out", ">solve.json"),
    _req("check-majorization.float.d1e3", "check-majorization",
         "--ctx", "@A", "--p", "@pF", "--q", "@qF", "--mode", "float"),
    _req("relax.float.out", "relax", "--ctx", "@E", "--p", "@pE",
         "--t", "0.1", "--xi", "2.0", "--out", ">relaxE.json"),
    _req("thermalisation-check.d1e3.edp", "thermalisation-check",
         "--ctx", "@A", "--p", "@pA", "--q", "@qA_edp", "--out", ">thA.json"),
    _req("check-majorization.abs.d1e4", "check-majorization",
         "--ctx", "@B", "--p", "@pB", "--q", "@qB", "--route", "abs"),
    _req("cone.d1e3.n4", "cone", "--ctx", "@K", "--p", "@pK"),
    _req("jc-solve.zero", "jc-solve", "--target", "0", "--beta-bar", "1.5"),
    _req("jc-region.step004", "jc-region", "--step", "0.04",
         "--out", ">step004.csv"),
    _req("synthesize.plt.d1e3", "synthesize", "--ctx", "@A", "--p", "@pA",
         "--q", "@qA_plt", "--no-group"),
)


BLOCK = len(SEQUENCE)


def _unaligned_image(rng, p, g):
    """An elementary-step image of p whose beta-order differs from p's."""
    while True:
        q = cp.rand_edp_image(rng, p, g, rng.randint(1, 12))
        if cp.beta_perm(q, g) != cp.beta_perm(p, g):
            return q


def write_fixtures(seed: int, work: str) -> dict:
    """Draw the fixtures and write them through thermo_ops.io; returns the
    fixture name -> path map."""
    rng = random.Random(seed)
    files = {}

    def put(name, obj):
        files[name] = os.path.join(work, f"{name}.json")
        tio.write_json_atomic(files[name], obj)

    g = {}
    for name, (n, D) in CONTEXTS.items():
        g[name] = cp.weights_of(cp.split_total(rng, n, D))
        put(name, tio.context_to_json(to.gibbs_context_from_weights(g[name])))
    put("E", {"energies": [round(rng.uniform(0.0, 3.0), 6)
                           for _ in range(4)]})

    pops = {}
    for name in ("A", "B", "C", "S", "S2", "K", "T1", "T2"):
        pops[f"p{name}"] = cp.rand_pop(rng, len(g[name]))
    pA = pops["pA"]
    pops["qA_edp"] = cp.rand_edp_image(rng, pA, g["A"], rng.randint(1, 12))
    pops["qA_plt"] = cp.rand_plt_image(rng, pA, g["A"], rng.randint(1, 12))
    w = Fraction(rng.randint(8, 56), 64)
    pops["qA_mix"] = tuple(w * a + (1 - w) * b for a, b in zip(pA, g["A"]))
    pops["qB"] = _unaligned_image(rng, pops["pB"], g["B"])
    pops["qC"] = _unaligned_image(rng, pops["pC"], g["C"])
    pops["pE"] = tuple(float(v) for v in cp.rand_pop(rng, 4))
    pops["pF"] = tuple(round(float(v), 6) for v in pA)
    pops["qF"] = tuple(round(float(v), 6) for v in pops["qA_edp"])
    pops["qF"] = pops["qF"][:-1] + (sum(pops["pF"]) - sum(pops["qF"][:-1]),)
    for name, x in pops.items():
        put(name, tio.population_to_json(x))
    for name in ("T1", "T2"):
        D = CONTEXTS[name][1]
        d = tuple(int(v * D) for v in g[name])
        cols = cp.random_gibbs_preserving(rng, d, terms=rng.randint(2, 4))
        put(f"{name}m", tio.matrix_to_json(to.StochasticMatrix(cols)))
    files["bad"] = os.path.join(work, "bad.json")
    with open(files["bad"], "w") as handle:
        handle.write('{"x": [["1", "2"], ')
    return files


def build(seed: int, work: str):
    """(fixtures, context spec, size parameters, fixture digest)."""
    files = write_fixtures(seed, work)
    h = hashlib.sha256()
    for name in sorted(files):
        with open(files[name], "rb") as handle:
            h.update(name.encode() + b"\0" + handle.read())
    spec = [{"file": files[name]} for name in (*CONTEXTS, "E")]
    sizes = {"requests": len(SEQUENCE),
             "invalid": sum(r["invalid"] for r in SEQUENCE),
             "contexts": {k: {"n": n, "D": D} for k, (n, D)
                          in CONTEXTS.items()},
             "sequence": [r["name"] for r in SEQUENCE]}
    return {"files": files, "work": work}, spec, sizes, h.hexdigest()


def _path(value, fx):
    if value.startswith("@"):
        return fx["files"][value[1:]]
    if value[0] in "<>":
        return os.path.join(fx["work"], "out", value[1:])
    return value


def spawn(argv, env, out_path, err_path):
    """Run one child to completion; returns (exit status, peak RSS in KiB).
    A child still running after OP_TIMEOUT_S is killed."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def ops(fx, env, tracer=None):
    """One thunk per request; each returns the child's exit status, output
    bytes and, under "meta", its peak RSS in KiB.  ``env`` is the children's
    environment.  With a
    tracer the child runs through the traced launcher and its spans are
    merged into the tracer."""
    os.makedirs(os.path.join(fx["work"], "out"), exist_ok=True)
    base_env = dict(env)
    base_env.pop("THERMO_OPS_THREADS", None)
    stdout = os.path.join(fx["work"], "stdout")
    stderr = os.path.join(fx["work"], "stderr")
    spans = os.path.join(fx["work"], "spans.json")

    def make(req):
        env = {**base_env, **req["env"]}
        outputs = [_path(a, fx) for a in req["args"] if a.startswith(">")]
        cli = [_path(a, fx) for a in req["args"]]
        if tracer is None:
            argv = [sys.executable, "-m", "thermo_ops.cli", req["sub"], *cli]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans,
                    req["sub"], *cli]

        def thunk():
            for path in outputs:
                if os.path.exists(path):
                    os.unlink(path)
            status, rss = spawn(argv, env, stdout, stderr)
            result = {"status": status, "files": {}, "meta": {"rss_kib": rss}}
            with open(stdout, "rb") as handle:
                result["stdout"] = handle.read()
            with open(stderr, "rb") as handle:
                result["stderr"] = handle.read()
            for path in outputs:
                if os.path.exists(path):
                    with open(path, "rb") as handle:
                        result["files"][os.path.basename(path)] = handle.read()
            if tracer is not None and os.path.exists(spans):
                with open(spans) as handle:
                    child = json.load(handle)
                os.unlink(spans)
                merge(tracer.spans, child["spans"], tracer.op)
                result["meta"]["import_s"] = child["import_s"]
            return result

        return thunk

    return [(req["name"], make(req)) for req in SEQUENCE]


# ------------------------------------------------------------ checks

def _enc(values):
    return None if values is None else [tio.encode_number(v) for v in values]


def _flags(req):
    args = req["args"]
    return {args[i][2:]: (args[i + 1] if i + 1 < len(args)
                          and not args[i + 1].startswith("--") else True)
            for i in range(len(args)) if args[i].startswith("--")}


def expected(req, fx):
    """What the request must print or write, computed in-process through
    the library: (JSON data or CSV text, simplex CSV text or None)."""
    f = _flags(req)
    path = {k: _path(v, fx) for k, v in f.items() if isinstance(v, str)}
    load_pop = lambda key: tio.population_from_json(tio.read_json(path[key]))
    ctx = (tio.context_from_json(tio.read_json(path["ctx"]))
           if "ctx" in path else None)
    mode = f.get("mode", "rational")
    tol = None if mode == "rational" else 1e-9
    sub = req["sub"]
    if sub in ("check-majorization", "thermalisation-check"):
        p, q = load_pop("p"), load_pop("q")
        witness = to.majorization_witness(p, q, ctx, tol)
        if sub == "check-majorization":
            route = f.get("route", "all")
            routes = (("curve", "abs", "embedded") if route == "all"
                      else (route,))
            verdicts = {r: to.thermo_majorizes(p, q, ctx, tol, route=r)
                        for r in routes}
            payload = {"verdict": all(verdicts.values()), "routes": verdicts,
                       "witness": _enc(witness)}
        else:
            payload = {"is_thermalisation":
                       to.is_thermalisation_of(p, q, ctx, tol),
                       "majorizes": witness is None,
                       "beta_order_p": list(to.beta_order(p, ctx).perm),
                       "beta_order_q": list(to.beta_order(q, ctx).perm),
                       "witness": _enc(witness)}
    elif sub == "synthesize":
        p, q = load_pop("p"), load_pop("q")
        try:
            seq = to.synthesize(p, q, ctx, group="no-group" not in f)
            payload = tio.sequence_to_json(seq)
        except to.SynthesisError as exc:
            payload = {"error": str(exc), "violated_elbow": _enc(exc.witness)}
    elif sub in ("decompose", "simulate"):
        if sub == "simulate":
            ctx = tio.context_from_json(tio.read_json(
                fx["files"][req["source"]]))
            path["t"] = fx["files"][req["source"] + "m"]
        dec = to.decompose(tio.matrix_from_json(tio.read_json(path["t"])),
                           ctx)
        if sub == "decompose":
            payload = tio.decomposition_to_json(dec)
        else:
            samples, seed = int(f["samples"]), int(f["seed"])
            mean, exact, sigma = to.simulate_mean(dec, load_pop("p"),
                                                  samples, seed)
            payload = {"samples": samples, "seed": seed, "mean": mean,
                       "exact": exact, "sigma": sigma}
    elif sub == "cone":
        p = load_pop("p")
        cone = to.thermal_cone(p, ctx, facets="facets" in f)
        payload = {"source": _enc(cone.source),
                   "vertices": [_enc(v) for v in cone.vertices],
                   "facets": None if cone.hull_facets is None else
                   [list(x) for x in cone.hull_facets]}
        if "simplex-csv" in f:
            coords = to.simplex_coordinates(cone.vertices)
            lines = ["x,y"] + [f"{x:.12g},{y:.12g}" for x, y in coords]
            return payload, "\n".join(lines) + "\n"
    elif sub == "jc-region":
        step = float(f.get("step", 0.05))
        lo, hi = float(f.get("beta-min", 0.05)), float(f.get("beta-max", 8.0))
        grid = np.arange(lo, hi + step / 2, step)
        payload = tio.region_csv_text(to.region_sweep(grid))
    elif sub == "jc-solve":
        result = to.find_s_for_target(float(f["target"]),
                                      float(f["beta-bar"]), 1e-9)
        if isinstance(result, to.NotAchievable):
            payload = {"achievable": False, "best": result.best,
                       "s_best": result.s_best}
        else:
            payload = {"achievable": True, "s": result}
    elif sub == "relax":
        p = load_pop("p")
        payload = {"x": list(to.relax(p, float(f["t"]), float(f["xi"]), ctx))}
    return payload, None


def _json(data):
    try:
        return json.loads(data)
    except ValueError:
        return None


def check_op(req, fx, out, memo) -> list[tuple[str, str | None]]:
    """(reason, known defect id or None) for everything wrong with one
    invocation."""
    err = out["stderr"].decode(errors="replace")
    lines = [ln for ln in err.splitlines() if ln.startswith(ERROR_TAG)]
    status = out["status"]
    if req["invalid"]:
        if status not in (1, 2):
            return [(f"exit {status} on an invalid request", None)]
        bad = []
        if "Traceback" in err:
            bad.append(("printed a traceback", req["known"]))
        if len(lines) != 1:
            bad.append((f"{len(lines)} {ERROR_TAG} lines, expected one",
                        req["known"]))
        if req["sub"] == "synthesize" and \
                _json(out["stdout"]) != memo_expected(req, fx, memo)[0]:
            bad.append(("refusal payload differs from the library", None))
        return bad
    if status != 0 or lines or "Traceback" in err:
        # simulate_mean's sigma can come out complex, which json cannot encode
        defect = ("complex-sigma" if req["sub"] == "simulate"
                  and "complex is not JSON serializable" in err else None)
        last = err.strip().splitlines()[-1:] or [""]
        return [(f"exit {status} on a valid request: {last[0][:160]}",
                 defect)]
    payload, extra = memo_expected(req, fx, memo)
    files = out["files"]
    f = _flags(req)
    main = files.get(f["out"][1:]) if "out" in f else out["stdout"]
    bad = []
    if main is None:
        bad.append("output file missing")
    elif isinstance(payload, str):
        if main != payload.encode():
            bad.append("output differs from the in-process library result")
    elif _json(main) != payload:
        bad.append("output differs from the in-process library result")
    if extra is not None and \
            files.get(f["simplex-csv"][1:]) != extra.encode():
        bad.append("simplex CSV differs from the library")
    if req["sub"] == "simulate" and not bad:
        got = json.loads(main)
        for m, e, sd in zip(got["mean"], got["exact"], got["sigma"]):
            if abs(m - e) > 5 * sd + 1e-12:
                bad.append(f"sample mean {m} beyond 5 sigma of {e}")
    return [(reason, None) for reason in bad]


def memo_expected(req, fx, memo):
    if req["name"] not in memo:
        memo[req["name"]] = expected(req, fx)
    return memo[req["name"]]


def checker(fx, ctxs):
    """Per-op checks, plus byte identity of every request that ran more
    than once and of the two default-grid jc-region requests."""
    by_name = {r["name"]: r for r in SEQUENCE}
    memo = {}
    first = {}

    def check(op, name, out):
        reasons = check_op(by_name[name], fx, out, memo)
        text = out["stdout"] + b"".join(out["files"].values())
        if first.setdefault(name, text) != text:
            reasons.append(("output bytes differ from an identical request",
                            None))
        if name == "jc-region.default.out" and \
                first.get("jc-region.default", text) != text:
            reasons.append(("file bytes differ from the stdout bytes of "
                            "jc-region.default", None))
        return reasons

    return check

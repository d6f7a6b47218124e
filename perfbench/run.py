"""thermo-ops benchmark: one workload, one run, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 40 \
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run with the per-layer wrappers installed and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
versions, sizes, failures by name and (traced) the tracing overhead is
written to ``perfbench/out/``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact-small", "cli-mix")
SETUP_PROBES = 11
# The reference loop's time at the nominal host speed in which the timing
# metrics are given (see at_nominal_speed).
NOMINAL_REFERENCE_S = 100e-6
TAIL_BEYOND = 10

# Defects of thermo_ops that the checks catch today.  An op hit by one still
# counts as failed; ``correct`` turns false only for failures not listed.
KNOWN_DEFECTS = {
    "step0-traceback": "jc-region --step 0 dies with a ZeroDivisionError "
                       "traceback instead of one THERMO-OPS-ERROR line",
    "threads-abc-traceback": "THERMO_OPS_THREADS=abc dies with a ValueError "
                             "traceback instead of one THERMO-OPS-ERROR line",
    "complex-sigma": "simulate_mean returns a complex sigma when a "
                     "coordinate's variance rounds below zero (every term "
                     "maps it alike); the CLI then dies encoding it",
    "synthesis-gap": "synthesize gives up with a SynthesisError on a target "
                     "made by elementary steps, so reachable; the library "
                     "calls this a known gap of its sequential construction",
}

END_TO_END = {"throughput_ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
              "success_rate": "ratio"}


def closed_loop(ops, seconds: float, block: int, check, tracer=None):
    """One caller, one op at a time, cycling through ``ops`` until every op
    has run once and the ops have taken ``seconds``, and then to the end of
    the current block of ``block`` ops, so every run measures whole blocks
    of the same mix.  The host's speed is probed with ``reference_time``
    just before and just after each op, outside its timing.  Each output is
    checked as soon as its op ends, outside the op's timing and untraced,
    and then dropped.

    Returns ([(op, name, latency_s, meta)], failures)."""
    records, failures = [], []
    busy = 0.0
    i = 0
    while busy < seconds or i % block or i < len(ops):
        name, thunk = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        before = reference_time()
        t0 = perf_counter()
        out = thunk()
        latency = perf_counter() - t0
        after = reference_time()
        if tracer is not None:
            tracer.paused = True
        failures += [{"op": i, "name": name, "reason": reason,
                      "defect": defect}
                     for reason, defect in check(i, name, out)]
        if tracer is not None:
            tracer.paused = False
        meta = {**out.get("meta", {}), "reference_s": (before, after)}
        records.append((i, name, latency, meta))
        busy += latency
        i += 1
    return records, failures


def reference_time() -> float:
    """Best of five timings of a fixed pure-Python Fraction loop, a probe of
    the host's speed that does not depend on thermo_ops."""
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        total = Fraction(0)
        for k in range(1, 40):
            total += Fraction(1, k)
        best = min(best, perf_counter() - t0)
    return best


def at_nominal_speed(seconds: float, references) -> float:
    """``seconds`` measured while the reference loop took ``references``,
    scaled to the nominal host speed.  A shared host runs this process at
    speeds up to about 1.8x apart, switching every second or so and drifting
    from run to run, and the reference loop slows with the ops."""
    return seconds * NOMINAL_REFERENCE_S / statistics.fmean(references)


def op_times(records, nominal=True):
    """Each op's time, the median over its repeats in the run: at the
    nominal host speed, from the reference timings taken just before and
    just after it, or else as measured."""
    times = {}
    for _, name, latency, meta in records:
        if nominal:
            latency = at_nominal_speed(latency, meta["reference_s"])
        times.setdefault(name, []).append(latency)
    return [statistics.median(t) for t in times.values()]


def timing(latencies):
    """(throughput_ops_per_s, latency_p50_ms, latency_tail_ms) of the op
    times, with the tail's percentile and samples beyond it."""
    value, percentile, beyond = tail(latencies)
    return ({"throughput_ops_per_s": len(latencies) / sum(latencies),
             "latency_p50_ms": statistics.median(latencies) * 1e3,
             "latency_tail_ms": value * 1e3}, percentile, beyond)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def child_env(root: str) -> dict:
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def setup_probe(spec_path: str, root: str) -> float:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), spec_path],
        env=child_env(root), capture_output=True, text=True, timeout=120,
        check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, nproc: int, cpu: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "pinned_cpu": cpu,
            "machine": platform.machine(), "commit": git_commit(root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "thermo_ops", "__init__.py")):
        sys.stderr.write("perfbench: ./src/thermo_ops not found; run from the "
                         "root of a thermo-ops checkout\n")
        return 2
    sys.path.insert(0, src)
    nproc = len(os.sched_getaffinity(0))
    # one CPU for this process and every child it starts, so that an op and
    # the reference timings around it run on the same CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import tracing
    import workload_cli
    import workload_exact
    from setup_probe import build_contexts

    module = {"exact-small": workload_exact,
              "cli-mix": workload_cli}[args.workload]
    work = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # corpus and fixtures, outside every measurement
    items, spec, sizes, digest = module.build(args.seed, work)
    spec_path = os.path.join(work, "contexts.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)

    setup_times, setup_raw = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        before = reference_time()
        seconds = setup_probe(spec_path, root)
        setup_raw.append(seconds)
        setup_times.append(at_nominal_speed(seconds,
                                            (before, reference_time())))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ctxs = build_contexts(spec)
    if args.workload == "cli-mix":
        ops = module.ops(items, child_env(root), tracer)
    else:
        ops = module.ops(items, ctxs)
    records, failures = closed_loop(ops, args.seconds, module.BLOCK,
                                    module.checker(items, ctxs), tracer)
    if tracer is not None:
        tracer.uninstall()
    if args.workload == "cli-mix":
        peak_kib = max(meta["rss_kib"] for *_, meta in records)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed_ops = {f["op"] for f in failures}
    attempted = len(records)
    busy = sum(t for _, _, t, _ in records)
    latencies = op_times(records)
    measured, tail_pct, tail_beyond = timing(latencies)
    measured.update({
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "success_rate": (attempted - len(failed_ops)) / attempted,
    })
    as_measured = timing(op_times(records, nominal=False))[0]
    if setup_raw:
        as_measured["setup_s"] = statistics.median(setup_raw)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root, nproc, cpu), "corpus_digest": digest,
        "sizes": sizes, "attempted": attempted, "failed": len(failed_ops),
        "error_rate": len(failed_ops) / attempted,
        "failures": failures, "busy_s": busy,
        "passes": attempted / len(latencies),
        "op_latencies_s": [[name, t, *meta["reference_s"]]
                           for _, name, t, meta in records],
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies),
                         "beyond": tail_beyond},
        "setup_probes_s": setup_raw,
        "as_measured": as_measured,
    }
    stem = os.path.join(OUT, f"{args.workload}.seed{args.seed}")
    if args.trace:
        cli_times, import_times = {}, []
        if args.workload == "cli-mix":
            subs = {r["name"]: r["sub"] for r in workload_cli.SEQUENCE}
            for _, name, t, meta in records:
                cli_times.setdefault(subs[name], []).append(t)
                if "import_s" in meta:
                    import_times.append(meta["import_s"])
        layers = tracing.layer_metrics(tracer.spans, cli_times, import_times)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
                   for k, v in layers.items()}
        record["traced_end_to_end"] = {k: measured[k] for k in
                                       ("throughput_ops_per_s",
                                        "latency_p50_ms")}
        record["absent_layers"] = sorted(
            {name.split(".")[0] for name, v in layers.items()}
            - {name.split(".")[0] for name, v in layers.items() if v})
        record["overhead"] = overhead(args.workload, args.seed, measured)
        with open(stem + ".spans.json", "w") as handle:
            json.dump(tracer.spans, handle)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in measured.items()}
    record["metrics"] = metrics
    with open(f"{stem}.trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    report(args, record)
    correct = all(f["defect"] in KNOWN_DEFECTS for f in failures)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


def overhead(workload: str, seed: int, traced: dict):
    """Traced minus untraced throughput and median latency, against the
    untraced record of the same seed or else the newest one of the
    workload; None when there is none."""
    same = os.path.join(OUT, f"{workload}.seed{seed}.trace0.json")
    found = [same] if os.path.exists(same) else sorted(
        glob.glob(os.path.join(OUT, f"{workload}.seed*.trace0.json")),
        key=os.path.getmtime)[-1:]
    try:
        with open(found[0]) as handle:
            plain = json.load(handle)
    except (IndexError, OSError, ValueError):
        return None
    out = {"untraced_seed": plain["seed"]}
    for key in ("throughput_ops_per_s", "latency_p50_ms"):
        base = plain["metrics"][key]["value"]
        out[key] = {"untraced": base, "traced": traced[key],
                    "difference": traced[key] - base,
                    "share": (traced[key] - base) / base}
    return out


def report(args, record) -> None:
    """Human-readable lines; the JSON summary follows as the last line."""
    env = record["environment"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} commit={env['commit']}")
    print(f"# corpus {record['corpus_digest'][:16]} sizes "
          f"{json.dumps(record['sizes'])[:200]}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    t = record["latency_tail"]
    if not args.trace:
        print(f"# latency_tail_ms is p{t['percentile']:.1f} of "
              f"{t['samples']} samples ({t['beyond']} beyond it)")
        print(f"# times above are at the nominal host speed; as measured: "
              + ", ".join(f"{k} = {v:.6g}"
                          for k, v in record["as_measured"].items()))
    print(f"# attempted {record['attempted']}, failed {record['failed']}, "
          f"error_rate {record['error_rate']:.4g}")
    for f in record["failures"]:
        kind = f"known defect {f['defect']}" if f["defect"] else "NEW"
        print(f"# failed op {f['op']} {f['name']}: {f['reason']} ({kind})")
    for defect in sorted({f["defect"] for f in record["failures"]} - {None}):
        print(f"# {defect}: {KNOWN_DEFECTS[defect]}")
    if args.trace:
        if record["absent_layers"]:
            print("# absent layers (the workload makes no call into them): "
                  + ", ".join(record["absent_layers"]))
        found = record["overhead"]
        if found is None:
            print("# tracing overhead: no untraced record of this workload "
                  "yet; run --trace 0 first")
        for key, o in (found or {}).items():
            if key != "untraced_seed":
                print(f"# tracing overhead {key}: {o['untraced']:.6g} "
                      f"untraced (seed {found['untraced_seed']}), "
                      f"{o['traced']:.6g} traced ({o['share']:+.1%})")


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's own machinery.

Run from the repository root: ``python3 perfbench/selftest.py``.  Checks
that a corpus is a function of its seed (same seed, same digest; another
seed, another digest) and that the per-op checks count a tampered output as
failed.  Exits 1 on the first failed check.
"""

import copy
import dataclasses
import json
import os
import shutil
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import thermo_ops as to  # noqa: E402

import corpus  # noqa: E402
import workload_cli  # noqa: E402
import workload_exact  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                    "selftest")


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def digests():
    a, b, c = (corpus.digest(corpus.exact_small(s, 60)) for s in (7, 7, 8))
    expect(a == b, "exact-small: same seed gives the same corpus digest")
    expect(a != c, "exact-small: another seed gives another digest")
    found = [workload_cli.build(seed, fixture_dir(k))[3]
             for k, seed in enumerate((7, 7, 8))]
    expect(found[0] == found[1], "cli-mix: same seed gives the same fixtures")
    expect(found[0] != found[2], "cli-mix: another seed gives other fixtures")


def fixture_dir(k) -> str:
    work = os.path.join(ROOT, str(k))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def tampered_sequence():
    items = corpus.exact_small(3, 50)
    item = next(i for i in items if i["kind"] == "edp" and i["p"] != i["q"])
    ctx = to.gibbs_context_from_weights(item["g"])
    item["majorized"] = True
    out = workload_exact.run_op(item, ctx)
    expect(workload_exact.check_op(item, ctx, out) == [],
           "exact-small: an untouched op passes its checks")
    seq = out["seq"]
    first = seq.steps[0]
    p_down = Fraction(1, 2) if first.p_down == 1 else (first.p_down + 1) / 2
    altered = dataclasses.replace(first, p_down=p_down)
    out["seq"] = dataclasses.replace(seq, steps=(altered, *seq.steps[1:]))
    expect(workload_exact.check_op(item, ctx, out) != [],
           "exact-small: one altered p_down fails the op")


def tampered_decomposition():
    fx = workload_cli.build(5, fixture_dir("dec"))[0]
    req = next(r for r in workload_cli.SEQUENCE if r["sub"] == "decompose")
    name = next(a for a in req["args"] if a.startswith(">"))[1:]
    payload, _ = workload_cli.expected(req, fx)

    def check(obj):
        out = {"status": 0, "stdout": b"", "stderr": b"",
               "files": {name: json.dumps(obj).encode()}}
        return workload_cli.check_op(req, fx, out, {})

    expect(check(payload) == [],
           "cli-mix: an untouched decomposition passes its checks")
    tampered = copy.deepcopy(payload)
    num, den = tampered["terms"][0]["weight"]
    tampered["terms"][0]["weight"] = [str(int(num) * 10**12 + 1),
                                      str(int(den) * 10**12)]
    expect(check(tampered) != [],
           "cli-mix: one altered decomposition weight fails the op")


if __name__ == "__main__":
    try:
        digests()
        tampered_sequence()
        tampered_decomposition()
    finally:
        shutil.rmtree(ROOT, ignore_errors=True)

"""Digests of the library's outputs over the benchmark's fixed corpora.

From any directory:

    python3 scripts/same_outputs.py

prints two SHA-256 digests, one per line:

- ``exact-small``: ``workload_exact.fingerprint`` of every instance of the
  exact-small corpora of seeds 1-3, each run once;
- ``cli-mix``: every cli-mix request of seeds 1-3, run once as a process:
  its name, exit status, stdout, stderr and output files, with the
  temporary work directory replaced by a fixed placeholder.

A change meant to keep every returned value and every byte on disk prints
the same two lines in its checkout as in its parent's.  Nothing is timed,
and the modules under ``perfbench/`` are imported as they are; the whole
run takes about 30 s.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import workload_cli  # noqa: E402
import workload_exact  # noqa: E402
from setup_probe import build_contexts  # noqa: E402

SEEDS = (1, 2, 3)
PLACEHOLDER = b"<work>"


def exact_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        items, spec, _, _ = workload_exact.build(seed, None)
        ops = workload_exact.ops(items, build_contexts(spec))
        for name, op in ops:
            line = f"{seed} {name} {workload_exact.fingerprint(op())}\n"
            h.update(line.encode())
    return h.hexdigest()


def cli_digest() -> str:
    env = run.child_env(ROOT)
    h = hashlib.sha256()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            fx = workload_cli.build(seed, work)[0]
            for name, op in workload_cli.ops(fx, env):
                result = op()
                parts = [name.encode(), str(result["status"]).encode(),
                         result["stdout"], result["stderr"]]
                for file in sorted(result["files"]):
                    parts += [file.encode(), result["files"][file]]
                for part in parts:
                    part = part.replace(work.encode(), PLACEHOLDER)
                    h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


if __name__ == "__main__":
    print(f"exact-small {exact_digest()}")
    print(f"cli-mix {cli_digest()}")

"""Digests of the library's outputs over the benchmark's fixed corpora.

From any directory:

    python3 scripts/same_outputs.py

prints SHA-256 digests of two workloads, each on a line of its own:

- ``exact-small``: ``workload_exact.fingerprint`` of every instance of the
  exact-small corpora of seeds 1-3, each run once;
- ``cli-mix``: every cli-mix request of seeds 1-3, run once as a process:
  its name, exit status, stdout, stderr and output files, with the
  temporary work directory replaced by a fixed placeholder.

Each workload's line is followed by one line per part,
``exact-small seed<n> <digest>`` for each seed and ``cli-mix <request>
<digest>`` for each request (over its three seeds).  A change meant to
keep every returned value and every byte on disk prints the same lines in
its checkout as in its parent's; a change meant to alter some outputs
names the requests whose lines differ, and ``awk 'NF == 2'`` keeps just
the two whole digests.  Nothing is timed, and the modules under
``perfbench/`` are imported as they are; the whole run takes about 30 s.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
PLACEHOLDER = b"<work>"


def exact_ops():
    """(seed, request name, bytes hashed) of every exact-small op."""
    import workload_exact
    from setup_probe import build_contexts
    for seed in SEEDS:
        items, spec, _, _ = workload_exact.build(seed, None)
        for name, op in workload_exact.ops(items, build_contexts(spec)):
            line = f"{seed} {name} {workload_exact.fingerprint(op())}\n"
            yield seed, name, line.encode()


def cli_ops():
    """(seed, request name, bytes hashed) of every cli-mix request."""
    import run
    import workload_cli
    env = run.child_env(ROOT)
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            fx = workload_cli.build(seed, work)[0]
            for name, op in workload_cli.ops(fx, env):
                yield seed, name, cli_bytes(name, op(), work)


def cli_bytes(name: str, result: dict, work: str) -> bytes:
    """One request's name, exit status, stdout, stderr and output files,
    each length-prefixed, with ``work`` replaced by the placeholder."""
    parts = [name.encode(), str(result["status"]).encode(),
             result["stdout"], result["stderr"]]
    for file in sorted(result["files"]):
        parts += [file.encode(), result["files"][file]]
    out = b""
    for part in parts:
        part = part.replace(work.encode(), PLACEHOLDER)
        out += len(part).to_bytes(8, "big") + part
    return out


def digests(ops, key) -> tuple[str, dict[str, str]]:
    """The digest of every op's bytes in order, and for each ``key(seed,
    name)`` the digest of its ops' bytes, in order of first appearance."""
    whole, each = hashlib.sha256(), {}
    for seed, name, data in ops:
        whole.update(data)
        each.setdefault(key(seed, name), hashlib.sha256()).update(data)
    return whole.hexdigest(), {k: h.hexdigest() for k, h in each.items()}


def main() -> None:
    # the digest functions import the benchmark's modules from here, so
    # that importing this file (as its tests do) leaves sys.path alone
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
    for workload, ops, key in (
            ("exact-small", exact_ops, lambda seed, _: f"seed{seed}"),
            ("cli-mix", cli_ops, lambda _, name: name)):
        whole, each = digests(ops(), key)
        print(f"{workload} {whole}", flush=True)
        for part, digest in each.items():
            print(f"{workload} {part} {digest}", flush=True)


if __name__ == "__main__":
    main()

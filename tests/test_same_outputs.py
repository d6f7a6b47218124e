"""scripts/same_outputs.py's digests on a stub op list: the whole digest,
one per request, and the work-directory placeholder."""

import hashlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "scripts", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

WORK = "/tmp/stub-work"


def stub_ops(cone_stdout=b"[1]\n"):
    """Two requests as (name, thunk) pairs, the way workload_cli.ops
    returns them; the second names the work directory in its output."""
    return [
        ("cone.facets", lambda: {"status": 0, "stdout": cone_stdout,
                                 "stderr": b"", "files": {}}),
        ("relax.out", lambda: {"status": 1, "stdout": b"",
                               "stderr": f"no file {WORK}/x\n".encode(),
                               "files": {"b.json": b"{}", "a.json": b"[]"}}),
    ]


def run_stub(seeds=(1, 2), **kwargs):
    ops = [(seed, name, same_outputs.cli_bytes(name, op(), WORK))
           for seed in seeds for name, op in stub_ops(**kwargs)]
    return same_outputs.digests(ops, lambda _, name: name)


def framed(*parts: bytes) -> bytes:
    return b"".join(len(p).to_bytes(8, "big") + p for p in parts)


# the stub requests' bytes: files in name order, the work directory replaced
CONE = framed(b"cone.facets", b"0", b"[1]\n", b"")
RELAX = framed(b"relax.out", b"1", b"", b"no file <work>/x\n",
               b"a.json", b"[]", b"b.json", b"{}")


def test_request_bytes_are_framed_with_the_placeholder():
    assert [same_outputs.cli_bytes(name, op(), WORK)
            for name, op in stub_ops()] == [CONE, RELAX]


def test_whole_digest_and_one_per_request():
    whole, each = run_stub()
    assert whole == hashlib.sha256(2 * (CONE + RELAX)).hexdigest()
    assert each == {"cone.facets": hashlib.sha256(2 * CONE).hexdigest(),
                    "relax.out": hashlib.sha256(2 * RELAX).hexdigest()}


def test_changed_output_names_only_its_request():
    whole, each = run_stub()
    whole2, each2 = run_stub(cone_stdout=b"[2]\n")
    assert whole != whole2
    assert each["relax.out"] == each2["relax.out"]
    assert each["cone.facets"] != each2["cone.facets"]


def test_digest_per_seed():
    ops = [(seed, name, same_outputs.cli_bytes(name, op(), WORK))
           for seed in (1, 2) for name, op in stub_ops()]
    _, each = same_outputs.digests(ops, lambda seed, _: f"seed{seed}")
    assert list(each) == ["seed1", "seed2"]
    assert each["seed1"] == each["seed2"]


def test_main_prints_each_whole_digest_before_its_parts(monkeypatch,
                                                        capsys):
    cli = [(seed, name, same_outputs.cli_bytes(name, op(), WORK))
           for seed in (1, 2) for name, op in stub_ops()]
    exact = [(seed, "majorizes", f"{seed} majorizes True\n".encode())
             for seed in (1, 2)]
    monkeypatch.setattr(same_outputs, "exact_ops", lambda: iter(exact))
    monkeypatch.setattr(same_outputs, "cli_ops", lambda: iter(cli))
    monkeypatch.setattr(same_outputs.sys, "path", [])
    same_outputs.main()
    whole, each = run_stub()
    assert capsys.readouterr().out.splitlines() == [
        "exact-small " + hashlib.sha256(b"".join(d for *_, d in exact))
        .hexdigest(),
        "exact-small seed1 " + hashlib.sha256(exact[0][2]).hexdigest(),
        "exact-small seed2 " + hashlib.sha256(exact[1][2]).hexdigest(),
        f"cli-mix {whole}",
        f"cli-mix cone.facets {each['cone.facets']}",
        f"cli-mix relax.out {each['relax.out']}",
    ]

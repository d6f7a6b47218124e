import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import thermo_ops
from thermo_ops import (decompose, gibbs_context_from_weights, make_edp_step,
                        thermo_transposition)
from thermo_ops.cli import MAX_REGION_ROWS, build_parser, main
from thermo_ops.cone import MAX_CONE_LEVELS, MAX_FACET_LEVELS
from thermo_ops.jaynes_cummings import MAX_SOLVE_TERMS
from thermo_ops.core import MAX_LEVELS
from thermo_ops.synthesis import MAX_SYNTHESIS_LEVELS
from thermo_ops.io import (context_to_json, decomposition_to_json,
                           matrix_to_json, population_to_json,
                           write_json_atomic)

F = Fraction
DATA = Path(__file__).parent / "data"


@pytest.fixture
def workdir(tmp_path):
    ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
    write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
    write_json_atomic(tmp_path / "p.json",
                      population_to_json((F(1), F(0))))
    write_json_atomic(tmp_path / "q.json",
                      population_to_json((F(1, 2), F(1, 2))))
    return tmp_path, ctx


def run(*argv):
    return main([str(a) for a in argv])


def assert_one_error(capsys, code):
    """Nothing on stdout and exactly one error line of the given code."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"THERMO-OPS-ERROR code={code} msg=")
    return lines[0]


class TestCheckMajorization:
    def test_verdict_true(self, workdir, capsys):
        d, _ = workdir
        assert run("check-majorization", "--p", d / "p.json",
                   "--q", d / "q.json", "--ctx", d / "ctx.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] is True
        assert out["witness"] is None
        assert set(out["routes"]) == {"curve", "abs", "embedded"}

    def test_single_route_and_outfile(self, workdir):
        d, _ = workdir
        assert run("check-majorization", "--p", d / "p.json",
                   "--q", d / "q.json", "--ctx", d / "ctx.json",
                   "--route", "curve", "--out", d / "verdict.json") == 0
        payload = json.loads((d / "verdict.json").read_text())
        assert payload["routes"] == {"curve": True}

    @pytest.mark.parametrize("ctx", [
        {"energies": [0.0] * (MAX_LEVELS + 1)},
        {"energies": [0.0] * (MAX_LEVELS + 1), "max_denominator": None},
        {"g": [["1", str(MAX_LEVELS + 1)]] * (MAX_LEVELS + 1)},
    ], ids=["fitted", "float", "exact"])
    def test_context_over_level_cap(self, tmp_path, capsys, ctx):
        """A context file with one level above the cap is refused when it
        is read, before any majorisation work."""
        n = MAX_LEVELS + 1
        (tmp_path / "ctx.json").write_text(json.dumps(ctx))
        write_json_atomic(tmp_path / "p.json",
                          population_to_json((F(1, n),) * n))
        t0 = time.perf_counter()
        assert run("check-majorization", "--p", tmp_path / "p.json",
                   "--q", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json", "--mode", "float") == 1
        assert time.perf_counter() - t0 < 1.0
        line = assert_one_error(capsys, "DOMAIN")
        assert f"cap of {MAX_LEVELS}" in line

    def test_witness_on_failure(self, workdir, capsys):
        d, _ = workdir
        assert run("check-majorization", "--p", d / "q.json",
                   "--q", d / "p.json", "--ctx", d / "ctx.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] is False and out["witness"] is not None


class TestSynthesize:
    def test_writes_sequence(self, workdir):
        d, _ = workdir
        assert run("synthesize", "--p", d / "p.json", "--q", d / "q.json",
                   "--ctx", d / "ctx.json", "--out", d / "seq.json") == 0
        seq = json.loads((d / "seq.json").read_text())
        assert seq["steps"] == [{"lo": 0, "hi": 1, "p_down": ["1", "1"]}]
        assert seq["provenance"][0]["origin"] in ("aligned", "phase", "greedy")
        assert seq["relabel_in"] == [0, 1] and seq["relabel_out"] == [1, 0]

    @staticmethod
    def billion_slot_pair(path):
        """An aligned pair at D = 10^9 on which every level moves."""
        d = (4 * 10**8 - 1, 3 * 10**8, 3 * 10**8 + 1)
        ctx = gibbs_context_from_weights([F(di, sum(d)) for di in d])
        write_json_atomic(path / "ctx.json", context_to_json(ctx))
        write_json_atomic(path / "p.json", population_to_json(
            (F(9, 10), F(1, 20), F(1, 20))))
        write_json_atomic(path / "q.json", population_to_json(
            (F(7, 10), F(3, 20), F(3, 20))))

    def test_billion_slot_aligned_pair_as_process(self, tmp_path):
        """An aligned pair at D = 10^9 costs one step per level run, so
        the whole process ends well inside its timeout."""
        self.billion_slot_pair(tmp_path)
        src = os.path.dirname(os.path.dirname(thermo_ops.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "thermo_ops.cli", "synthesize",
             "--p", tmp_path / "p.json", "--q", tmp_path / "q.json",
             "--ctx", tmp_path / "ctx.json", "--out", tmp_path / "seq.json"],
            env=env, capture_output=True, timeout=30)
        assert done.returncode == 0, done.stderr
        seq = json.loads((tmp_path / "seq.json").read_text())
        assert len(seq["steps"]) == 2

    def test_ungrouped_billion_slot_pair_answered(self, tmp_path):
        """Ungrouped, the same pair costs the same two level runs."""
        self.billion_slot_pair(tmp_path)
        t0 = time.perf_counter()
        assert run("synthesize", "--no-group", "--p", tmp_path / "p.json",
                   "--q", tmp_path / "q.json", "--ctx", tmp_path / "ctx.json",
                   "--out", tmp_path / "seq.json") == 0
        assert time.perf_counter() - t0 < 1.0
        assert (tmp_path / "seq.json").stat().st_size < 2**20
        seq = json.loads((tmp_path / "seq.json").read_text())
        assert len(seq["steps"]) == 2 and len(seq["provenance"]) == 2

    def test_levels_over_cap_is_domain_error(self, tmp_path, capsys):
        """One level above the synthesis cap is refused, even for p = q."""
        n = MAX_SYNTHESIS_LEVELS + 1
        D = n * (n + 1) // 2
        ctx = gibbs_context_from_weights([F(i, D) for i in range(1, n + 1)])
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "p.json", population_to_json(ctx.g))
        assert run("synthesize", "--p", tmp_path / "p.json",
                   "--q", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json") == 1
        line = assert_one_error(capsys, "DOMAIN")
        assert f"cap of {MAX_SYNTHESIS_LEVELS}" in line

    def test_unreachable_exits_one_with_elbow(self, workdir, capsys):
        d, _ = workdir
        status = run("synthesize", "--p", d / "q.json", "--q", d / "p.json",
                     "--ctx", d / "ctx.json", "--out", d / "seq.json")
        assert status == 1
        captured = capsys.readouterr()
        assert "THERMO-OPS-ERROR code=DOMAIN" in captured.err
        payload = json.loads(captured.out)
        assert "violated_elbow" in payload


class TestDecomposeSimulate:
    def test_round_trip(self, workdir, capsys):
        d, ctx = workdir
        t = thermo_transposition(ctx, 0, 1).as_matrix(ctx)
        write_json_atomic(d / "t.json", matrix_to_json(t))
        assert run("decompose", "--t", d / "t.json", "--ctx", d / "ctx.json",
                   "--out", d / "dec.json") == 0
        assert run("simulate", "--dec", d / "dec.json", "--p", d / "p.json",
                   "--samples", 1000, "--seed", 7) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] == [0.5, 0.5]
        assert out["mean"] == [0.5, 0.5]  # single-term mixture

    def test_writes_no_slot_permutation(self, workdir):
        d, ctx = workdir
        t = make_edp_step(ctx, 0, 1, F(1, 3)).as_matrix(ctx)
        write_json_atomic(d / "t.json", matrix_to_json(t))
        assert run("decompose", "--t", d / "t.json", "--ctx", d / "ctx.json",
                   "--out", d / "dec.json") == 0
        dec = json.loads((d / "dec.json").read_text())
        assert set(dec) == {"d", "terms"}
        assert dec["d"] == [2, 1]
        assert len(dec["terms"]) == 2
        assert all(set(term) == {"weight", "counts"} for term in dec["terms"])

    def test_old_format_file_is_refused(self, capsys):
        """A file of an earlier version holds each term's column-stochastic
        ``cols`` (and its slot permutation ``lifted_perm``) but no slot
        counts, so no term can be checked to be thermal: it is refused,
        naming the remedy."""
        assert run("simulate", "--dec", DATA / "old_format_dec.json",
                   "--p", DATA / "old_format_p.json",
                   "--samples", 100000, "--seed", 8) == 2
        line = assert_one_error(capsys, "FORMAT")
        assert "earlier version" in line and "decompose again" in line

    def test_simulate_single_term_sigma_zero(self, workdir, capsys):
        d, ctx = workdir
        dec = decompose(thermo_transposition(ctx, 0, 1).as_matrix(ctx), ctx)
        write_json_atomic(d / "dec.json", decomposition_to_json(dec))
        write_json_atomic(d / "p3.json",
                          population_to_json((F(1, 3), F(2, 3))))
        assert run("simulate", "--dec", d / "dec.json", "--p", d / "p3.json",
                   "--samples", 1000, "--seed", 1, "--out",
                   d / "sim.json") == 0
        out = json.loads((d / "sim.json").read_text())
        assert out["sigma"] == [0.0, 0.0]

    def test_simulate_deterministic(self, workdir, capsys):
        d, ctx = workdir
        dec = decompose(thermo_transposition(ctx, 0, 1).as_matrix(ctx), ctx)
        write_json_atomic(d / "dec.json", decomposition_to_json(dec))
        args = ("simulate", "--dec", d / "dec.json", "--p", d / "p.json",
                "--samples", 500, "--seed", 3)
        assert run(*args) == 0
        first = capsys.readouterr().out
        assert run(*args) == 0
        assert capsys.readouterr().out == first


class TestSimulateArguments:
    """Sample counts numpy cannot draw and negative seeds are domain
    errors, not tracebacks."""

    @pytest.mark.parametrize("samples,seed", [
        (10**20, 1), (2**63, 1), (0, 1), (-5, 1), (10, -1)])
    def test_out_of_range_is_domain_error(self, samples, seed, workdir,
                                          capsys):
        d, ctx = workdir
        dec = decompose(thermo_transposition(ctx, 0, 1).as_matrix(ctx), ctx)
        write_json_atomic(d / "dec.json", decomposition_to_json(dec))
        assert run("simulate", "--dec", d / "dec.json", "--p", d / "p.json",
                   "--samples", samples, "--seed", seed) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=DOMAIN")


class TestCone:
    def test_vertices_and_simplex(self, tmp_path, capsys):
        ctx = gibbs_context_from_weights([F(4, 7), F(2, 7), F(1, 7)])
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "p.json",
                          population_to_json((F(1), F(0), F(0))))
        assert run("cone", "--p", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json", "--facets",
                   "--out", tmp_path / "cone.json",
                   "--simplex-csv", tmp_path / "tern.csv") == 0
        cone = json.loads((tmp_path / "cone.json").read_text())
        assert len(cone["vertices"]) >= 2
        assert cone["facets"]
        lines = (tmp_path / "tern.csv").read_text().splitlines()
        assert lines[0] == "x,y" and len(lines) == len(cone["vertices"]) + 1

    def test_levels_over_cap_is_domain_error(self, tmp_path, capsys):
        """One level above the cap is refused before the n! walk."""
        n = MAX_CONE_LEVELS + 1
        D = n * (n + 1) // 2
        ctx = gibbs_context_from_weights([F(i, D) for i in range(1, n + 1)])
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "p.json",
                          population_to_json((F(1),) + (F(0),) * (n - 1)))
        t0 = time.perf_counter()
        assert run("cone", "--p", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json") == 1
        assert time.perf_counter() - t0 < 1.0
        line = assert_one_error(capsys, "DOMAIN")
        assert str(MAX_CONE_LEVELS) in line

    def test_facets_over_limit_refused_before_the_walk(
            self, tmp_path, capsys, monkeypatch):
        """Five levels with --facets are refused before ``cone_vertices``
        walks the n! orderings that ``hull_facets`` would then refuse."""
        n = MAX_FACET_LEVELS + 1
        D = n * (n + 1) // 2
        ctx = gibbs_context_from_weights([F(i, D) for i in range(1, n + 1)])
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "p.json",
                          population_to_json((F(1),) + (F(0),) * (n - 1)))

        def walk(*args, **kwargs):
            raise AssertionError("cone_vertices ran")

        monkeypatch.setattr("thermo_ops.cone.cone_vertices", walk)
        assert run("cone", "--p", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json", "--facets") == 1
        line = assert_one_error(capsys, "DOMAIN")
        assert f"n <= {MAX_FACET_LEVELS}" in line

    @pytest.mark.parametrize("to_file", [False, True])
    def test_simplex_csv_error_leaves_no_output(self, tmp_path, capsys,
                                                to_file):
        """On four levels the simplex coordinates fail before any output:
        no JSON on stdout or in --out, and no CSV."""
        ctx = gibbs_context_from_weights([F(4, 10), F(3, 10), F(2, 10),
                                          F(1, 10)])
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "p.json",
                          population_to_json((F(1), F(0), F(0), F(0))))
        out = ("--out", tmp_path / "cone.json") if to_file else ()
        assert run("cone", "--p", tmp_path / "p.json",
                   "--ctx", tmp_path / "ctx.json", *out,
                   "--simplex-csv", tmp_path / "tern.csv") == 1
        line = assert_one_error(capsys, "DOMAIN")
        assert "three levels" in line
        assert not (tmp_path / "cone.json").exists()
        assert not (tmp_path / "tern.csv").exists()


class TestJc:
    def test_region_csv_byte_stable(self, tmp_path):
        args = ("jc-region", "--beta-min", 0.2, "--beta-max", 1.0,
                "--step", 0.2, "--out", tmp_path / "r.csv")
        assert run(*args) == 0
        first = (tmp_path / "r.csv").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "r.csv").read_bytes() == first
        header = first.decode().splitlines()[0]
        assert header == "beta_bar,lower,upper,plt_max,jc_beats_plt"

    @pytest.mark.parametrize("argv, golden", [
        ((), "jc_region_default.csv"),
        (("--step", "0.04"), "jc_region_step004.csv")])
    def test_region_csv_matches_golden_file(self, argv, golden, tmp_path):
        """The sweep's CSV stays byte for byte what it was when these
        files were written, so that a faster sweep can be checked
        against it."""
        assert run("jc-region", *argv, "--out", tmp_path / "r.csv") == 0
        assert ((tmp_path / "r.csv").read_bytes()
                == (DATA / golden).read_bytes())

    def test_region_thread_env(self, tmp_path, monkeypatch):
        args = ("jc-region", "--beta-min", 0.2, "--beta-max", 1.0,
                "--step", 0.2, "--out", tmp_path / "r.csv")
        assert run(*args) == 0
        serial = (tmp_path / "r.csv").read_bytes()
        monkeypatch.setenv("THERMO_OPS_THREADS", "3")
        assert run(*args) == 0
        assert (tmp_path / "r.csv").read_bytes() == serial

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_region_bad_step_is_domain_error(self, step, capsys):
        assert run("jc-region", "--step", step) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=DOMAIN")

    @pytest.mark.parametrize("argv", [
        ("--step", "1e-300"),
        ("--beta-min", "1", "--beta-max", "1e308", "--step", "1"),
        # 100001 rows, one above the cap
        ("--beta-min", "0.05", "--beta-max", "10.05", "--step", "1e-4")])
    def test_region_grid_over_cap_is_domain_error(self, argv, capsys):
        assert run("jc-region", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=DOMAIN")
        assert str(MAX_REGION_ROWS) in lines[0]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_region_bad_thread_env_is_format_error(self, value, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("THERMO_OPS_THREADS", value)
        assert run("jc-region", "--beta-min", 0.2, "--beta-max", 1.0,
                   "--step", 0.2, "--out", tmp_path / "r.csv") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=FORMAT")
        assert not (tmp_path / "r.csv").exists()

    def test_solve(self, capsys):
        assert run("jc-solve", "--target", 0.3, "--beta-bar", 1.0) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["achievable"] is True and out["s"] > 0
        assert run("jc-solve", "--target", 0.999, "--beta-bar", 0.2) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["achievable"] is False and 0 < out["best"] < 0.999


class TestRelaxAndThermalisation:
    def test_relax(self, workdir, capsys):
        d, ctx = workdir
        assert run("relax", "--p", d / "p.json", "--ctx", d / "ctx.json",
                   "--t", 0.0, "--xi", 1.0) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x"] == [1.0, 0.0]

    def test_thermalisation_check(self, workdir, capsys):
        d, _ = workdir
        assert run("thermalisation-check", "--p", d / "p.json",
                   "--q", d / "q.json", "--ctx", d / "ctx.json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["majorizes"] is True
        assert out["is_thermalisation"] is False  # beta-order inverts
        assert out["beta_order_p"] == [0, 1]
        assert out["beta_order_q"] == [1, 0]


class TestErrorPaths:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        status = run("check-majorization", "--p", bad, "--q", bad,
                     "--ctx", bad)
        assert status == 2
        assert "code=FORMAT" in capsys.readouterr().err

    def test_float_population_rejected_in_rational_mode(self, workdir,
                                                        capsys):
        d, _ = workdir
        write_json_atomic(d / "f.json", {"x": [0.5, 0.5]})
        status = run("synthesize", "--p", d / "f.json", "--q", d / "q.json",
                     "--ctx", d / "ctx.json")
        assert status == 2
        assert "code=FORMAT" in capsys.readouterr().err

    def test_dimension_mismatch_is_domain_error(self, workdir, capsys):
        d, _ = workdir
        write_json_atomic(d / "p3.json",
                          population_to_json((F(1, 2), F(1, 4), F(1, 4))))
        status = run("check-majorization", "--p", d / "p3.json",
                     "--q", d / "q.json", "--ctx", d / "ctx.json")
        assert status == 1
        assert "code=DOMAIN" in capsys.readouterr().err


GOOD_TERM = {"weight": ["1", "1"], "counts": [[1, 0], [0, 1]]}
WRONG_SHAPES = [
    ("p", {"x": 5}),
    ("t", {"n": 2, "cols": 5}),
    ("dec", {"d": [1, 1], "terms": 5}),
    ("dec", {"d": [1, 1], "terms": [5]}),
    ("dec", {"d": [1, 1], "terms": [{**GOOD_TERM, "counts": 5}]}),
    ("dec", {"d": [1, 1], "terms": [{**GOOD_TERM, "counts": [7, [0, 1]]}]}),
    ("ctx", {"energies": "ab"}),
    ("ctx", {"energies": [0.0, 1.0], "max_denominator": "x"}),
    ("ctx", {"g": [["2", "3"], ["1", "3"]], "d": 5, "D": 3}),
    ("dec", {"d": 5, "terms": [GOOD_TERM]}),
    ("ctx", {"energies": [0.0, 1.0], "d": [5, 1], "D": 6}),
]


class TestWrongShapeFiles:
    """A file whose fields have the wrong JSON type is a format error."""

    @pytest.mark.parametrize("kind,content", WRONG_SHAPES)
    def test_exits_two_with_one_line(self, kind, content, workdir, capsys):
        d, _ = workdir
        write_json_atomic(d / "bad.json", content)
        files = {"p": d / "p.json", "q": d / "q.json", "ctx": d / "ctx.json",
                 "t": d / "bad.json", "dec": d / "bad.json"}
        files[kind] = d / "bad.json"
        if kind == "t":
            argv = ("decompose", "--t", files["t"], "--ctx", files["ctx"])
        elif kind == "dec":
            argv = ("simulate", "--dec", files["dec"], "--p", files["p"],
                    "--samples", 10, "--seed", 1)
        else:
            argv = ("check-majorization", "--p", files["p"],
                    "--q", files["q"], "--ctx", files["ctx"])
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=FORMAT")


#: slot counts of every file of ``TestDecompositionContent`` but one
DEC_D = [1, 1]
DEC_TERM = {"weight": ["1", "1"], "counts": [[1, 0], [0, 1]]}
BAD_TERMS = [
    {**DEC_TERM, "counts": [[2, -1], [-1, 2]]},
    {**DEC_TERM, "counts": [[1.0, 0], [0, 1]]},
    {**DEC_TERM, "counts": [[["1", "1"], 0], [0, 1]]},
    {**DEC_TERM, "counts": [[True, False], [False, True]]},
    {**DEC_TERM, "counts": [[1, 0], [1, 0]]},
    {**DEC_TERM, "counts": [[1, 1], [0, 0]]},
    {**DEC_TERM, "counts": [[1, 0], [1]]},
    {**DEC_TERM, "counts": [[1, 0], [0, 1], [0, 0]]},
    # sends both levels to level 1, a map that fixes no Gibbs state
    {**DEC_TERM, "counts": [[0, 1], [0, 1]]},
]


class TestDecompositionContent:
    """A term that is not a block-count table over the file's slot counts
    ``d`` (nonnegative integers, rows and columns summing to ``d``) is a
    format error."""

    def simulate(self, d, dec):
        write_json_atomic(d / "dec.json", dec)
        return run("simulate", "--dec", d / "dec.json", "--p", d / "p.json",
                   "--samples", 10, "--seed", 1)

    @pytest.mark.parametrize("term", BAD_TERMS)
    def test_bad_term_exits_two(self, term, workdir, capsys):
        d, _ = workdir
        assert self.simulate(d, {"d": DEC_D, "terms": [term]}) == 2
        assert_one_error(capsys, "FORMAT")

    @pytest.mark.parametrize("slots,counts", [
        ([1, 0], [[1, 0], [0, 0]]), ([2, -1], [[2, -1], [-1, 0]]),
        ([1, 1.0], [[1, 0], [0, 1]]), ([1, True], [[1, 0], [0, 1]]),
        ([1, "1"], [[1, 0], [0, 1]])])
    def test_slot_counts_must_be_positive_integers(self, slots, counts,
                                                   workdir, capsys):
        d, _ = workdir
        term = {**DEC_TERM, "counts": counts}
        assert self.simulate(d, {"d": slots, "terms": [term]}) == 2
        assert_one_error(capsys, "FORMAT")

    @pytest.mark.parametrize("counts", [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    def test_thermo_permutation_term_accepted(self, counts, workdir):
        d, _ = workdir
        term = {**DEC_TERM, "counts": counts}
        assert self.simulate(d, {"d": DEC_D, "terms": [term]}) == 0

    @pytest.mark.parametrize("n", [7, 1, "2", None])
    def test_n_must_match_every_term(self, n, workdir, capsys):
        """``n`` is the length of ``d``; a table of another size, or a
        ``d`` that is not an array, is refused."""
        d, _ = workdir
        slots = [1] * n if isinstance(n, int) else n
        assert self.simulate(d, {"d": slots, "terms": [DEC_TERM]}) == 2
        assert_one_error(capsys, "FORMAT")


class TestGibbsFitCap:
    def test_wide_fit_refused_up_front(self, workdir, capsys):
        d, _ = workdir
        write_json_atomic(d / "fit.json", {"energies": [0, 0.7],
                                           "max_denominator": 400000000})
        start = time.perf_counter()
        status = run("check-majorization", "--p", d / "p.json",
                     "--q", d / "q.json", "--ctx", d / "fit.json")
        assert time.perf_counter() - start < 5
        assert status == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("THERMO-OPS-ERROR code=DOMAIN")


class TestFloatMode:
    def test_float_populations_accepted(self, workdir, capsys):
        d, _ = workdir
        write_json_atomic(d / "pf.json", {"x": [0.7, 0.3]})
        write_json_atomic(d / "qf.json", {"x": [0.68, 0.32]})
        assert run("check-majorization", "--p", d / "pf.json",
                   "--q", d / "qf.json", "--ctx", d / "ctx.json",
                   "--mode", "float") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] is True


class TestUsageErrors:
    """argparse errors print the one error line too (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ("check-majorization", "--p", "x"),
        ("simulate", "--dec", "d", "--p", "p", "--samples", "1.5",
         "--seed", "1"),
        ("jc-region", "--step", "abc"),
        (),
        ("jc-solve", "--target", "0.3", "--beta-bar", "1", "--mode", "float"),
    ])
    def test_one_format_line(self, argv, capsys):
        assert run(*argv) == 2
        assert_one_error(capsys, "FORMAT")

    @pytest.mark.parametrize("option", [("--mode", "float"), ("--tol", "7")])
    def test_removed_option(self, option, workdir, capsys):
        """synthesize reads neither option, so it no longer declares them."""
        d, _ = workdir
        assert run("synthesize", "--ctx", d / "ctx.json", "--p", d / "p.json",
                   "--q", d / "q.json", *option) == 2
        assert_one_error(capsys, "FORMAT")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("check-majorization", "--help")
        assert exc.value.code == 0
        assert "--route" in capsys.readouterr().out


def _declared_options(parser):
    """Settable option names of each subcommand (``--help`` excluded)."""
    sub = next(a for a in parser._actions if a.choices and a.dest == "command")
    return {name: [a.dest for a in sp._actions if a.dest != "help"]
            for name, sp in sub.choices.items()}


class TestOptions:
    def test_each_subcommand_declares_what_it_reads(self):
        options = _declared_options(build_parser())
        assert sum(map(len, options.values())) == 47
        with_tol = {k for k, v in options.items() if "tol" in v}
        with_mode = {k for k, v in options.items() if "mode" in v}
        assert with_tol == {"check-majorization", "decompose", "jc-solve",
                            "thermalisation-check"}
        assert with_mode == {"check-majorization", "simulate", "cone",
                             "thermalisation-check"}


@pytest.fixture
def motivation_pair(tmp_path):
    """g = (2/3, 1/3), p = (2/3, 1/3), q = (1/3, 2/3): p does not
    thermo-majorize q exactly, but does within 0.5."""
    ctx = gibbs_context_from_weights([F(2, 3), F(1, 3)])
    write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
    write_json_atomic(tmp_path / "p.json",
                      population_to_json((F(2, 3), F(1, 3))))
    write_json_atomic(tmp_path / "q.json",
                      population_to_json((F(1, 3), F(2, 3))))
    return ("--ctx", tmp_path / "ctx.json", "--p", tmp_path / "p.json",
            "--q", tmp_path / "q.json")


class TestToleranceOption:
    def test_explicit_tol_honoured_in_rational_mode(self, motivation_pair,
                                                    capsys):
        assert run("check-majorization", *motivation_pair,
                   "--route", "curve") == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is False
        assert run("check-majorization", *motivation_pair,
                   "--route", "curve", "--tol", 0.5) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    @pytest.mark.parametrize("sub", ["check-majorization",
                                     "thermalisation-check"])
    def test_zero_tol_writes_the_default_bytes(self, sub, motivation_pair,
                                               tmp_path):
        assert run(sub, *motivation_pair, "--out", tmp_path / "a.json") == 0
        assert run(sub, *motivation_pair, "--tol", 0,
                   "--out", tmp_path / "b.json") == 0
        assert ((tmp_path / "a.json").read_bytes()
                == (tmp_path / "b.json").read_bytes())

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_is_domain_error(self, tol, motivation_pair, capsys):
        assert run("check-majorization", *motivation_pair,
                   "--tol", tol) == 1
        assert_one_error(capsys, "DOMAIN")


class TestNumericArguments:
    """jc-solve and relax reject NaN, infinite, zero and negative values
    and a solve beyond the term cap with one error line (exit 1)."""

    @pytest.mark.parametrize("argv", [
        ("--beta-bar", "nan"), ("--beta-bar", "inf"),
        ("--beta-bar", "1", "--tol", "0"), ("--beta-bar", "1", "--tol", "-1"),
        ("--beta-bar", "1", "--tol", "nan"),
        ("--beta-bar", "1", "--tol", "inf")])
    def test_jc_solve_bad_value(self, argv, capsys):
        assert run("jc-solve", "--target", 0.3, *argv) == 1
        assert_one_error(capsys, "DOMAIN")

    @pytest.mark.parametrize("target", [0, 0.3])
    def test_jc_solve_over_term_cap(self, target, capsys):
        start = time.perf_counter()
        assert run("jc-solve", "--target", target, "--beta-bar", 1e-300) == 1
        assert time.perf_counter() - start < 5
        assert str(MAX_SOLVE_TERMS) in assert_one_error(capsys, "DOMAIN")

    @pytest.mark.parametrize("argv", [("--t", "nan", "--xi", "1"),
                                      ("--t", "1", "--xi", "nan"),
                                      ("--t", "-1", "--xi", "1"),
                                      ("--t", "1", "--xi", "0"),
                                      ("--t", "1", "--xi", "inf")])
    def test_relax_bad_value(self, argv, workdir, capsys):
        d, _ = workdir
        assert run("relax", "--ctx", d / "ctx.json", "--p", d / "p.json",
                   *argv) == 1
        assert_one_error(capsys, "DOMAIN")

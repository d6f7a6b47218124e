import json
import random
from fractions import Fraction

import pytest

from thermo_ops import (DomainError, StochasticMatrix, birkhoff_von_neumann,
                        decompose, gibbs_context_from_weights,
                        is_doubly_stochastic, is_gibbs_preserving, lift,
                        pull_back, random_edp_product,
                        random_gibbs_preserving, sample_process,
                        simulate_mean, thermo_transposition)
from thermo_ops.birkhoff import LiftedBistochastic
from thermo_ops.cli import main
from thermo_ops.io import (context_to_json, decomposition_to_json,
                           matrix_to_json, population_to_json, read_json,
                           write_json_atomic)

from conftest import rand_ctx, rand_pop

F = Fraction


class TestLift:
    def test_identity_blocks(self, two_thirds_ctx):
        m = lift(StochasticMatrix.identity(2), two_thirds_ctx)
        assert m.rows == (
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 2), F(1, 2), F(0)),
            (F(0), F(0), F(1)))
        assert is_doubly_stochastic(m, 0)

    def test_transposition_lift(self, two_thirds_ctx):
        t = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(two_thirds_ctx)
        m = lift(t, two_thirds_ctx)
        assert is_doubly_stochastic(m, 0)
        # T[0|0]/d_0 = (1/2)/2
        assert m.rows[0][0] == F(1, 4)

    def test_rejects_non_preserving(self, two_thirds_ctx):
        swap = StochasticMatrix(((F(0), F(1)), (F(1), F(0))))
        with pytest.raises(DomainError):
            lift(swap, two_thirds_ctx)


class TestBvn:
    def test_permutation_single_term(self):
        perm = LiftedBistochastic((
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
            (F(1), F(0), F(0))))
        terms = birkhoff_von_neumann(perm)
        assert len(terms) == 1 and terms[0][0] == 1

    def test_uniform_two_by_two(self):
        m = LiftedBistochastic(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        terms = birkhoff_von_neumann(m)
        assert sorted(w for w, _ in terms) == [F(1, 2), F(1, 2)]
        assert {perm for _, perm in terms} == {(0, 1), (1, 0)}

    def test_lifted_identity_reconstruction(self, two_thirds_ctx):
        m = lift(StochasticMatrix.identity(2), two_thirds_ctx)
        terms = birkhoff_von_neumann(m)
        assert sum(w for w, _ in terms) == 1
        assert len(terms) == 2
        # both factors act within the first block, so both pull back to the
        # identity on levels
        for _, perm in terms:
            assert pull_back(perm, two_thirds_ctx).pulled_back.cols == \
                StochasticMatrix.identity(2).cols

    def test_rejects_non_bistochastic(self):
        m = LiftedBistochastic(((F(1), F(1)), (F(0), F(0))))
        with pytest.raises(DomainError):
            birkhoff_von_neumann(m)


class TestPullBack:
    def test_identity(self, two_thirds_ctx):
        tp = pull_back((0, 1, 2), two_thirds_ctx)
        assert tp.pulled_back.cols == StochasticMatrix.identity(2).cols

    def test_cross_block_swap_is_transposition(self, two_thirds_ctx):
        # swap block 2's single slot with one slot of block 1
        tp = pull_back((2, 1, 0), two_thirds_ctx)
        expected = thermo_transposition(two_thirds_ctx, 0, 1)
        assert tp.pulled_back.cols == \
            expected.as_matrix(two_thirds_ctx).cols

    def test_within_block(self, two_thirds_ctx):
        tp = pull_back((1, 0, 2), two_thirds_ctx)
        assert tp.pulled_back.cols == StochasticMatrix.identity(2).cols

    @pytest.mark.parametrize("perm", [(0, 0, 2), (0, 1), (1, 2, 3)])
    def test_rejects_non_permutation(self, perm, two_thirds_ctx):
        with pytest.raises(DomainError, match="permutation"):
            pull_back(perm, two_thirds_ctx)

    def test_entries_quantised(self, seven_ctx):
        rng = random.Random(6)
        for _ in range(30):
            perm = list(range(seven_ctx.D))
            rng.shuffle(perm)
            tp = pull_back(perm, seven_ctx)
            assert is_gibbs_preserving(tp.pulled_back, seven_ctx, 0)
            for j in range(seven_ctx.n):
                for i in range(seven_ctx.n):
                    v = tp.pulled_back.cols[j][i] * seven_ctx.d[j]
                    assert v.denominator == 1


class TestDecompose:
    def test_transposition_is_extreme(self, two_thirds_ctx):
        t = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(two_thirds_ctx)
        dec = decompose(t, two_thirds_ctx)
        assert len(dec.terms) == 1
        assert dec.terms[0][1].pulled_back.cols == t.cols

    def test_partial_thermalisation_split(self, two_thirds_ctx):
        eps = F(3, 7)
        p_down = 2 * eps / 3
        from thermo_ops import make_edp_step
        t = make_edp_step(two_thirds_ctx, 0, 1, p_down).as_matrix(two_thirds_ctx)
        dec = decompose(t, two_thirds_ctx)
        weights = {tp.pulled_back.cols: w for w, tp in dec.terms}
        ident = StochasticMatrix.identity(2).cols
        trans = thermo_transposition(two_thirds_ctx, 0, 1) \
            .as_matrix(two_thirds_ctx).cols
        assert weights[ident] == 1 - p_down
        assert weights[trans] == p_down

    def test_identity_merges(self, two_thirds_ctx):
        dec = decompose(StochasticMatrix.identity(2), two_thirds_ctx)
        assert len(dec.terms) == 1 and dec.terms[0][0] == 1

    def test_round_trip_random(self):
        rng = random.Random(77)
        for k in range(60):
            ctx = rand_ctx(rng, nmax=4, dmax_total=18)
            if k % 2:
                T = random_gibbs_preserving(ctx, rng, terms=rng.randint(1, 5))
            else:
                T = random_edp_product(ctx, rng, factors=rng.randint(1, 4))
            dec = decompose(T, ctx)
            assert dec.reconstruct().cols == T.cols
            assert len(dec.terms) <= (ctx.n - 1) ** 2 + 1
            for w, tp in dec.terms:
                assert w > 0
                assert is_gibbs_preserving(tp.pulled_back, ctx, 0)

    def test_large_slot_count(self, tmp_path, capsys):
        """n = 8 at D near 10^9 splits on the count table, exactly, in at
        most (n-1)^2 + 1 = 50 terms, in-process and through the CLI."""
        rng = random.Random(8)
        d = [rng.randint(10**8 // 2, 12 * 10**7) for _ in range(8)]
        D = sum(d)
        ctx = gibbs_context_from_weights([F(di, D) for di in d])
        T = random_edp_product(ctx, rng, factors=30)
        dec = decompose(T, ctx)
        assert dec.reconstruct().cols == T.cols
        assert len(dec.terms) <= 50
        for _, tp in dec.terms:
            assert is_gibbs_preserving(tp.pulled_back, ctx, 0)
        write_json_atomic(tmp_path / "ctx.json", context_to_json(ctx))
        write_json_atomic(tmp_path / "t.json", matrix_to_json(T))
        write_json_atomic(tmp_path / "p.json", population_to_json(ctx.g))
        assert main(["decompose", "--t", str(tmp_path / "t.json"),
                     "--ctx", str(tmp_path / "ctx.json"),
                     "--out", str(tmp_path / "dec.json")]) == 0
        assert read_json(tmp_path / "dec.json") == decomposition_to_json(dec)
        assert main(["simulate", "--dec", str(tmp_path / "dec.json"),
                     "--p", str(tmp_path / "p.json"), "--samples", "1000",
                     "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] == [float(gi) for gi in ctx.g]

    def test_float_near_miss_decomposes_at_the_float_tolerance(
            self, two_thirds_ctx):
        """A float matrix 10^-12 off Gibbs-preserving resolves to 1e-9 in
        lift, the factorisation and decompose alike."""
        T = StochasticMatrix(((0.9 + 1e-12, 0.1 - 1e-12), (0.2, 0.8)))
        birkhoff_von_neumann(lift(T, two_thirds_ctx))
        dec = decompose(T, two_thirds_ctx)
        rebuilt = dec.reconstruct()
        assert all(abs(a - b) < 1e-9 for ca, cb in zip(rebuilt.cols, T.cols)
                   for a, b in zip(ca, cb))
        with pytest.raises(DomainError, match="Gibbs"):
            decompose(T, two_thirds_ctx, tol=0)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
    def test_bad_explicit_tol_rejected(self, tol, two_thirds_ctx):
        with pytest.raises(DomainError, match="tolerance"):
            decompose(StochasticMatrix.identity(2), two_thirds_ctx, tol)


class TestSampling:
    def test_single_term_deterministic(self, two_thirds_ctx):
        t = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(two_thirds_ctx)
        dec = decompose(t, two_thirds_ctx)
        p = (F(1), F(0))
        assert sample_process(dec, p, rng_seed=1) == t.apply(p)

    def test_seed_reproducible(self, two_thirds_ctx):
        rng = random.Random(9)
        T = random_gibbs_preserving(two_thirds_ctx, rng, terms=4)
        dec = decompose(T, two_thirds_ctx)
        p = (F(2, 5), F(3, 5))
        assert sample_process(dec, p, 42) == sample_process(dec, p, 42)

    def test_single_term_sigma_is_real_zero(self, two_thirds_ctx):
        # every term maps each coordinate alike: the variance is exactly
        # zero, where the raw float difference can round below zero
        T = thermo_transposition(two_thirds_ctx, 0, 1).as_matrix(
            two_thirds_ctx)
        dec = decompose(T, two_thirds_ctx)
        assert len(dec.terms) == 1
        for p in ((F(1, 3), F(2, 3)), (F(1, 10), F(9, 10)),
                  (F(2, 5), F(3, 5))):
            _, _, sigma = simulate_mean(dec, p, samples=1000, rng_seed=1)
            assert all(type(s) is float and s == 0.0 for s in sigma)

    def test_monte_carlo_mean(self, seven_ctx):
        rng = random.Random(10)
        T = random_gibbs_preserving(seven_ctx, rng, terms=5)
        dec = decompose(T, seven_ctx)
        p = rand_pop(rng, 3)
        mean, exact, sigma = simulate_mean(dec, p, samples=200_000, rng_seed=7)
        for m, e, s in zip(mean, exact, sigma):
            assert abs(m - e) <= 3 * s + 1e-12

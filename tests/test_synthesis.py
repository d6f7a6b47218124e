import collections
import hashlib
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from thermo_ops import (DomainError, SynthesisError, apply_edp, beta_order,
                        compose_edps_same_pair, gibbs_context_from_weights,
                        is_detailed_balanced, make_edp_step,
                        make_gibbs_context, synthesize, thermo_majorizes,
                        thermo_transposition, validate_stochastic,
                        verify_sequence)
from thermo_ops.majorization import ExactLorenz, _curves, lorenz_violation
from thermo_ops.synthesis import (MAX_SYNTHESIS_LEVELS, EdpSequence,
                                  _greedy_balanced, _replay, _Run,
                                  _run_phases, _synth_aligned, _Unreachable)

from conftest import rand_ctx, rand_edp_image, rand_plt_image, rand_pop

F = Fraction


class TestApplyEdp:
    def test_zero_is_identity(self, two_thirds_ctx):
        step = make_edp_step(two_thirds_ctx, 0, 1, F(0))
        assert apply_edp(step, (F(2, 5), F(3, 5)), two_thirds_ctx) == \
            (F(2, 5), F(3, 5))

    def test_transposition_on_pure(self, two_thirds_ctx):
        step = thermo_transposition(two_thirds_ctx, 0, 1)
        assert apply_edp(step, (F(1), F(0)), two_thirds_ctx) == \
            (F(1, 2), F(1, 2))

    def test_thermal_fixed_point(self, two_thirds_ctx):
        rng = random.Random(2)
        for _ in range(20):
            step = make_edp_step(two_thirds_ctx, 0, 1, F(rng.randint(0, 8), 8))
            scaled = tuple(3 * g for g in two_thirds_ctx.g)
            assert apply_edp(step, scaled, two_thirds_ctx) == scaled

    def test_norm_preserved(self, seven_ctx):
        rng = random.Random(4)
        for _ in range(50):
            p = rand_pop(rng, 3)
            step = make_edp_step(seven_ctx, 0, 2, F(rng.randint(0, 8), 8))
            assert sum(apply_edp(step, p, seven_ctx)) == sum(p)


class TestCompose:
    def test_identity_neutral(self, two_thirds_ctx):
        a = make_edp_step(two_thirds_ctx, 0, 1, F(0))
        b = make_edp_step(two_thirds_ctx, 0, 1, F(5, 8))
        assert compose_edps_same_pair(a, b, two_thirds_ctx).p_down == F(5, 8)

    def test_two_transpositions(self, two_thirds_ctx):
        t = thermo_transposition(two_thirds_ctx, 0, 1)
        # exciting factor 1/2, so the double swap leaves p_down 1/2
        assert compose_edps_same_pair(t, t, two_thirds_ctx).p_down == F(1, 2)

    def test_full_thermalisation_absorbs(self, two_thirds_ctx):
        z = 1 + F(1, 2)
        a = make_edp_step(two_thirds_ctx, 0, 1, 1 / z)
        for pb in (F(0), F(1, 4), F(1)):
            b = make_edp_step(two_thirds_ctx, 0, 1, pb)
            assert compose_edps_same_pair(a, b, two_thirds_ctx).p_down == 1 / z

    def test_matches_matrix_product(self, seven_ctx):
        rng = random.Random(12)
        for _ in range(30):
            pa, pb = F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16)
            a = make_edp_step(seven_ctx, 1, 2, pa)
            b = make_edp_step(seven_ctx, 1, 2, pb)
            c = compose_edps_same_pair(a, b, seven_ctx)
            prod = b.as_matrix(seven_ctx).compose(a.as_matrix(seven_ctx))
            assert c.as_matrix(seven_ctx).cols == prod.cols

    def test_pair_mismatch(self, seven_ctx):
        a = make_edp_step(seven_ctx, 0, 1, F(1, 2))
        b = make_edp_step(seven_ctx, 0, 2, F(1, 2))
        with pytest.raises(DomainError):
            compose_edps_same_pair(a, b, seven_ctx)


class TestSynthesize:
    def test_identity_target(self, seven_ctx):
        p = (F(1, 2), F(1, 4), F(1, 4))
        seq = synthesize(p, p, seven_ctx)
        assert seq.steps == ()

    def test_single_transposition(self, two_thirds_ctx):
        seq = synthesize((F(1), F(0)), (F(1, 2), F(1, 2)), two_thirds_ctx)
        assert len(seq.steps) == 1
        step = seq.steps[0]
        assert (step.lo, step.hi, step.p_down) == (0, 1, F(1))

    def test_pure_to_thermal(self, seven_ctx):
        p = (F(1), F(0), F(0))
        seq = synthesize(p, seven_ctx.g, seven_ctx)
        assert 0 < len(seq.steps) <= 3
        report = verify_sequence(seq, p, seven_ctx.g, seven_ctx)
        assert report.ok

    def test_rejects_non_majorized(self, two_thirds_ctx):
        with pytest.raises(SynthesisError) as err:
            synthesize((F(1, 2), F(1, 2)), (F(1), F(0)), two_thirds_ctx)
        assert err.value.witness is not None
        x, yp, yq = err.value.witness
        assert yp < yq

    def test_rejects_float_inputs(self, two_thirds_ctx):
        with pytest.raises(DomainError):
            synthesize((0.5, 0.5), (0.75, 0.25), two_thirds_ctx)

    def test_requires_rational_ctx(self):
        from thermo_ops import make_gibbs_context
        ctx = make_gibbs_context([0.0, 1.0], max_denominator=None)
        with pytest.raises(DomainError):
            synthesize((F(1), F(0)), (F(1, 2), F(1, 2)), ctx)

    def test_known_unreachable_pair_raises(self):
        # equal Lorenz curves with mismatched level assignment: the pair is
        # thermo-majorized both ways yet no two-level detailed-balanced
        # sequence connects it (any nontrivial step strictly lowers the
        # curve and breaks dominance).
        ctx = gibbs_context_from_weights([F(1, 6), F(1, 3), F(1, 2)])
        p = (F(1, 10), F(2, 10), F(7, 10))
        q = (F(7, 30), F(14, 30), F(3, 10))
        assert thermo_majorizes(p, q, ctx) and thermo_majorizes(q, p, ctx)
        with pytest.raises(SynthesisError):
            synthesize(p, q, ctx)

    def test_unreachable_regression_tight_budget(self):
        # strict majorization is not enough for the search: the bottom-
        # window budget of this instance cannot pay for any level to descend
        # to the target floor, and every strategy gives up.  That is an
        # exhausted search, not a proof that no elementary sequence exists.
        ctx = gibbs_context_from_weights(
            [F(37, 46), F(6, 46), F(2, 46), F(1, 46)])
        p = (F(23, 89), F(172, 979), F(431, 979), F(123, 979))
        q = (F(1184949, 1448920), F(695987, 4346760), F(32783, 2173380),
             F(23, 3293))
        assert thermo_majorizes(p, q, ctx)
        with pytest.raises(SynthesisError):
            synthesize(p, q, ctx)

    def test_two_level_always_reachable(self):
        # for two levels the reachable set from p is exactly the segment
        # traced by the one-parameter step family, so any majorized target
        # must synthesize (and in a single step after grouping)
        rng = random.Random(63)
        found = 0
        while found < 300:
            d1 = rng.randint(1, 40)
            d2 = rng.randint(1, 40)
            if d1 == d2:
                continue
            ctx = gibbs_context_from_weights([F(d1, d1 + d2), F(d2, d1 + d2)])
            p = (F(rng.randint(0, 50), 50),)
            p = (p[0], 1 - p[0])
            q = (F(rng.randint(0, 50), 50),)
            q = (q[0], 1 - q[0])
            if not thermo_majorizes(p, q, ctx):
                continue
            found += 1
            seq = synthesize(p, q, ctx)
            assert len(seq.steps) <= 1
            assert verify_sequence(seq, p, q, ctx).ok

    def test_random_reachable_corpus(self):
        rng = random.Random(314)
        for _ in range(300):
            ctx = rand_ctx(rng, nmax=5, dmax_total=60)
            p = rand_pop(rng, ctx.n)
            q = rand_edp_image(rng, p, ctx, rng.randint(1, 10))
            seq = synthesize(p, q, ctx, group=False)
            assert len(seq.steps) <= ctx.D
            x = p
            for step in seq.steps:
                m = step.as_matrix(ctx)
                assert validate_stochastic(m, 0)
                assert is_detailed_balanced(m, ctx, 0)
                x = apply_edp(step, x, ctx)
                # never overshoot: intermediates still majorize the target
                assert thermo_majorizes(x, q, ctx)
            assert x == q

    def test_grouping_merges_consecutive(self, two_thirds_ctx):
        p, q = (F(1), F(0)), (F(5, 8), F(3, 8))
        grouped = synthesize(p, q, two_thirds_ctx, group=True)
        ungrouped = synthesize(p, q, two_thirds_ctx, group=False)
        assert len(grouped.steps) <= len(ungrouped.steps)
        report = verify_sequence(grouped, p, q, two_thirds_ctx)
        assert report.ok

    def test_relabel_records(self, seven_ctx):
        p = (F(1, 5), F(1, 5), F(3, 5))
        q = rand_edp_image(random.Random(8), p, seven_ctx, 4)
        seq = synthesize(p, q, seven_ctx)
        assert seq.relabel_in == beta_order(p, seven_ctx).perm
        assert seq.relabel_out == beta_order(q, seven_ctx).perm


def dominance_cap_reference(x, scale, d, target, q_at, a, b, delta_hi):
    """Reference for ``_Run.dominance_cap``: every slack vector built afresh
    from the shifted curve, each elbow read by ``ExactLorenz.at``, one
    ``Fraction`` root per falling elbow, and the state at the returned cap
    checked anew."""
    n = len(x)
    tscale = target.scale

    def slack(delta):
        num, den = delta.numerator, delta.denominator
        y = [v * den for v in x]
        y[a] -= num
        y[b] += num
        unit = scale * den
        curve = ExactLorenz(y, unit, d)
        return ([curve.at(c) * tscale - v * unit
                 for c, v in zip(target.xs, q_at)], den)

    s_hi, k_hi = slack(delta_hi)
    if min(s_hi) >= 0:
        return delta_hi
    hi_num, hi_den = delta_hi.numerator, delta_hi.denominator
    crits = set()
    for j in range(n):
        for i, s in ((a, -1), (b, 1)):
            if j == i:
                continue
            sj = -1 if j == a else (1 if j == b else 0)
            num = x[j] * d[i] - x[i] * d[j]
            den = s * d[j] - sj * d[i]
            if den < 0:
                num, den = -num, -den
            if den and 0 < num and num * hi_den < hi_num * den:
                crits.add(Fraction(num, den))
    grid = [0] + sorted(crits) + [delta_hi]
    best = 0
    s0, k0 = slack(0)
    for d0, d1 in zip(grid, grid[1:]):
        if min(s0) < 0:
            break
        s1, k1 = (s_hi, k_hi) if d1 == delta_hi else slack(d1)
        roots = [d0 + (d1 - d0) * Fraction(u * k1, u * k1 - v * k0)
                 for u, v in zip(s0, s1) if v < 0]
        if roots:
            best = min(roots)
            break
        best, s0, k0 = d1, s1, k1
    if min(slack(best)[0]) < 0:
        raise SynthesisError("internal: dominance cap computation failed")
    return best


def run_every_strategy(p, q, ctx):
    """Each phase run and the greedy run that ``synthesize`` would try on
    (p, q), each to its end or its give-up."""
    source, target, _ = _curves(p, q, ctx, None)
    q_at = target.values(target.xs)
    tau = target.order
    for strategy in (lambda run: _run_phases(run, tau[:-1], True),
                     lambda run: _run_phases(run, tau[1:][::-1], True),
                     lambda run: _run_phases(run, tau[:-1], False),
                     lambda run: _run_phases(run, tau[1:][::-1], False),
                     _greedy_balanced):
        try:
            strategy(_Run(source, target, q_at))
        except _Unreachable:
            pass


class TestDominanceCap:
    """The cap against a grid scan of the same shifted states.

    A state's Lorenz curve value at a fixed slot is convex in the state, so
    the shifted states can stop dominating inside [0, delta_hi] and dominate
    again at delta_hi.  The cap takes delta_hi whenever the state there
    dominates (one step lands there directly); otherwise it stops at the
    first loss of dominance.
    """

    GRID = 64

    def test_cap_matches_grid_scan(self):
        rng = random.Random(271)
        capped = full = dipped = 0
        for trial in range(150):
            ctx = rand_ctx(rng, nmax=5, dmax_total=60)
            g = [F(v) for v in ctx.g]
            p = rand_pop(rng, ctx.n)
            image = rand_edp_image if trial % 2 else rand_plt_image
            q = image(rng, p, ctx, rng.randint(1, 10))
            pairs = [(a, b) for a in range(ctx.n) for b in range(ctx.n)
                     if g[a] != g[b] and p[a] / g[a] > p[b] / g[b]]
            if not pairs:
                continue
            a, b = pairs[rng.randrange(len(pairs))]
            source, target, _ = _curves(p, q, ctx, None)
            q_at = [target.at(c) for c in target.xs]
            run = _Run(source, target, q_at)
            scale = source.scale
            cap = run.feas_cap(a, b)
            delta_hi = cap / scale

            def shifted(d):
                y = list(p)
                y[a] -= d
                y[b] += d
                return y

            d = F(run.dominance_cap(a, b, cap), scale)
            assert 0 <= d <= delta_hi
            assert thermo_majorizes(shifted(d), q, ctx)
            fails = [k for k in range(self.GRID + 1)
                     if not thermo_majorizes(
                         shifted(delta_hi * F(k, self.GRID)), q, ctx)]
            if not fails or fails[-1] < self.GRID:
                assert d == delta_hi
                full += 1
                dipped += bool(fails)
            else:
                assert d < delta_hi * F(fails[0], self.GRID)
                capped += 1
        # both outcomes, and a dip inside [0, delta_hi], are exercised
        assert capped >= 10 and full >= 10 and dipped >= 1

    def test_mid_run_caps_match_reference(self, monkeypatch):
        """Every cap asked for inside real phase and greedy runs, where the
        state has moved since its slacks were last read, equals the
        reference's, in value and in type."""
        outcomes = collections.Counter()
        cap = _Run.dominance_cap

        def checked(run, a, b, delta_hi):
            got = cap(run, a, b, delta_hi)
            want = dominance_cap_reference(run.x, run.scale, run.d,
                                           run.target, run.q_at, a, b,
                                           delta_hi)
            assert (got, type(got)) == (want, type(want))
            outcomes["full" if got == delta_hi else
                     "zero" if got == 0 else "root"] += 1
            return got

        monkeypatch.setattr(_Run, "dominance_cap", checked)
        rng = random.Random(1409)
        for trial in range(60):
            ctx = rand_ctx(rng, nmax=6, dmax_total=60)
            p = rand_pop(rng, ctx.n)
            image = rand_edp_image if trial % 2 else rand_plt_image
            run_every_strategy(p, image(rng, p, ctx, rng.randint(1, 12)),
                               ctx)
        for d, p, q in GREEDY_PAIRS:
            run_every_strategy(p, q, gibbs_context_from_weights(
                [F(di, sum(d)) for di in d]))
        # delta_hi at once, a root at the state itself, and one inside
        assert outcomes["full"] >= 1000 and outcomes["zero"] >= 1000
        assert outcomes["root"] >= 100

    def test_zero_cap_edges(self):
        """The zero cap decided on the state's own slacks, on small integer
        states full of equal ratio keys and of elbows where the state
        touches the target.  Its span is read off the order of the state
        moved by a tiny mass, independently of the cap: a's first slot and
        b's last one.  Every cap equals the reference's in value and type;
        a zero decided without a shifted curve beyond ``delta_hi`` is the
        O(n) decision."""
        rng = random.Random(2503)
        seen = collections.Counter()
        for trial in range(1500):
            n = rng.randint(2, 4)
            d = [rng.randint(1, 4) for _ in range(n)]
            # equal ratio keys come from multiples of d, touching curves
            # from a target a few unit moves away
            x = ([rng.randint(0, 3) * di for di in d] if trial % 2
                 else [rng.randint(0, 6) for _ in d])
            q = list(x)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                if q[i]:
                    q[i] -= 1
                    q[j] += 1
            if not sum(x):
                continue
            source = ExactLorenz(x, sum(x), d)
            target = ExactLorenz(q, sum(x), d)
            if lorenz_violation(source, target) is not None:
                continue
            q_at = target.values(target.xs)
            for a in range(n):
                for b in range(n):
                    if x[a] * d[b] <= x[b] * d[a]:
                        continue
                    for full in (True, False):
                        run = _Run(source, target, q_at)
                        delta_hi = run.feas_cap(a, b) if full else 1
                        asked = []

                        def recorded(i, j, delta, slacks=run.slacks):
                            asked.append(delta)
                            return slacks(i, j, delta)

                        run.slacks = recorded
                        got = run.dominance_cap(a, b, delta_hi)
                        want = dominance_cap_reference(
                            x, sum(x), d, target, q_at, a, b, delta_hi)
                        assert (got, type(got)) == (want, type(want))
                        if got == delta_hi:
                            continue
                        # two ratios of these small integers cross no
                        # nearer than a mass of 1/8, far beyond 10^-6
                        tiny = [v * 10 ** 6 for v in x]
                        tiny[a] -= 1
                        tiny[b] += 1
                        moved = ExactLorenz(tiny, sum(x) * 10 ** 6, d)
                        rank = moved.order.index
                        first = moved.xs[rank(a)]
                        last = moved.xs[rank(b) + 1]
                        touching = [c for c, s in zip(target.xs,
                                                      run.s0[0]) if not s]
                        inside = any(first < c < last for c in touching)
                        assert (got == 0) == inside
                        if inside:
                            assert asked == [delta_hi, 0]
                            seen["zero"] += 1
                        elif first in touching or last in touching:
                            seen["edge"] += 1
                        keys = [run.key(i) for i in range(n)]
                        if (keys.count(keys[a]) > 1
                                or keys.count(keys[b]) > 1):
                            seen["tie", got == 0] += 1
        # zero caps, elbows touching at a span's ends and not inside it,
        # and ties with a's or b's key on both sides of the decision
        assert seen["zero"] >= 1000 and seen["edge"] >= 100
        assert seen["tie", True] >= 100 and seen["tie", False] >= 50

    def test_state_below_target_is_an_internal_error(self):
        """A state that does not thermo-majorise the target has a negative
        slack of its own, which no cap can mend."""
        d, x, q = (1, 2), (1, 1), (2, 0)
        source, target = ExactLorenz(x, 2, d), ExactLorenz(q, 2, d)
        run = _Run(source, target, target.values(target.xs))
        assert run.key(0) > run.key(1)
        assert min(run.slacks(0, 1, 0)[0]) < 0
        for cap in (lambda: run.dominance_cap(0, 1, run.feas_cap(0, 1)),
                    lambda: dominance_cap_reference(
                        x, 2, d, target, run.q_at, 0, 1, F(1, 2))):
            with pytest.raises(SynthesisError,
                               match="internal: dominance cap"):
                cap()


def slot_level_aligned(p, q, d, order):
    """Reference: the classical transfer loop on the materialised D slots
    (last excess slot to the first later deficit slot), one transfer per
    slot in the form of the strategies' transfers."""
    u, v, owner = [], [], []
    for i in order:
        u.extend([p[i] / d[i]] * d[i])
        v.extend([q[i] / d[i]] * d[i])
        owner.extend([i] * d[i])
    transfers = []
    while u != v:
        j_ex = max(j for j in range(len(u)) if u[j] > v[j])
        j_df = next((j for j in range(j_ex + 1, len(u)) if u[j] < v[j]),
                    None)
        if j_df is None:
            return None
        delta = min(u[j_ex] - v[j_ex], v[j_df] - u[j_df])
        u[j_ex] -= delta
        u[j_df] += delta
        transfers.append((owner[j_ex], owner[j_df], delta, j_ex + 1,
                          j_df + 1, "aligned"))
    return transfers


def summed_stretches(transfers):
    """The slot transfers with each maximal stretch on one level pair
    summed into its first transfer, whose slots it keeps."""
    out = []
    for t in transfers:
        if out and out[-1][:2] == t[:2]:
            out[-1] = out[-1][:2] + (out[-1][2] + t[2],) + out[-1][3:]
        else:
            out.append(t)
    return out


def aligned_corpus():
    """Beta-aligned pairs p != q with n <= 5 (elementary images and thermal
    mixtures): (ctx, p, q, beta-order)."""
    rng = random.Random(404)
    for trial in range(600):
        ctx = rand_ctx(rng, nmax=5, dmax_total=60)
        p = list(rand_pop(rng, ctx.n))
        if trial % 2:
            w = F(rng.randint(0, 64), 64)
            q = [w * pi + (1 - w) * gi for pi, gi in zip(p, ctx.g)]
        else:
            q = list(rand_edp_image(rng, p, ctx, 1))
        order = beta_order(p, ctx).perm
        if beta_order(q, ctx).perm == order and p != q:
            yield ctx, p, q, order


class TestAlignedLoop:
    """The level-vector loop against the slot-level reference."""

    def test_matches_slot_level_loop(self):
        """Each transfer moves one level run: the reference's maximal
        same-pair stretch, with its first slots.  Replayed one slot at a
        time and folded per pair, the reference gives the same steps."""
        compared = folded = 0
        for ctx, p, q, order in aligned_corpus():
            expected = slot_level_aligned(p, q, ctx.d, order)
            assert expected is not None
            source, target, _ = _curves(p, q, ctx, None)
            runs = _synth_aligned(source, target)
            assert runs == summed_stretches(expected)
            args = source.nums, target.nums, source.scale, ctx, False
            slot_steps, _ = _replay(expected, *args)
            run_steps, _ = _replay(runs, *args)
            assert grouped_by_oracle(slot_steps, ctx) == run_steps
            compared += 1
            folded += len(expected) > len(runs)
        assert compared >= 300 and folded >= 100

    def test_run_mode_sums_slot_mode_stretches(self):
        """``synthesize`` makes one step and one record per level run,
        grouped or not, at most n - 1 of them, each record's ``lam``
        being ``1 - p_down`` of its step."""
        for ctx, p, q, order in aligned_corpus():
            seq = synthesize(p, q, ctx, group=True)
            assert synthesize(p, q, ctx, group=False) == seq
            runs = summed_stretches(slot_level_aligned(p, q, ctx.d, order))
            assert [(r.delta, r.j_ex, r.j_df, r.origin)
                    for r in seq.provenance] == [t[2:] for t in runs]
            assert len(seq.provenance) <= ctx.n - 1
            assert len(seq.steps) == len(seq.provenance)
            assert [r.lam for r in seq.provenance] == \
                [1 - s.p_down for s in seq.steps]

    def test_billion_slots_in_bounded_memory(self):
        D = 10**9
        ctx = gibbs_context_from_weights([F(D - 3, D), F(2, D), F(1, D)])
        p = (F(1, 2), F(1, 4), F(1, 4))
        q = (F(1, 2), F(3, 10), F(1, 5))
        assert beta_order(p, ctx).perm == beta_order(q, ctx).perm
        tracemalloc.start()
        try:
            seq = synthesize(p, q, ctx, group=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # one level run fills level 1's two slots from level 2's one
        assert [(r.origin, r.j_ex, r.j_df) for r in seq.provenance] == [
            ("aligned", 1, 2)]
        assert verify_sequence(seq, p, q, ctx, tol=0).ok

    @staticmethod
    def billion_slot_level_runs(group):
        """Synthesize the aligned pair at D = 10^9 on which every level
        holds 3*10^8 slots or more: (sequence, seconds, traced peak)."""
        d = (4 * 10**8 - 1, 3 * 10**8, 3 * 10**8 + 1)
        ctx = gibbs_context_from_weights([F(di, sum(d)) for di in d])
        assert ctx.D == 10**9
        p = (F(9, 10), F(1, 20), F(1, 20))
        q = (F(7, 10), F(3, 20), F(3, 20))
        assert beta_order(p, ctx).perm == beta_order(q, ctx).perm
        tracemalloc.start()
        try:
            start = time.perf_counter()
            seq = synthesize(p, q, ctx, group=group)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verify_sequence(seq, p, q, ctx, tol=0).ok
        return seq, elapsed, peak

    def test_billion_slot_level_runs_in_bounded_time_and_memory(self):
        """Every level run costs one transfer, not one per slot."""
        seq, elapsed, peak = self.billion_slot_level_runs(True)
        assert elapsed < 1
        assert peak < 2**20
        assert len(seq.steps) == 2 and len(seq.provenance) == 2

    def test_ungrouped_billion_slot_level_runs(self):
        """Ungrouped, the same pair costs the same two level runs."""
        seq, elapsed, peak = self.billion_slot_level_runs(False)
        assert elapsed < 1
        assert peak < 2**20
        assert len(seq.steps) == 2 and len(seq.provenance) == 2
        assert seq == self.billion_slot_level_runs(True)[0]

    @pytest.mark.parametrize("k", [2500, 2501])
    def test_ungrouped_slot_cap(self, k):
        """Ungrouped synthesis has no slot cap: on either side of D = 10^4,
        where one transfer per slot was once refused, the pair costs the
        same two level runs as grouped."""
        d = (2 * k - 1, k, k + 1)
        ctx = gibbs_context_from_weights([F(di, sum(d)) for di in d])
        assert ctx.D == 4 * k
        p = (F(9, 10), F(1, 20), F(1, 20))
        q = (F(7, 10), F(3, 20), F(3, 20))
        seq = synthesize(p, q, ctx, group=False)
        assert len(seq.steps) == 2 and len(seq.provenance) == 2
        assert [r.origin for r in seq.provenance] == ["aligned"] * 2
        assert seq == synthesize(p, q, ctx, group=True)
        assert verify_sequence(seq, p, q, ctx, tol=0).ok

    def test_degenerate_levels_give_up(self):
        """Two levels with one weight admit no step between them, so the
        aligned loop gives up on such a run and leaves the pair to the
        other strategies."""
        ctx = gibbs_context_from_weights([F(1, 2), F(1, 2)])
        p, q = (F(4, 5), F(1, 5)), (F(3, 5), F(2, 5))
        for group in (True, False):
            with pytest.raises(SynthesisError) as info:
                synthesize(p, q, ctx, group=group)
            assert info.value.attempts[0] == (
                "aligned", "levels 0 and 1 are degenerate")
            assert len(info.value.attempts) == 6

    def test_degenerate_aligned_pair_left_to_the_phases(self):
        """An aligned pair whose first run joins two levels of one weight
        is synthesized by a phase strategy."""
        ctx = gibbs_context_from_weights([F(2, 5), F(1, 5), F(2, 5)])
        p = (F(0), F(1, 5), F(4, 5))
        q = (F(1, 5), F(1, 5), F(3, 5))
        assert beta_order(p, ctx).perm == beta_order(q, ctx).perm
        source, target, _ = _curves(p, q, ctx, None)
        with pytest.raises(_Unreachable, match="degenerate"):
            _synth_aligned(source, target)
        seq = synthesize(p, q, ctx)
        assert verify_sequence(seq, p, q, ctx, tol=0).ok
        assert {r.origin for r in seq.provenance} == {"phase"}

    def test_level_cap(self):
        """More than ``MAX_SYNTHESIS_LEVELS`` levels are refused before any
        work, even when p is q; the cap itself is synthesized."""
        def ctx_of(n):
            total = n * (n + 1) // 2
            return gibbs_context_from_weights(
                [F(k, total) for k in range(1, n + 1)])

        ctx = ctx_of(MAX_SYNTHESIS_LEVELS)
        p = (F(1, ctx.n),) * ctx.n
        seq = synthesize(p, ctx.g, ctx)
        assert verify_sequence(seq, p, ctx.g, ctx, tol=0).ok
        big = ctx_of(MAX_SYNTHESIS_LEVELS + 1)
        with pytest.raises(DomainError, match="cap") as refused:
            synthesize(big.g, big.g, big)
        assert not isinstance(refused.value, SynthesisError)


# The three exact-small targets (perfbench corpus seeds 14, 24 and 30) that
# only the greedy strategy reaches: (slot counts d, p, q).
GREEDY_PAIRS = (
    ((53, 26, 11, 3),
     (F(355, 1297), F(2, 1297), F(49, 1297), F(891, 1297)),
     (F(165, 938), F(40, 469), F(537, 1876), F(849, 1876))),
    ((11, 7, 57, 2, 15),
     (F(358, 2163), F(164, 2163), F(748, 2163), F(1, 2163), F(892, 2163)),
     (F(1119128089950798559559, 15410277116417566310400),
      F(9605142662231, 183763416711168),
      F(56922085201950402237606218772889,
        89323074981825849086661623808000),
      F(5052370220205702342276306966217,
        148871791636376415144436039680000),
      F(599141324923097844267376944727,
        2938259045454797667324395520000))),
    ((4, 15, 8, 13, 18, 7),
     (F(626, 2305), F(139, 461), F(100, 461), F(92, 2305), F(234, 2305),
      F(158, 2305)),
     (F(115, 1406), F(112, 703), F(191, 1406), F(331, 703), F(175, 1406),
      F(39, 1406))),
)

# SHA-256 of the outputs of ``pinned_synthesis_corpus``, as written once
# ungrouped aligned pairs became one transfer per level run too.  Every
# grouped step, relabel and refusal, and every ungrouped sequence on a
# pair that is not beta-aligned, is as written when synthesis still ran
# on Fraction objects.
SYNTHESIS_PIN = ("42def1327cb78d008a721ecb381eed95"
                 "6c8f1d1df660d706880b343b1880b5a1")


def pinned_synthesis_corpus():
    """Criterion-3-style pairs with n <= 6 (elementary and partial-
    thermalisation images, thermal mixtures and unrelated targets), then
    the greedy-only pairs: (ctx, p, q, group)."""
    rng = random.Random(1101)
    for trial in range(400):
        ctx = rand_ctx(rng, nmax=6, dmax_total=60)
        p = rand_pop(rng, ctx.n)
        kind = trial % 4
        if kind == 0:
            q = rand_edp_image(rng, p, ctx, rng.randint(1, 12))
        elif kind == 1:
            q = rand_plt_image(rng, p, ctx, rng.randint(1, 12))
        elif kind == 2:
            w = F(rng.randint(0, 64), 64)
            q = tuple(w * pi + (1 - w) * gi for pi, gi in zip(p, ctx.g))
        else:
            q = rand_pop(rng, ctx.n)
        yield ctx, p, q, bool(trial % 3)
    for d, p, q in GREEDY_PAIRS:
        yield gibbs_context_from_weights([F(di, sum(d)) for di in d]), p, q, \
            True


class TestPinnedOutputs:
    def test_synthesis_outputs_unchanged(self):
        """Every sequence, provenance record and refusal over the corpus
        stays what it was, bit for bit."""
        lines, origins = [], set()
        for ctx, p, q, group in pinned_synthesis_corpus():
            try:
                seq = synthesize(p, q, ctx, group=group)
            except SynthesisError as exc:
                lines.append(repr((str(exc), exc.witness)))
                continue
            origins.update(r.origin for r in seq.provenance)
            lines.append(repr(seq))
        assert origins == {"aligned", "phase", "transit", "greedy"}
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == SYNTHESIS_PIN


# Three more greedy-only exact-small targets (perfbench ``exact_small(seed,
# 500)[i]`` for (seed, i) = (149, 108) plt, (151, 358) plt and (195, 233)
# edp) that a fallback undoing one or two final full elementary steps does
# not reach either: (slot counts d, p, q).  Kept out of ``GREEDY_PAIRS``,
# whose outputs ``SYNTHESIS_PIN`` hashes.
GREEDY_BEYOND_UNDO = (
    ((1, 2, 7, 38, 51),
     (F(26, 1005), F(971, 2010), F(233, 1005), F(413, 2010), F(18, 335)),
     (F(9397, 128640), F(11215, 25728), F(69092141, 447667200),
      F(122536939, 447667200), F(78321, 1243520))),
    ((12, 16, 53, 3, 6),
     (F(226, 1163), F(300, 1163), F(203, 2326), F(991, 2326), F(40, 1163)),
     (F(1571060995955, 26189850738688), F(3207515, 12504576),
      F(14393825127655, 78569552216064), F(141125948095, 503650975744),
      F(110854055569, 503650975744))),
    ((11, 3, 15, 21, 1),
     (F(26, 459), F(31, 765), F(281, 765), F(224, 765), F(557, 2295)),
     (F(749, 7344), F(511, 6120), F(281, 765), F(3029, 12240),
      F(3667, 18360))),
)


@pytest.mark.parametrize("d, p, q", GREEDY_BEYOND_UNDO)
def test_greedy_reaches_what_undoing_a_full_step_does_not(d, p, q):
    """Greedy reaches these targets exactly, and alone: deleting
    ``_greedy_balanced`` in favour of that fallback would lose them."""
    ctx = gibbs_context_from_weights([F(di, sum(d)) for di in d])
    seq = synthesize(p, q, ctx)
    assert verify_sequence(seq, p, q, ctx, tol=0).ok
    assert {r.origin for r in seq.provenance} == {"greedy"}


def grouped_by_oracle(steps, ctx):
    """The ungrouped steps with each run on one level pair folded by
    ``compose_edps_same_pair``."""
    out = []
    for step in steps:
        if out and (out[-1].lo, out[-1].hi) == (step.lo, step.hi):
            out[-1] = compose_edps_same_pair(out[-1], step, ctx)
        else:
            out.append(step)
    return tuple(out)


# The pinned pairs (``pinned_synthesis_corpus`` indices) whose phase runs
# alternate transit moves on one level pair.  Such ping-pong makes most
# of the same-pair runs that grouping composes (an aligned level run is
# one transfer); seeded images make one in about 500 pairs.
PING_PONG_PAIRS = (107, 360)


def grouping_corpus():
    """The pinned corpus (its greedy-only pairs included), then seeded
    elementary and partial-thermalisation images with n <= 6, then seeded
    sources on the segment from p towards q of the ping-pong pairs."""
    pinned = list(pinned_synthesis_corpus())
    for ctx, p, q, _ in pinned:
        yield ctx, p, q
    rng = random.Random(1313)
    for trial in range(150):
        ctx = rand_ctx(rng, nmax=6, dmax_total=60)
        p = rand_pop(rng, ctx.n)
        image = rand_edp_image if trial % 2 else rand_plt_image
        yield ctx, p, image(rng, p, ctx, rng.randint(1, 12))
    for i in PING_PONG_PAIRS:
        ctx, p, q, _ = pinned[i]
        for _ in range(24):
            s = F(rng.randint(1, 63), 64)
            yield ctx, tuple((1 - s) * a + s * b for a, b in zip(p, q)), q


class TestIntegerGrouping:
    def test_grouped_steps_match_composition_oracle(self):
        grouped_runs = 0
        for ctx, p, q in grouping_corpus():
            try:
                raw = synthesize(p, q, ctx, group=False)
            except SynthesisError as exc:
                with pytest.raises(SynthesisError) as again:
                    synthesize(p, q, ctx, group=True)
                assert str(again.value) == str(exc)
                continue
            seq = synthesize(p, q, ctx, group=True)
            assert seq.steps == grouped_by_oracle(raw.steps, ctx)
            assert seq.provenance == raw.provenance
            assert len(raw.steps) == len(raw.provenance)
            grouped_runs += len(raw.steps) - len(seq.steps)
        assert grouped_runs > 100

    @pytest.mark.parametrize("group", [True, False])
    @pytest.mark.parametrize("delta", [F(1), F(-1, 8)])
    def test_out_of_range_p_down_is_refused(self, two_thirds_ctx, group,
                                            delta):
        # from (1, 0) one step moves at most 1/2 from level 0 to level 1,
        # so moving 1 is p_down = 2, and a negative mass is p_down < 0
        transfer = (0, 1, delta, 1, 3, "phase")
        P, Q = (1, 0), (1 - delta, delta)
        with pytest.raises(DomainError, match=r"p_down must lie in \[0, 1\]"):
            _replay([transfer], P, Q, 1, two_thirds_ctx, group)


# The synthesis-gap instance (perfbench exact-small corpus, seed 109, item
# 102, kind "edp"): q is an image of p under elementary steps, yet every
# strategy gives up.
GAP_D = (3, 23, 14, 2)
GAP_P = (F(131, 2127), F(324, 709), F(929, 2127), F(95, 2127))
GAP_Q = (F(61393694373, 688239935488), F(83900091128341, 142465666646016),
         F(4918383491, 17666873344), F(408455, 9392832))


def gap_ctx():
    return gibbs_context_from_weights([F(di, sum(GAP_D)) for di in GAP_D])


class TestGiveUpReasons:
    def test_every_strategy_reports_why_it_gave_up(self):
        ctx = gap_ctx()
        assert thermo_majorizes(GAP_P, GAP_Q, ctx)
        with pytest.raises(SynthesisError) as info:
            synthesize(GAP_P, GAP_Q, ctx)
        exc = info.value
        assert str(exc).startswith("no elementary sequence found")
        assert exc.witness is None
        assert exc.attempts == (
            ("aligned", "pair is not beta-aligned"),
            ("phase-ascending", "phase for level 1 did not converge"),
            ("phase-ascending-reverse", "no admissible transfer for level 2"),
            ("phase-descending", "phase for level 1 did not converge"),
            ("phase-descending-reverse",
             "no admissible transfer for level 2"),
            ("greedy", "no admissible greedy transfer"))

    def test_witness_refusal_has_no_attempts(self, two_thirds_ctx):
        with pytest.raises(SynthesisError) as info:
            synthesize((F(1, 2), F(1, 2)), (F(1), F(0)), two_thirds_ctx)
        assert info.value.witness is not None
        assert info.value.attempts == ()

    @pytest.mark.xfail(strict=True, raises=SynthesisError,
                       reason="synthesis-gap: every strategy gives up on a "
                              "target made by elementary steps")
    def test_gap_instance_is_synthesized(self):
        ctx = gap_ctx()
        seq = synthesize(GAP_P, GAP_Q, ctx)
        assert verify_sequence(seq, GAP_P, GAP_Q, ctx, tol=0).ok


class TestVerifySequence:
    def test_valid_output_passes(self, seven_ctx):
        p = (F(9, 10), F(1, 10), F(0))
        q = rand_edp_image(random.Random(5), p, seven_ctx, 5)
        seq = synthesize(p, q, seven_ctx)
        assert verify_sequence(seq, p, q, seven_ctx).ok

    def test_perturbed_step_detected(self, seven_ctx):
        from thermo_ops.synthesis import EdpSequence
        p = (F(1), F(0), F(0))
        q = seven_ctx.g
        seq = synthesize(p, q, seven_ctx)
        step = seq.steps[0]
        bad_p = step.p_down - F(1, 1000)
        bad = EdpSequence(
            (make_edp_step(seven_ctx, step.lo, step.hi, bad_p),)
            + seq.steps[1:],
            seq.provenance, seq.relabel_in, seq.relabel_out)
        report = verify_sequence(bad, p, q, seven_ctx)
        assert not report.ok
        assert report.reason == "terminal state differs from target"

    def test_empty_sequence_wrong_target(self, two_thirds_ctx):
        from thermo_ops.synthesis import EdpSequence
        empty = EdpSequence((), (), (0, 1), (0, 1))
        report = verify_sequence(empty, (F(1), F(0)), (F(1, 2), F(1, 2)),
                                 two_thirds_ctx)
        assert not report.ok

    def test_float_steps_pass_at_zero_tolerance(self):
        """A float step is checked through its own rule (its level pair and
        its ``p_down`` range), not through its matrix, so rounding in the
        matrix's detailed-balance products fails no valid step at
        ``tol=0``."""
        ctx = make_gibbs_context([0.0, 0.4, 1.1, 2.5], max_denominator=None)
        pairs = [(lo, hi) for hi in range(4) for lo in range(hi)]
        rng = random.Random(17)
        for _ in range(200):
            w = [rng.random() for _ in range(4)]
            p = tuple(v / sum(w) for v in w)
            steps = tuple(make_edp_step(ctx, *rng.choice(pairs), rng.random())
                          for _ in range(rng.randint(1, 6)))
            x = p
            for step in steps:
                x = apply_edp(step, x, ctx)
            seq = EdpSequence(steps, (), (0, 1, 2, 3), (0, 1, 2, 3))
            assert verify_sequence(seq, p, x, ctx, tol=0).ok

    @pytest.mark.parametrize("weights, lo, hi, message", [
        ((F(4, 7), F(2, 7), F(1, 7)), 0, 5, "in range"),
        ((F(4, 7), F(2, 7), F(1, 7)), 1, 1, "distinct"),
        ((F(4, 7), F(2, 7), F(1, 7)), 1, 0, "higher-energy"),
        ((F(1, 2), F(1, 4), F(1, 4)), 1, 2, "degenerate"),
    ], ids=["out-of-range", "equal", "misordered", "degenerate"])
    def test_bad_level_pair_reported(self, weights, lo, hi, message):
        """A hand-built step on a bad level pair is that step's failing
        report, naming the pair, not an exception."""
        from thermo_ops.core import EdpStep
        from thermo_ops.synthesis import EdpSequence
        ctx = gibbs_context_from_weights(weights)
        seq = EdpSequence((EdpStep(lo, hi, F(1, 2)),), (), (0, 1, 2),
                          (0, 1, 2))
        report = verify_sequence(seq, ctx.g, ctx.g, ctx)
        assert not report.ok
        assert report.failing_step == 0
        assert f"level pair ({lo}, {hi})" in report.reason
        assert message in report.reason

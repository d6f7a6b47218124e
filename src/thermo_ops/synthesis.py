"""Constructive synthesis of elementary detailed-balanced process sequences.

Given populations with ``p >=_T q`` in rational mode, ``synthesize`` produces
a finite list of two-level detailed-balanced steps whose ordered application
maps p to q exactly.  The solver is layered:

* when p and q share a beta-order, the classical transfer loop of the
  embedding runs on the level vector: excess levels drain their slots from
  the tail, deficit levels fill theirs from the head, so each slot follows
  from its level's sum.  One transfer moves a whole level run, the last
  excess level to the first later deficit level until one of them is
  settled, and the run ends within n - 1 transfers;
* otherwise a portfolio of exact greedy schedules is tried, each move capped
  so that every intermediate state still thermo-majorizes the target.

No strategy builds the D slots.  Targets that are thermo-majorized but not
reachable by any two-level detailed-balanced sequence do exist; for those
``synthesize`` raises ``SynthesisError`` rather than an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (DomainError, EdpStep, GibbsContext, Number, as_levels,
                   auto_tol, coerce_exact, make_edp_step)
from .majorization import ExactLorenz, _curves, _witness, lorenz_violation

#: most levels ``synthesize`` takes; the phase and greedy searches grow
#: steeply with n (a 12-step elementary image took up to 0.5 s at 32
#: levels and 4.4 s at 40)
MAX_SYNTHESIS_LEVELS = 32


class SynthesisError(DomainError):
    """Raised when no elementary sequence from p to q was found.

    ``witness`` is the violated elbow when q is not majorized.  When every
    strategy gave up, ``attempts`` holds one ``(strategy, reason)`` pair per
    strategy, in the order they were tried; otherwise it is empty."""

    def __init__(self, message, witness=None, attempts=()):
        super().__init__(message)
        self.witness = witness
        self.attempts = attempts


@dataclass(frozen=True)
class StepRecord:
    """Provenance of one transfer, before same-pair steps are grouped.

    ``j_ex``/``j_df`` are 1-based slot positions in the beta-sorted embedding
    at the time of the transfer (donor block tail, receiver block head),
    ``delta`` the level mass moved and ``lam`` the identity weight of the
    transfer's step in its mixture form ``lam * I + (1 - lam) * (extreme
    step)``, that is ``1 - p_down``.  An aligned transfer moves a whole
    level run, and its slots are the run's first.
    """

    lo: int
    hi: int
    delta: Fraction
    j_ex: int
    j_df: int
    lam: Fraction
    origin: str


@dataclass(frozen=True)
class EdpSequence:
    """Ordered steps (first applied first) with per-transfer provenance.

    ``relabel_in``/``relabel_out`` record the beta-orders of source and target;
    they are bookkeeping only, no physical action is attached to them.
    """

    steps: tuple[EdpStep, ...]
    provenance: tuple[StepRecord, ...]
    relabel_in: tuple[int, ...]
    relabel_out: tuple[int, ...]


def apply_edp(step: EdpStep, p, ctx: GibbsContext) -> tuple[Number, ...]:
    """Act with the two-level step; other levels are untouched and the
    normalisation is preserved."""
    x = list(as_levels(p, ctx))
    up = step.up_factor(ctx) * step.p_down
    lo, hi = x[step.lo], x[step.hi]
    x[step.lo] = (1 - up) * lo + step.p_down * hi
    x[step.hi] = up * lo + (1 - step.p_down) * hi
    return tuple(x)


def compose_edps_same_pair(a: EdpStep, b: EdpStep,
                           ctx: GibbsContext) -> EdpStep:
    """Single step whose matrix equals (b after a); closure holds because
    every 2x2 Gibbs-preserving stochastic matrix is detailed balanced.

    ``synthesize`` does not call it: ``_replay`` composes a run of
    same-pair steps on integer pairs instead.  It stays public, as the
    operation on steps that callers compose themselves, and it is the
    test oracle of that integer composition."""
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise DomainError("steps act on different level pairs")
    z = 1 + a.up_factor(ctx)
    p3 = a.p_down + b.p_down - a.p_down * b.p_down * z
    return EdpStep(a.lo, a.hi, p3)


# --------------------------------------------------------------------------
# internal exact machinery (rational mode only).  A strategy's state and the
# target are integer numerators over one scale, and every mass a strategy
# moves is counted in units of that scale's reciprocal: an int, or a
# Fraction when a feasibility cap or a dominance-cap root brings a new
# denominator, and then the state is rescaled before the move.  ``target``
# is the integer Lorenz curve of q from the majorisation kernel.

class _Unreachable(Exception):
    pass


def _synth_aligned(source, target):
    """Classical transfer loop on the level vector for beta-aligned pairs
    (the curves of p and q over one scale); see module docstring.  Each
    transfer moves one level run, ``min(x_a - q_a, q_b - x_b)``, and
    settles level a or level b."""
    order, d = source.order, source.d
    if target.order != order:
        raise _Unreachable("pair is not beta-aligned")
    x, q = list(source.nums), list(target.nums)
    excess = [xi - qi for xi, qi in zip(x, q)]
    offset = dict(zip(order, source.xs))

    def slot(i):
        """1-based slot level i moves next, given that c of its d[i] slots,
        each with excess[i]/d[i] to move, are still off target."""
        c = -((d[i] * (q[i] - x[i])) // excess[i])
        return offset[i] + (c if excess[i] > 0 else d[i] - c + 1)

    transfers = []
    while x != q:
        a = next(i for i in reversed(order) if x[i] > q[i])
        later = order[order.index(a) + 1:]
        b = next((i for i in later if x[i] < q[i]), None)
        if b is None:
            raise _Unreachable("no deficit slot after the last excess slot")
        if d[a] == d[b]:
            raise _Unreachable(f"levels {a} and {b} are degenerate")
        delta = min(x[a] - q[a], q[b] - x[b])
        transfers.append((a, b, Fraction(delta, source.scale), slot(a),
                          slot(b), "aligned"))
        x[a] -= delta
        x[b] += delta
    return transfers


class _Run:
    """The state of one phase or greedy run: the populations ``x`` and the
    target ``q`` as integer numerators over ``scale``, and the transfers so
    far.  ``target`` is q's integer curve and ``q_at`` its values at its
    elbows; ``w[i] = lcm(d)/d_i`` turns a numerator into a ratio key.
    ``s0`` holds the state's slacks over the target (``slacks`` at 0) once
    a dominance cap has read them, until the next move: every cap that
    does not take its whole ``delta_hi`` reads them, and a cap of 0 is
    decided on them alone, with no shifted curve built."""

    def __init__(self, source, target, q_at):
        self.x, self.q = list(source.nums), list(target.nums)
        self.scale, self.d = source.scale, source.d
        self.target, self.q_at = target, q_at
        self.w = [source.lam // di for di in self.d]
        self.transfers = []
        self.s0 = None

    def key(self, i):
        """An integer proportional to the ratio x_i/g_i."""
        return self.x[i] * self.w[i]

    def feas_cap(self, a, b):
        """Largest net mass one step can move from a to b (needs r_a > r_b),
        in the units of the numerators x: min(g_a, g_b) (x_a/g_a - x_b/g_b)
        with g = d/D."""
        da, db = self.d[a], self.d[b]
        return Fraction(min(da, db) * (self.x[a] * db - self.x[b] * da),
                        da * db)

    def slacks(self, a, b, delta):
        """Slacks of the shifted state (x - delta e_a + delta e_b) over the
        target at its elbows, as integers over a denominator whose only
        delta-dependent factor is delta's denominator, and that factor.
        The state's own (delta == 0) are kept in ``s0``."""
        if not delta and self.s0 is not None:
            return self.s0
        num, den = delta.numerator, delta.denominator
        y = [v * den for v in self.x]
        y[a] -= num
        y[b] += num
        unit, tscale = self.scale * den, self.target.scale
        values = ExactLorenz(y, unit, self.d).values(self.target.xs)
        out = [c * tscale - v * unit for c, v in zip(values, self.q_at)], den
        if not delta:
            self.s0 = out
        return out

    def dominance_cap(self, a, b, delta_hi):
        """delta_hi when the shifted state (x - m e_a + m e_b) at m = delta_hi
        thermo-majorises the target; otherwise the largest m such that every
        shifted state on [0, m] does.  The masses m are in units of
        ``1/scale``, and the move goes down the ratios (key(a) > key(b)).

        Between ratio-crossing values of m the beta-order is fixed, so the
        slack of the shifted curve over the target at each target elbow is
        affine in m and the binding m is a root of the line through the
        slacks at the two ends of one regime.  Checking the target elbows
        suffices: between them the shifted curve is concave and the target
        linear.

        The first regime's order is the state's, with a after the levels
        that share its ratio key and b before those that share b's.  There
        the move lowers the curve strictly between a's first slot and b's
        last one and leaves it alone elsewhere, so the cap is 0 exactly when
        the state touches the target at an elbow strictly inside that span:
        ``O(n)`` integers on the state's own slacks ``s0``.  Otherwise the
        regimes are walked in turn, and the smallest root is chosen on
        integers, the elbow with the least ratio of its slacks at the two
        ends; a zero slack at a later regime's start is a root there, whose
        slacks are known, so only an interior root is checked anew.
        """
        x, d = self.x, self.d
        n = len(x)
        s_hi, k_hi = self.slacks(a, b, delta_hi)
        if min(s_hi) >= 0:
            return delta_hi
        s0, k0 = self.slacks(a, b, 0)
        if min(s0) < 0:
            raise SynthesisError("internal: dominance cap computation failed")
        keys = [xi * wi for xi, wi in zip(x, self.w)]
        ka, kb = keys[a], keys[b]
        first = sum(dj for kj, dj in zip(keys, d) if kj >= ka) - d[a]
        last = sum(dj for kj, dj in zip(keys, d) if kj > kb) + d[b]
        if any(not s and first < c < last
               for s, c in zip(s0, self.target.xs)):
            return Fraction(0)
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
        for d0, d1 in zip(grid, grid[1:]):
            s1, k1 = ((s_hi, k_hi) if d1 == delta_hi
                      else self.slacks(a, b, d1))
            falling = [(u, v) for u, v in zip(s0, s1) if v < 0]
            if falling:
                u, v = falling[0]
                for u1, v1 in falling:
                    if u1 * v > u * v1:
                        u, v = u1, v1
                if not u:
                    return Fraction(d0)
                best = d0 + (d1 - d0) * Fraction(u * k1, u * k1 - v * k0)
                if min(self.slacks(a, b, best)[0]) >= 0:
                    return best
                break
            s0, k0 = s1, k1
        raise SynthesisError("internal: dominance cap computation failed")

    def move(self, a, b, delta, origin):
        """Record and make the transfer of delta (units of ``1/scale``)
        from a to b, first rescaling by delta's denominator when it has
        one; the scale is then reduced by the common factor."""
        self.s0 = None
        curve = ExactLorenz(self.x, self.scale, self.d)
        rank = curve.order.index
        j_ex, j_df = curve.xs[rank(a) + 1], curve.xs[rank(b)] + 1
        k, delta = delta.denominator, delta.numerator
        if k != 1:
            self.x = [v * k for v in self.x]
            self.q = [v * k for v in self.q]
            self.scale *= k
        self.x[a] -= delta
        self.x[b] += delta
        self.transfers.append((a, b, Fraction(delta, self.scale), j_ex,
                               j_df, origin))
        if k != 1:
            common = math.gcd(self.scale, *self.x, *self.q)
            if common != 1:
                self.x = [v // common for v in self.x]
                self.q = [v // common for v in self.q]
                self.scale //= common


def _run_phases(run, phase_levels, asc):
    """Settle one level at a time to its exact target, moving mass only
    between unsettled levels; transit boosts reroute mass through middle
    levels when direct pipes are too narrow."""
    n = len(run.x)
    d = run.d
    key = run.key
    fixed = set()

    def try_xfer(a, b, delta, origin):
        """Move up to delta from a to b (key(a) > key(b)), capped so the
        state keeps thermo-majorising the target; whether it moved any."""
        if delta <= 0:
            return False
        delta = run.dominance_cap(a, b, delta)
        if delta <= 0:
            return False
        run.move(a, b, delta, origin)
        return True

    for b in phase_levels:
        rounds = 0
        while run.x[b] != run.q[b]:
            rounds += 1
            if rounds > 120:
                raise _Unreachable(f"phase for level {b} did not converge")
            progressed = False
            filling = run.q[b] > run.x[b]
            partners = sorted((i for i in range(n) if i not in fixed and i != b),
                              key=key, reverse=not asc)
            for a in partners:
                need = run.q[b] - run.x[b]
                if need == 0:
                    break
                src, dst = (a, b) if filling else (b, a)
                if d[a] != d[b] and key(src) > key(dst):
                    delta = min(abs(need), run.feas_cap(src, dst))
                    if try_xfer(src, dst, delta, "phase"):
                        progressed = True
            if run.x[b] != run.q[b] and not progressed:
                # transit: move mass between two other levels so that a
                # pipe from or to b opens up in the next round
                ps = sorted((i for i in range(n) if i not in fixed and i != b),
                            key=key)
                for lo in ps:
                    src, dst = (lo, b) if filling else (b, lo)
                    if key(src) <= key(dst):
                        continue
                    for hi in reversed(ps):
                        if hi == lo or d[hi] == d[lo]:
                            continue
                        src, dst = (hi, lo) if filling else (lo, hi)
                        if key(src) > key(dst) and try_xfer(
                                src, dst, run.feas_cap(src, dst), "transit"):
                            progressed = True
                            break
                    if progressed:
                        break
            if run.x[b] != run.q[b] and not progressed:
                raise _Unreachable(f"no admissible transfer for level {b}")
        fixed.add(b)
    if run.x != run.q:
        raise _Unreachable("phases ended away from the target")
    return run.transfers


def _greedy_balanced(run):
    """Fallback: snap-preferring greedy over all ratio-directional pairs."""
    n = len(run.x)
    d = run.d
    while run.x != run.q:
        if len(run.transfers) > 8 * n * n:
            raise _Unreachable("greedy step limit reached")
        x, q, scale = run.x, run.q, run.scale
        err0 = sum(abs(x[i] - q[i]) for i in range(n))
        best = None
        for a in range(n):
            for b in range(n):
                if a == b or d[a] == d[b]:
                    continue
                if run.key(a) <= run.key(b):
                    continue
                over_a = max(0, x[a] - q[a])
                under_b = max(0, q[b] - x[b])
                if over_a == 0 and under_b == 0:
                    continue
                fc = run.feas_cap(a, b)
                # the candidates go through a set of their masses: the
                # first of equal scores wins, and a set's order follows the
                # masses' values
                for mass in {Fraction(v, scale) for v in (
                        min(over_a, fc), min(under_b, fc),
                        min(max(over_a, under_b), fc))}:
                    delta = mass * scale
                    if delta <= 0:
                        continue
                    delta = run.dominance_cap(a, b, delta)
                    if delta <= 0:
                        continue
                    y = list(x)
                    y[a] -= delta
                    y[b] += delta
                    err = sum(abs(y[i] - q[i]) for i in range(n))
                    if err >= err0:
                        continue
                    snaps = sum(1 for i in range(n) if y[i] == q[i])
                    key = (-snaps, err)
                    if best is None or key < best[0]:
                        best = (key, a, b, delta)
        if best is None:
            raise _Unreachable("no admissible greedy transfer")
        _, a, b, delta = best
        run.move(a, b, delta, "greedy")
    return run.transfers


def synthesize(p, q, ctx: GibbsContext, group: bool = True) -> EdpSequence:
    """Find an elementary sequence mapping p to q exactly.

    Requires rational mode and exact inputs with ``p >=_T q``.  Raises
    ``SynthesisError`` carrying the violated elbow when q is not majorized,
    and a descriptive ``SynthesisError`` when the target lies in the known
    gap of the sequential construction (majorized yet unreachable by
    two-level detailed-balanced steps alone).  With ``group``, a run of
    consecutive phase or greedy transfers on one level pair becomes one
    step; aligned level runs never share a pair, so they are one step each
    either way.  More than ``MAX_SYNTHESIS_LEVELS`` levels are a
    DomainError before any work.
    """
    ctx.require_rational()
    if ctx.n > MAX_SYNTHESIS_LEVELS:
        raise DomainError(f"synthesis of {ctx.n} levels is above the cap "
                          f"of {MAX_SYNTHESIS_LEVELS}")
    pv = coerce_exact(as_levels(p, ctx), "p")
    qv = coerce_exact(as_levels(q, ctx), "q")
    source, target, _ = _curves(pv, qv, ctx, None)
    witness = _witness(lorenz_violation(source, target), source.scale, ctx,
                       False)
    if witness is not None:
        raise SynthesisError(
            f"p does not thermo-majorize q; violated elbow at x={witness[0]}"
            f" (L_p={witness[1]} < L_q={witness[2]})", witness=witness)

    relabel_in, relabel_out = source.order, target.order
    if pv == qv:
        return EdpSequence((), (), relabel_in, relabel_out)

    q_at = target.values(target.xs)

    def run():
        return _Run(source, target, q_at)

    tau = relabel_out
    strategies = [("aligned", lambda: _synth_aligned(source, target))]
    for asc, way in ((True, "ascending"), (False, "descending")):
        strategies.append((f"phase-{way}", lambda a=asc: _run_phases(
            run(), tau[:-1], a)))
        strategies.append((f"phase-{way}-reverse", lambda a=asc: _run_phases(
            run(), tau[1:][::-1], a)))
    strategies.append(("greedy", lambda: _greedy_balanced(run())))

    transfers = None
    failures = []
    for name, strategy in strategies:
        try:
            transfers = strategy()
            break
        except _Unreachable as exc:
            failures.append((name, exc))
    if transfers is None:
        raise SynthesisError(
            "no elementary sequence found: the pair is thermo-majorized but "
            "appears unreachable by two-level detailed-balanced steps alone "
            "(a known gap of the sequential construction)",
            attempts=tuple((name, str(exc)) for name, exc in failures))

    if len(transfers) > ctx.D:
        raise SynthesisError(
            f"internal: produced {len(transfers)} steps, above the D={ctx.D} "
            "bound")

    steps, records = _replay(transfers, source.nums, target.nums,
                             source.scale, ctx, group)
    return EdpSequence(steps, records, relabel_in, relabel_out)


def _replay(transfers, P, Q, scale, ctx: GibbsContext, group: bool):
    """The transfers as validated steps and provenance records, replayed
    on integers over one scale that holds every transfer's mass.

    Each transfer's ``p_down`` is the pair ``num/den`` of its mass over the
    feasibility cap, and its record's ``lam`` is ``1 - p_down``.  With
    ``group``, a run of transfers on one level pair is composed on those
    pairs, ``p + p' - p p' (d_lo + d_hi)/d_lo`` (the matrix product, as in
    ``compose_edps_same_pair``), and one step is built per run."""
    d = ctx.d
    unit = math.lcm(scale, *(t[2].denominator for t in transfers))
    x = [v * (unit // scale) for v in P]
    records: list[StepRecord] = []
    runs = []  # (lo, hi, num, den) of each step, a same-pair run composed
    for a, b, delta, j_ex, j_df, origin in transfers:
        lo, hi = (a, b) if d[a] > d[b] else (b, a)
        mass = delta.numerator * (unit // delta.denominator)
        # mass / _Run.feas_cap, with the cap over ``unit``
        num, den = mass * d[lo], x[a] * d[b] - x[b] * d[a]
        if den <= 0 or not 0 <= num <= den:
            raise DomainError("p_down must lie in [0, 1]")
        records.append(StepRecord(lo, hi, delta, j_ex, j_df,
                                  Fraction(den - num, den), origin))
        x[a] -= mass
        x[b] += mass
        if group and runs and runs[-1][:2] == (lo, hi):
            _, _, n0, d0 = runs[-1]
            dl = d[lo]
            num = (n0 * den + num * d0) * dl - n0 * num * (dl + d[hi])
            den *= d0 * dl
            common = math.gcd(num, den)
            runs[-1] = (lo, hi, num // common, den // common)
        else:
            runs.append((lo, hi, num, den))
    steps = tuple(make_edp_step(ctx, lo, hi, Fraction(num, den))
                  for lo, hi, num, den in runs)
    if x != [v * (unit // scale) for v in Q]:
        raise SynthesisError("internal: replay of the found sequence failed")
    return steps, tuple(records)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str
    failing_step: int | None
    terminal: tuple[Number, ...]


def verify_sequence(seq: EdpSequence, p, q, ctx: GibbsContext,
                    tol: Number | None = None) -> VerifyReport:
    """Replay the steps and check each one's level pair (``up_factor``
    runs ``check_level_pair``) and the terminal state; a failing step is a
    report, a malformed p, q or ``tol`` a DomainError.  A step's ``p_down``
    lies in [0, 1] (``EdpStep`` refuses any other), so a step on a good
    pair is stochastic and detailed balanced by construction."""
    pv = as_levels(p, ctx)
    qv = as_levels(q, ctx)
    t = auto_tol(tol, pv, qv, ctx.g)
    x = pv
    for idx, step in enumerate(seq.steps):
        try:
            step.up_factor(ctx)
        except DomainError as exc:
            return VerifyReport(
                False, f"level pair ({step.lo}, {step.hi}): {exc}", idx, x)
        x = apply_edp(step, x, ctx)
    drift = max((abs(a - b) for a, b in zip(x, qv)), default=0)
    if drift > t:
        return VerifyReport(False, "terminal state differs from target",
                            None, x)
    return VerifyReport(True, "ok", None, x)

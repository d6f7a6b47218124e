"""Constructive synthesis of elementary detailed-balanced process sequences.

Given populations with ``p >=_T q`` in rational mode, ``synthesize`` produces
a finite list of two-level detailed-balanced steps whose ordered application
maps p to q exactly.  The solver is layered:

* when p and q share a beta-order, the classical transfer loop of the
  embedding runs on the level vector: excess levels drain their slots from
  the tail, deficit levels fill theirs from the head, one slot at a time,
  so each slot follows from its level's sum and each transfer settles one;
  the run ends within D - 1 transfers;
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
from typing import Sequence

from .core import (DomainError, EdpStep, GibbsContext, Number, as_values,
                   auto_tol, coerce_exact, is_detailed_balanced,
                   make_edp_step, validate_stochastic)
from .majorization import exact_lorenz, majorization_witness

_ZERO = Fraction(0)


class SynthesisError(DomainError):
    """Raised when no elementary sequence from p to q was found."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class StepRecord:
    """Ungrouped provenance of one transfer.

    ``j_ex``/``j_df`` are 1-based slot positions in the beta-sorted embedding
    at the time of the transfer (donor block tail, receiver block head),
    ``delta`` the level mass moved and ``lam`` the identity weight of the
    step's mixture form ``lam * I + (1 - lam) * (extreme step)``.
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
    if ctx.degenerate_pair(step.lo, step.hi):
        raise DomainError("cannot apply a step on a degenerate pair")
    x = list(as_values(p))
    up = step.up_factor(ctx) * step.p_down
    lo, hi = x[step.lo], x[step.hi]
    x[step.lo] = (1 - up) * lo + step.p_down * hi
    x[step.hi] = up * lo + (1 - step.p_down) * hi
    return tuple(x)


def compose_edps_same_pair(a: EdpStep, b: EdpStep,
                           ctx: GibbsContext) -> EdpStep:
    """Single step whose matrix equals (b after a); closure holds because
    every 2x2 Gibbs-preserving stochastic matrix is detailed balanced."""
    if (a.lo, a.hi) != (b.lo, b.hi):
        raise DomainError("steps act on different level pairs")
    z = 1 + a.up_factor(ctx)
    p3 = a.p_down + b.p_down - a.p_down * b.p_down * z
    return make_edp_step(ctx, a.lo, a.hi, p3)


# --------------------------------------------------------------------------
# internal exact machinery (rational mode only); ``target`` is the integer
# Lorenz curve of q from the majorisation kernel

def _feas_cap(x, g, a, b):
    """Largest net mass one step can move from a to b (needs r_a > r_b)."""
    return min(g[a], g[b]) * (x[a] / g[a] - x[b] / g[b])


def _dominance_cap(x, ctx, target, g, a, b, delta_hi):
    """delta_hi when the shifted state (x - d e_a + d e_b) at d = delta_hi
    thermo-majorises the target; otherwise the largest d such that every
    shifted state on [0, d] does.

    Between ratio-crossing values of d the beta-order is fixed, so the slack
    of the shifted curve over the target at each target elbow is affine in d
    and the binding d is a root of the line through the slacks at the two
    ends of one regime.  Checking the target elbows suffices: between them
    the shifted curve is concave and the target linear.
    """
    n = len(x)
    q_at = [target.at(c) for c in target.xs]

    def shifted(d):
        y = list(x)
        y[a] -= d
        y[b] += d
        return y

    def slack(d):
        """Slacks at the target elbows as integers over ``y.scale`` (times
        the factor ``target.scale * lam`` shared by every d), and
        ``y.scale``."""
        y = exact_lorenz(shifted(d), ctx)
        return ([y.at(c) * target.scale - v * y.scale
                 for c, v in zip(target.xs, q_at)], y.scale)

    s_hi, k_hi = slack(delta_hi)
    if min(s_hi) >= 0:
        return delta_hi
    crits = set()
    for j in range(n):
        for i, s in ((a, Fraction(-1)), (b, Fraction(1))):
            if j == i:
                continue
            sj = Fraction(-1) if j == a else (Fraction(1) if j == b else _ZERO)
            num = x[j] * g[i] - x[i] * g[j]
            den = s * g[j] - sj * g[i]
            if den != 0:
                d = num / den
                if 0 < d < delta_hi:
                    crits.add(d)
    grid = [_ZERO] + sorted(crits) + [delta_hi]
    best = _ZERO
    s0, k0 = slack(_ZERO)
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


def _slot_positions(x, ctx, a, b):
    """(tail slot of a's block, head slot of b's block), 1-based, in the
    current beta-sorted embedding."""
    curve = exact_lorenz(x, ctx)
    rank = curve.order.index
    return curve.xs[rank(a) + 1], curve.xs[rank(b)] + 1


class _Unreachable(Exception):
    pass


def _synth_aligned(p, q, d, order, order_q):
    """Classical transfer loop on the level vector for beta-aligned pairs
    (beta-orders ``order`` of p and ``order_q`` of q); see module docstring."""
    if order_q != order:
        raise _Unreachable("pair is not beta-aligned")
    offset, start = {}, 0
    for i in order:
        offset[i], start = start, start + d[i]
    x = list(p)

    def active(i):
        """(1-based slot, value, gap to target) of the slot level i moves
        next, given that c of its d[i] slots are still off target."""
        e = (p[i] - q[i]) / d[i]
        c = math.ceil((x[i] - q[i]) / e)
        gap = x[i] - q[i] - (c - 1) * e
        slot = offset[i] + (c if e > 0 else d[i] - c + 1)
        return slot, q[i] / d[i] + gap, gap

    transfers = []
    while x != q:
        a = next(i for i in reversed(order) if x[i] > q[i])
        later = order[order.index(a) + 1:]
        b = next((i for i in later if x[i] < q[i]), None)
        if b is None:
            raise _Unreachable("no deficit slot after the last excess slot")
        (j_ex, u_ex, gap_ex), (j_df, u_df, gap_df) = active(a), active(b)
        delta = min(gap_ex, -gap_df)
        lam = 1 - delta / (u_ex - u_df)
        x[a] -= delta
        x[b] += delta
        transfers.append((a, b, delta, j_ex, j_df, lam, "aligned"))
    return transfers


def _run_phases(p, q, g, ctx, phase_levels, asc, target):
    """Settle one level at a time to its exact target, moving mass only
    between unsettled levels; transit boosts reroute mass through middle
    levels when direct pipes are too narrow."""
    n = len(p)
    x = list(p)
    transfers = []
    fixed = set()

    def ratio(i):
        return x[i] / g[i]

    def try_xfer(a, b, delta, origin):
        """Move up to delta from a to b (ratio(a) > ratio(b)), capped so the
        state keeps thermo-majorising the target; returns the mass moved."""
        if delta <= 0:
            return _ZERO
        delta = _dominance_cap(x, ctx, target, g, a, b, delta)
        if delta <= 0:
            return _ZERO
        j_ex, j_df = _slot_positions(x, ctx, a, b)
        x[a] -= delta
        x[b] += delta
        transfers.append((a, b, delta, j_ex, j_df, None, origin))
        return delta

    for b in phase_levels:
        rounds = 0
        while x[b] != q[b]:
            rounds += 1
            if rounds > 120:
                raise _Unreachable(f"phase for level {b} did not converge")
            progressed = False
            filling = q[b] > x[b]
            partners = sorted((i for i in range(n) if i not in fixed and i != b),
                              key=ratio, reverse=not asc)
            for a in partners:
                need = q[b] - x[b]
                if need == 0:
                    break
                src, dst = (a, b) if filling else (b, a)
                if g[a] != g[b] and ratio(src) > ratio(dst):
                    delta = min(abs(need), _feas_cap(x, g, src, dst))
                    if try_xfer(src, dst, delta, "phase") > 0:
                        progressed = True
            if x[b] != q[b] and not progressed:
                # transit: move mass between two other levels so that a
                # pipe from or to b opens up in the next round
                ps = sorted((i for i in range(n) if i not in fixed and i != b),
                            key=ratio)
                for lo in ps:
                    src, dst = (lo, b) if filling else (b, lo)
                    if ratio(src) <= ratio(dst):
                        continue
                    for hi in reversed(ps):
                        if hi == lo or g[hi] == g[lo]:
                            continue
                        src, dst = (hi, lo) if filling else (lo, hi)
                        if ratio(src) > ratio(dst) and try_xfer(
                                src, dst, _feas_cap(x, g, src, dst),
                                "transit") > 0:
                            progressed = True
                            break
                    if progressed:
                        break
            if x[b] != q[b] and not progressed:
                raise _Unreachable(f"no admissible transfer for level {b}")
        fixed.add(b)
    if x != list(q):
        raise _Unreachable("phases ended away from the target")
    return transfers


def _greedy_balanced(p, q, g, ctx, target):
    """Fallback: snap-preferring greedy over all ratio-directional pairs."""
    n = len(p)
    x = list(p)
    transfers = []
    while x != list(q):
        if len(transfers) > 8 * n * n:
            raise _Unreachable("greedy step limit reached")
        best = None
        for a in range(n):
            for b in range(n):
                if a == b or g[a] == g[b]:
                    continue
                if x[a] / g[a] <= x[b] / g[b]:
                    continue
                over_a = max(_ZERO, x[a] - q[a])
                under_b = max(_ZERO, q[b] - x[b])
                if over_a == 0 and under_b == 0:
                    continue
                fc = _feas_cap(x, g, a, b)
                for delta in {min(over_a, fc), min(under_b, fc),
                              min(max(over_a, under_b), fc)}:
                    if delta <= 0:
                        continue
                    delta = _dominance_cap(x, ctx, target, g, a, b, delta)
                    if delta <= 0:
                        continue
                    y = list(x)
                    y[a] -= delta
                    y[b] += delta
                    err0 = sum(abs(x[i] - q[i]) for i in range(n))
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
        j_ex, j_df = _slot_positions(x, ctx, a, b)
        x[a] -= delta
        x[b] += delta
        transfers.append((a, b, delta, j_ex, j_df, None, "greedy"))
    return transfers


def synthesize(p, q, ctx: GibbsContext, group: bool = True) -> EdpSequence:
    """Find an elementary sequence mapping p to q exactly.

    Requires rational mode and exact inputs with ``p >=_T q``.  Raises
    ``SynthesisError`` carrying the violated elbow when q is not majorized,
    and a descriptive ``SynthesisError`` when the target lies in the known
    gap of the sequential construction (majorized yet unreachable by
    two-level detailed-balanced steps alone).
    """
    ctx.require_rational()
    pv = coerce_exact(as_values(p), "p")
    qv = coerce_exact(as_values(q), "q")
    if len(pv) != ctx.n or len(qv) != ctx.n:
        raise DomainError("population and context dimensions differ")
    g = [Fraction(v) for v in ctx.g]
    witness = majorization_witness(pv, qv, ctx)
    if witness is not None:
        raise SynthesisError(
            f"p does not thermo-majorize q; violated elbow at x={witness[0]}"
            f" (L_p={witness[1]} < L_q={witness[2]})", witness=witness)

    target = exact_lorenz(qv, ctx)
    relabel_in = exact_lorenz(pv, ctx).order
    relabel_out = target.order
    if pv == qv:
        return EdpSequence((), (), relabel_in, relabel_out)

    tau = relabel_out
    attempts = [lambda: _synth_aligned(pv, qv, ctx.d, relabel_in, tau)]
    for asc in (True, False):
        attempts.append(lambda a=asc: _run_phases(
            pv, qv, g, ctx, list(tau[:-1]), a, target))
        attempts.append(lambda a=asc: _run_phases(
            pv, qv, g, ctx, list(tau[1:][::-1]), a, target))
    attempts.append(lambda: _greedy_balanced(pv, qv, g, ctx, target))

    transfers = None
    for attempt in attempts:
        try:
            transfers = attempt()
            break
        except _Unreachable:
            continue
    if transfers is None:
        raise SynthesisError(
            "no elementary sequence found: the pair is thermo-majorized but "
            "appears unreachable by two-level detailed-balanced steps alone "
            "(a known gap of the sequential construction)")

    if len(transfers) > ctx.D:
        raise SynthesisError(
            f"internal: produced {len(transfers)} steps, above the D={ctx.D} "
            "bound")

    # transfers -> validated steps with provenance
    x = list(pv)
    raw_steps: list[EdpStep] = []
    records: list[StepRecord] = []
    for a, b, delta, j_ex, j_df, lam, origin in transfers:
        lo, hi = (a, b) if g[a] > g[b] else (b, a)
        cap = _feas_cap(x, g, a, b)
        p_down = Fraction(delta) / cap
        step = make_edp_step(ctx, lo, hi, p_down)
        if lam is None:
            lam = 1 - p_down
        raw_steps.append(step)
        records.append(StepRecord(lo, hi, Fraction(delta), j_ex, j_df,
                                  Fraction(lam), origin))
        x[a] -= delta
        x[b] += delta
    if x != qv:
        raise SynthesisError("internal: replay of the found sequence failed")

    steps: list[EdpStep] = []
    if group:
        for step in raw_steps:
            if steps and (steps[-1].lo, steps[-1].hi) == (step.lo, step.hi):
                steps[-1] = compose_edps_same_pair(steps[-1], step, ctx)
            else:
                steps.append(step)
    else:
        steps = raw_steps
    return EdpSequence(tuple(steps), tuple(records), relabel_in, relabel_out)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str
    failing_step: int | None
    terminal: tuple[Number, ...]


def verify_sequence(seq: EdpSequence, p, q, ctx: GibbsContext,
                    tol: Number | None = None) -> VerifyReport:
    """Replay the steps and check stochasticity, detailed balance and the
    terminal state; returns diagnostics instead of raising."""
    pv = as_values(p)
    qv = as_values(q)
    t = auto_tol(tol, pv, qv, ctx.g)
    x = pv
    for idx, step in enumerate(seq.steps):
        if not 0 <= step.p_down <= 1:
            return VerifyReport(False, "p_down out of range", idx, x)
        m = step.as_matrix(ctx)
        if not validate_stochastic(m, t):
            return VerifyReport(False, "step is not stochastic", idx, x)
        if not is_detailed_balanced(m, ctx, t):
            return VerifyReport(False, "step violates detailed balance", idx, x)
        x = apply_edp(step, x, ctx)
    drift = max((abs(a - b) for a, b in zip(x, qv)), default=0)
    if drift > t:
        return VerifyReport(False, "terminal state differs from target",
                            None, x)
    return VerifyReport(True, "ok", None, x)

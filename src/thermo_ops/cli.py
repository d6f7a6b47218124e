"""Command-line entry point.

Every operation is exposed as a subcommand writing JSON or CSV artifacts.
Exit status: 0 on success, 1 on a domain error (for example synthesis from a
non-majorizing pair), 2 on I/O or format problems and on usage errors.
Errors print one machine-parsable line to stderr:
``THERMO-OPS-ERROR code=<CODE> msg=<...>``.  Each subcommand declares only
the options it reads; ``--tol`` is left unset by default, so the library's
tolerance rule (``core.auto_tol``) decides in both modes.  Only ``io`` and
the error types load with this module; each subcommand imports the modules
it runs when it runs (numpy only for ``jc-*`` and ``simulate``).
``jc-region`` refuses an invalid ``THERMO_OPS_THREADS`` (exit 2); a valid
value has no effect, as the sweep is one batched search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as tio
from .core import DomainError, FormatError, ThermoOpsError


#: most rows ``jc-region`` computes; a finer grid is refused up front
MAX_REGION_ROWS = 10**5
#: most levels ``cone`` takes: it walks all n! level orderings, and one more
#: level multiplies its time and memory by about ten
MAX_CONE_LEVELS = 8


def _fail(code: str, message: str, status: int) -> int:
    sys.stderr.write(f"THERMO-OPS-ERROR code={code} msg={message}\n")
    return status


def _write(text: str, out_path: str | None) -> None:
    """Writes text atomically to ``out_path``, or to stdout without one."""
    if out_path:
        tio.write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _emit(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=1) + "\n", out_path)


def _load_ctx(args):
    return tio.context_from_json(tio.read_json(args.ctx))


def _load_pop(path, mode):
    pop = tio.population_from_json(tio.read_json(path))
    if mode == "rational" and any(isinstance(v, float) for v in pop.x):
        raise FormatError(f"{path}: rational mode requires exact entries")
    return pop


def _cmd_check_majorization(args) -> int:
    from .majorization import majorization_witness, thermo_majorizes
    ctx = _load_ctx(args)
    p = _load_pop(args.p, args.mode)
    q = _load_pop(args.q, args.mode)
    routes = (("curve", "abs", "embedded") if args.route == "all"
              else (args.route,))
    verdicts = {r: thermo_majorizes(p, q, ctx, args.tol, route=r)
                for r in routes}
    witness = majorization_witness(p, q, ctx, args.tol)
    _emit({"verdict": all(verdicts.values()),
           "routes": verdicts,
           "witness": None if witness is None else
           [tio.encode_number(w) for w in witness]}, args.out)
    return 0


def _cmd_synthesize(args) -> int:
    from .synthesis import SynthesisError, synthesize
    ctx = _load_ctx(args)
    p = _load_pop(args.p, "rational")
    q = _load_pop(args.q, "rational")
    try:
        seq = synthesize(p, q, ctx, group=not args.no_group)
    except SynthesisError as exc:
        payload = {"error": str(exc)}
        if exc.witness is not None:
            payload["violated_elbow"] = [tio.encode_number(v)
                                         for v in exc.witness]
        _emit(payload, None)
        raise
    _emit(tio.sequence_to_json(seq), args.out)
    return 0


def _cmd_decompose(args) -> int:
    from .birkhoff import decompose
    ctx = _load_ctx(args)
    T = tio.matrix_from_json(tio.read_json(args.t))
    dec = decompose(T, ctx, args.tol)
    _emit(tio.decomposition_to_json(dec), args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .birkhoff import simulate_mean
    dec = tio.decomposition_from_json(tio.read_json(args.dec))
    p = _load_pop(args.p, args.mode)
    mean, exact, sigma = simulate_mean(dec, p, args.samples, args.seed)
    _emit({"samples": args.samples, "seed": args.seed, "mean": mean,
           "exact": exact, "sigma": sigma}, args.out)
    return 0


def _cmd_cone(args) -> int:
    from .cone import simplex_coordinates, thermal_cone
    ctx = _load_ctx(args)
    p = _load_pop(args.p, args.mode)
    if ctx.n > MAX_CONE_LEVELS:
        raise DomainError(f"cone walks all n! level orderings; {ctx.n} "
                          f"levels are more than {MAX_CONE_LEVELS} (the cap)")
    cone = thermal_cone(p, ctx, facets=args.facets)
    payload = {"source": [tio.encode_number(v) for v in cone.source],
               "vertices": [[tio.encode_number(v) for v in vert]
                            for vert in cone.vertices],
               "facets": None if cone.hull_facets is None else
               [list(f) for f in cone.hull_facets]}
    _emit(payload, args.out)
    if args.simplex_csv:
        coords = simplex_coordinates(cone.vertices)
        lines = ["x,y"] + [f"{x:.12g},{y:.12g}" for x, y in coords]
        tio.write_text_atomic(args.simplex_csv, "\n".join(lines) + "\n")
    return 0


def _check_thread_env() -> None:
    """Refuses an invalid THERMO_OPS_THREADS; a valid value is ignored."""
    raw = os.environ.get("THERMO_OPS_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise FormatError(
            f"THERMO_OPS_THREADS must be a positive integer, got {raw!r}")


def _cmd_jc_region(args) -> int:
    inf = float("inf")
    if not all(-inf < v < inf for v in (args.beta_min, args.beta_max)):
        raise DomainError("--beta-min and --beta-max must be finite")
    if args.beta_min > args.beta_max:
        raise DomainError("--beta-min must not exceed --beta-max")
    if not 0 < args.step < inf:
        raise DomainError(f"--step must be positive and finite, got "
                          f"{args.step}")
    rows = (args.beta_max + args.step / 2 - args.beta_min) / args.step
    if rows > MAX_REGION_ROWS:
        raise DomainError(f"the beta grid would hold more than "
                          f"{MAX_REGION_ROWS} rows (the cap); use a larger "
                          f"--step or a shorter range")
    _check_thread_env()
    import numpy as np

    from .jaynes_cummings import region_sweep
    grid = np.arange(args.beta_min, args.beta_max + args.step / 2, args.step)
    _write(tio.region_csv_text(region_sweep(grid)), args.out)
    return 0


def _cmd_jc_solve(args) -> int:
    from .jaynes_cummings import NotAchievable, find_s_for_target
    result = find_s_for_target(args.target, args.beta_bar, args.tol)
    if isinstance(result, NotAchievable):
        _emit({"achievable": False, "best": result.best,
               "s_best": result.s_best}, args.out)
    else:
        _emit({"achievable": True, "s": result}, args.out)
    return 0


def _cmd_relax(args) -> int:
    from .thermalization import relax
    ctx = _load_ctx(args)
    p = _load_pop(args.p, "float")
    out = relax(p, args.t, args.xi, ctx)
    _emit({"x": list(out)}, args.out)
    return 0


def _cmd_thermalisation_check(args) -> int:
    from .majorization import beta_order, majorization_witness
    from .thermalization import is_thermalisation_of
    ctx = _load_ctx(args)
    p = _load_pop(args.p, args.mode)
    q = _load_pop(args.q, args.mode)
    witness = majorization_witness(p, q, ctx, args.tol)
    _emit({"is_thermalisation": is_thermalisation_of(p, q, ctx, args.tol),
           "majorizes": witness is None,
           "beta_order_p": list(beta_order(p, ctx).perm),
           "beta_order_q": list(beta_order(q, ctx).perm),
           "witness": None if witness is None else
           [tio.encode_number(w) for w in witness]}, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a FormatError, which ``main`` prints as the
    one error line (exit 2); subparsers inherit the class."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermo-ops",
        description="Thermo-majorisation toolkit: decision procedures, "
                    "elementary-step synthesis, thermal Birkhoff "
                    "decomposition, cones and exchange-model bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ctx=True, pq=("p", "q"), tol=False, mode=False):
        if ctx:
            sp.add_argument("--ctx", required=True, help="context JSON")
        for name in pq:
            sp.add_argument(f"--{name}", required=True,
                            help=f"population JSON ({name})")
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="comparison tolerance (default: auto_tol)")
        if mode:
            sp.add_argument("--mode", choices=("rational", "float"),
                            default="rational")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("check-majorization",
                        help="decide p >=_T q by one or all routes")
    common(sp, tol=True, mode=True)
    sp.add_argument("--route", choices=("curve", "abs", "embedded", "all"),
                    default="all")
    sp.set_defaults(func=_cmd_check_majorization)

    sp = sub.add_parser("synthesize",
                        help="build an elementary sequence from p to q")
    common(sp)
    sp.add_argument("--no-group", action="store_true",
                    help="keep consecutive same-pair steps unmerged")
    sp.set_defaults(func=_cmd_synthesize)

    sp = sub.add_parser("decompose",
                        help="convex split into thermo-permutations")
    common(sp, pq=(), tol=True)
    sp.add_argument("--t", required=True, help="stochastic matrix JSON")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("simulate",
                        help="Monte-Carlo draws from a decomposition")
    common(sp, ctx=False, pq=("p",), mode=True)
    sp.add_argument("--dec", required=True, help="decomposition JSON")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("cone", help="thermal-cone vertices (and facets)")
    common(sp, pq=("p",), mode=True)
    sp.add_argument("--facets", action="store_true")
    sp.add_argument("--simplex-csv", default=None,
                    help="also write 2-simplex coordinates (3 levels)")
    sp.set_defaults(func=_cmd_cone)

    sp = sub.add_parser("jc-region",
                        help="achievable-region sweep as CSV")
    sp.add_argument("--beta-min", type=float, default=0.05)
    sp.add_argument("--beta-max", type=float, default=8.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_jc_region)

    sp = sub.add_parser("jc-solve",
                        help="find a control time reaching a target "
                             "de-exciting probability")
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--beta-bar", type=float, required=True)
    sp.add_argument("--tol", type=float, default=None,
                    help="accuracy of the solve (default: SOLVE_TOL)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_jc_solve)

    sp = sub.add_parser("relax", help="exponential relaxation snapshot")
    common(sp, pq=("p",))
    sp.add_argument("--t", dest="t", type=float, required=True)
    sp.add_argument("--xi", type=float, required=True)
    sp.set_defaults(func=_cmd_relax)

    sp = sub.add_parser("thermalisation-check",
                        help="majorisation plus beta-order preservation")
    common(sp, tol=True, mode=True)
    sp.set_defaults(func=_cmd_thermalisation_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FormatError as exc:
        return _fail("FORMAT", str(exc), 2)
    except DomainError as exc:
        return _fail("DOMAIN", str(exc), 1)
    except ThermoOpsError as exc:
        return _fail("INTERNAL", str(exc), 1)
    except OSError as exc:
        return _fail("IO", str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())

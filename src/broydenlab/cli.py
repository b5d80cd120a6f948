"""Command-line entry point.

Subcommands:

* ``single``         one seeded run of bm / bmp / smp / newton, written as
                     metrics.csv (one diagnostics row per iteration)
* ``cumulative``     m seeded runs, filtered and aggregated to summary.csv
* ``basin``          rasterize the convergence domain to basin.ppm + basin.csv
* ``list-problems``  show the registry
* ``verify``         second-derivative and finite-difference checks

Exit codes: 0 success, 1 a failed ``verify`` check, 2 configuration error
or refused input (one ``error:`` line, nothing written), 3 empty accepted
set in a cumulative run.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .basin import (DimensionMismatch, GridSpec, blue_fraction, csv_lines,
                    render_basin)
from .diagnostics import metrics_from_trace
from .formatting import format_full, format_metric
from .harness import (SUMMARY_COLUMNS, AcceptanceCriteria, CounterRng,
                      CumulativeSummary, EmptyAcceptedSet, SeriesConfig,
                      cumulative_run, default_criteria, seeded_start)
from .linalg import LinalgError, PrecisionContext
from .problems import (MissingNullData, fd_jacobian_deviation, get_problem,
                       list_problems, verify_a2)
from .solvers import SolverOptions, bmp_run, broyden_run, newton_run, smp_run

METRICS_HEADER = ("k,F_norm,u_norm,r,q,eps,R,Q,delta,zeta,"
                  "Lambda1,Lambda2,E_norm")

SUMMARY_HEADER = ",".join(["problem,alpha,beta,b0_mode,m,seed",
                           *(c.csv for c in SUMMARY_COLUMNS), "rem"])


class _Parser(argparse.ArgumentParser):
    """Argument parser that refuses bad flags with one ``error:`` line (the
    subcommand parsers inherit the class)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="broydenlab",
        description="Arbitrary-precision experiments with Broyden-type "
                    "methods on singular nonlinear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True)
        p.add_argument("--tol", type=int, default=100,
                       help="stop at ||F|| <= 10**-TOL")
        p.add_argument("--precision", type=int, default=320,
                       help="working precision in decimal digits")
        p.add_argument("--max-iter", type=int, default=3000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    p_single = sub.add_parser("single", help="one seeded run")
    common(p_single)
    p_single.add_argument("--method", choices=("bm", "bmp", "smp", "newton"),
                          default="bmp")
    p_single.add_argument("--alpha", default="0.01",
                          help="half-width of the random start box")
    p_single.add_argument("--beta", default="0",
                          help="relative scale of the matrix perturbation")
    p_single.add_argument("--b0-mode", choices=("jacobian", "broyden-update"),
                          default="jacobian")
    p_single.add_argument("--C", dest="c_const", default="1",
                          help="correction constant of the accelerated method")
    p_single.add_argument("--order-alpha", default="0.5",
                          help="acceleration exponent in (0, (sqrt(5)-1)/2)")
    p_single.add_argument("--full-precision", action="store_true",
                          help="dump every working digit instead of 6")

    p_cum = sub.add_parser("cumulative", help="m seeded runs, aggregated")
    p_cum.add_argument("--config", help="JSON file mirroring SeriesConfig")
    p_cum.add_argument("--problem")
    p_cum.add_argument("--alpha")
    p_cum.add_argument("--beta", default="0")
    p_cum.add_argument("--b0-mode", choices=("jacobian", "broyden-update"),
                       default="jacobian")
    p_cum.add_argument("--m", type=int, default=200)
    p_cum.add_argument("--tol", type=int, default=100)
    p_cum.add_argument("--precision", type=int, default=320)
    p_cum.add_argument("--max-iter", type=int, default=500)
    p_cum.add_argument("--seed", type=int, default=0)
    p_cum.add_argument("--workers", type=int, default=1)
    p_cum.add_argument("--out", default=".")

    p_basin = sub.add_parser("basin", help="rasterize the convergence domain")
    p_basin.add_argument("--problem", required=True)
    p_basin.add_argument("--half-width", default="0.001")
    p_basin.add_argument("--grid-res", type=int, default=101)
    p_basin.add_argument("--tol", type=int, default=60)
    p_basin.add_argument("--precision", type=int, default=160)
    p_basin.add_argument("--max-iter", type=int, default=300)
    p_basin.add_argument("--seed", type=int, default=0)
    p_basin.add_argument("--workers", type=int, default=1)
    p_basin.add_argument("--out", default=".")

    sub.add_parser("list-problems", help="show the registry")

    p_verify = sub.add_parser("verify", help="problem self-checks")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--precision", type=int, default=100)

    return parser


def _metrics_csv(rows, full_digits=None) -> str:
    lines = [METRICS_HEADER]
    for row in rows:
        lines.append(",".join([str(row.k)] + [
            "-1" if x is None else format_metric(x) if full_digits is None
            else format_full(x, full_digits)
            for x in (row.f_norm, row.err, row.r, row.q, row.eps, row.r_eps,
                      row.q_eps, row.delta, row.zeta, row.lambda1,
                      row.lambda2, row.e_norm)]))
    return "\n".join(lines) + "\n"


def summary_csv_row(cfg: SeriesConfig, summary: CumulativeSummary) -> str:
    values = [cfg.problem, cfg.alpha, cfg.beta, cfg.b0_mode,
              str(cfg.m), str(cfg.rng_seed)]
    for col in SUMMARY_COLUMNS:
        value = getattr(summary, col.attr)
        values.append(str(value) if isinstance(value, int)
                      else format_metric(value))
    values.append(str(summary.removed))
    return ",".join(values)


def _cmd_single(args) -> int:
    cfg = SeriesConfig(problem=args.problem, alpha=args.alpha, beta=args.beta,
                       b0_mode=args.b0_mode, m=1, tol_exponent=args.tol,
                       precision=args.precision, max_iter=args.max_iter,
                       rng_seed=args.seed)
    p, opts, u_hat, b_hat, b0 = seeded_start(cfg, 0)
    if args.method == "bmp":
        rec = bmp_run(p, u_hat, b_hat, opts, b0)
    elif args.method == "bm":
        rec = broyden_run(p, u_hat, b_hat, opts)
    elif args.method == "newton":
        rec = newton_run(p, u_hat, opts)
    else:
        rec = smp_run(p, u_hat, b_hat, args.c_const, args.order_alpha, opts)
    rows = metrics_from_trace(rec, p)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    full = args.precision if args.full_precision else None
    (out / "metrics.csv").write_text(_metrics_csv(rows, full))
    print(f"{p.name} {args.method}: status={rec.status.value} kbar={rec.kbar} "
          f"F_final={format_metric(rec.trace[-1].f_norm)}")
    return 0


def _cmd_cumulative(args) -> int:
    if args.config:
        data = json.loads(Path(args.config).read_text())
        crit_spec = data.pop("criteria", None) if isinstance(data, dict) else None
        cfg = SeriesConfig.from_mapping(data)
        if crit_spec is not None:
            crit = AcceptanceCriteria.from_mapping(crit_spec)
        else:
            crit = default_criteria(cfg.problem)
    else:
        if not args.problem or args.alpha is None:
            raise ValueError("cumulative needs --config or --problem/--alpha")
        cfg = SeriesConfig(problem=args.problem, alpha=args.alpha,
                           beta=args.beta, b0_mode=args.b0_mode, m=args.m,
                           tol_exponent=args.tol, precision=args.precision,
                           max_iter=args.max_iter, rng_seed=args.seed)
        crit = default_criteria(cfg.problem)
    summary = cumulative_run(cfg, crit, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = SUMMARY_HEADER + "\n" + summary_csv_row(cfg, summary) + "\n"
    (out / "summary.csv").write_text(text)
    print(f"{cfg.problem}: accepted={summary.accepted} rem={summary.removed} "
          f"({summary.removal_reasons}) it=[{summary.it_min},{summary.it_max}] "
          f"q=[{format_metric(summary.q_min)},{format_metric(summary.q_max)}]")
    return 0


def _cmd_basin(args) -> int:
    p = get_problem(args.problem)
    grid = GridSpec(half_width=args.half_width, resolution=args.grid_res)
    crit = default_criteria(p.name)
    opts = SolverOptions(precision=PrecisionContext(args.precision),
                         tol_exponent=args.tol, max_iter=args.max_iter,
                         record_spectra=False)
    image, results = render_basin(p, grid, crit, opts, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "basin.ppm").write_bytes(image)
    (out / "basin.csv").write_text("\n".join(csv_lines(results)) + "\n")
    print(f"{p.name} basin: resolution={args.grid_res} "
          f"half_width={args.half_width} blue_fraction={blue_fraction(results):.4f}")
    return 0


def _cmd_list_problems(args) -> int:
    for name in list_problems():
        p = get_problem(name)
        kind = ("regular root" if p.singularity_order == 0 else
                f"singularity order {p.singularity_order}")
        print(f"{name}  (n={p.n}, {kind})")
    print("monomial:p  (1-D family u -> u**p with root 0, p >= 1)")
    return 0


def _cmd_verify(args) -> int:
    ctx = PrecisionContext(args.precision)
    p = get_problem(args.problem)
    rng = CounterRng(12345, 0)
    ok = True
    for _ in range(3):
        u = ctx.vec([rng.uniform_symmetric(ctx, 1) / 2 for _ in range(p.n)])
        dev = fd_jacobian_deviation(p, u, ctx)
        bound = ctx.pow10(-(ctx.decimal_digits // 3) + 5)
        status = "ok" if dev <= bound else "FAIL"
        if dev > bound:
            ok = False
        print(f"jacobian vs central differences: deviation={format_metric(dev)} "
              f"(bound {format_metric(bound)}) {status}")
    try:
        h = ctx.pow10(-20)
        result = verify_a2(p, h, ctx)
        norm = result.norm()
        print(f"||P_N F''(root)(phi,phi)|| ~ {format_metric(norm)} (h={format_metric(h)})")
    except MissingNullData:
        print("no nullspace data (regular root); second-derivative check skipped")
    return 0 if ok else 1


_COMMANDS = {"single": _cmd_single, "cumulative": _cmd_cumulative,
             "basin": _cmd_basin, "list-problems": _cmd_list_problems,
             "verify": _cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except EmptyAcceptedSet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError, LinalgError,
            DimensionMismatch) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

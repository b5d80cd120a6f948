"""Command-line entry point: ``single``, ``cumulative``, ``basin``,
``list-problems`` and ``verify`` (see README.md).

Exit codes: 0 success, 1 a failed ``verify`` check, 2 configuration error
or refused input (one ``error:`` line, nothing written), 3 empty accepted
set in a cumulative run.
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import sys
from pathlib import Path
from types import SimpleNamespace

from .basin import DimensionMismatch, GridSpec, blue_fraction, render_basin
from .diagnostics import metrics_from_trace
from .formatting import format_full, format_metric, interval_cell
from .harness import (B0_MODES, SUMMARY_COLUMNS, AcceptanceCriteria,
                      CounterRng, EmptyAcceptedSet, SeriesConfig,
                      cumulative_run, default_criteria, seeded_start)
from .linalg import LinalgError, PrecisionContext
from .problems import (FAMILIES, MAX_EXPONENT, MissingNullData,
                       fd_jacobian_deviation, get_problem, list_problems, verify_a2)
from .solvers import (SolverOptions, bmp_run, broyden_run, newton_run,
                      smp_constants, smp_run)

#: (flag, SeriesConfig field, help) of ``single`` and ``cumulative``; the
#: field gives the flag's type and metavar, and ``single`` has no ``--m``
SERIES_FLAGS = (
    ("--problem", "problem", None),
    ("--alpha", "alpha", "half-width of the random start box"),
    ("--beta", "beta", "relative scale of the matrix perturbation"),
    ("--b0-mode", "b0_mode", f"B_0 rule, one of {', '.join(B0_MODES)}"),
    ("--m", "m", "number of runs"),
    ("--tol", "tol_exponent", "stop at ||F|| <= 10**-TOL_EXPONENT"),
    ("--precision", "precision", "working precision in decimal digits"),
    ("--max-iter", "max_iter", None), ("--seed", "rng_seed", None))

#: metrics.csv's columns: (csv name, MetricsRow attribute)
METRICS_COLUMNS = (
    ("k", "k"), ("F_norm", "f_norm"), ("u_norm", "err"), ("r", "r"),
    ("q", "q"), ("eps", "eps"), ("R", "r_eps"), ("Q", "q_eps"),
    ("delta", "delta"), ("zeta", "zeta"), ("Lambda1", "lambda1"),
    ("Lambda2", "lambda2"), ("E_norm", "e_norm"))
#: basin.csv's columns: (csv name, PixelResult attribute)
BASIN_COLUMNS = (("x", "x"), ("y", "y"), ("class", "classification"),
                 ("kbar", "kbar"), ("q_final", "q_final"))
#: summary.csv's columns: (csv name, SeriesConfig or CumulativeSummary field)
SUMMARY_CSV = (("problem", "problem"), ("alpha", "alpha"), ("beta", "beta"),
               ("b0_mode", "b0_mode"), ("m", "m"), ("seed", "rng_seed"),
               *((c.csv, c.attr) for c in SUMMARY_COLUMNS), ("rem", "removed"))
METRICS_HEADER, SUMMARY_HEADER = (",".join(name for name, _ in columns)
                                  for columns in (METRICS_COLUMNS, SUMMARY_CSV))


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

    types = {f.name: f.type for f in dataclasses.fields(SeriesConfig)}

    def series(p, skip=()):
        for flag, field, text in SERIES_FLAGS:
            if flag not in skip:
                p.add_argument(flag, dest=field, default=argparse.SUPPRESS,
                               type=int if types[field] == "int" else str,
                               help=text)

    p_single = sub.add_parser("single", help="one seeded run")
    series(p_single, skip=("--m",))
    p_single.add_argument("--method", choices=("bm", "bmp", "smp", "newton"),
                          default="bmp")
    p_single.add_argument("--C", dest="c_const", default="1",
                          help="correction constant of the accelerated method")
    p_single.add_argument("--order-alpha", default="0.5",
                          help="acceleration exponent in (0, (sqrt(5)-1)/2)")
    p_single.add_argument("--full-precision", action="store_true",
                          help="dump every working digit instead of 6")

    p_cum = sub.add_parser("cumulative", help="m seeded runs, aggregated")
    p_cum.add_argument("--config",
                       help="JSON file mirroring SeriesConfig, in place of "
                            "the series flags")
    series(p_cum)
    p_cum.add_argument("--workers", type=int, default=1)

    p_basin = sub.add_parser("basin", help="rasterize the convergence domain")
    p_basin.add_argument("--problem", required=True)
    p_basin.add_argument("--half-width", default="0.001")
    p_basin.add_argument("--grid-res", type=int, default=101)
    p_basin.add_argument("--tol", type=int, default=60)
    p_basin.add_argument("--precision", type=int, default=160)
    p_basin.add_argument("--max-iter", type=int, default=300)
    p_basin.add_argument("--workers", type=int, default=1)
    for p in (p_single, p_cum, p_basin):
        p.add_argument("--out", default=".", help="output directory")

    sub.add_parser("list-problems", help="show the registry")

    p_verify = sub.add_parser("verify", help="problem self-checks")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--precision", type=int, default=100)

    return parser


def _series(args, defaults: dict):
    """The SeriesConfig of --config, or of the flags given over ``defaults``,
    and the config's criteria (None: the problem's default criteria)."""
    given = {field: getattr(args, field) for _, field, _ in SERIES_FLAGS
             if hasattr(args, field)}
    data, crit = {**defaults, **given}, None
    if getattr(args, "config", None) is not None:
        if given:
            flags = [flag for flag, field, _ in SERIES_FLAGS if field in given]
            raise ValueError(f"--config excludes {', '.join(flags)}")
        import json   # main refuses its JSONDecodeError as a ValueError
        data = json.loads(Path(args.config).read_text())
        crit = data.pop("criteria", None) if isinstance(data, dict) else None
    cfg = SeriesConfig.from_mapping(data)
    return cfg, None if crit is None else AcceptanceCriteria.from_mapping(crit)


def _cell(x, full_digits=None) -> str:
    """An undefined value (None) as -1, an int, str or enum value as it is,
    an mpf to 6 or full_digits digits.  No other code writes -1."""
    if x is None:
        return "-1"
    if isinstance(x, enum.Enum):
        x = x.value
    if isinstance(x, (int, str)):
        return str(x)
    return format_metric(x) if full_digits is None else format_full(x, full_digits)


def _csv(columns, rows, full_digits=None):
    """The lines of a csv file: the columns' names, then each row's cells.
    A row with ``enclosures()`` (a MetricsRow) takes a six-digit lazy cell
    from its bounds where both print alike, else from the value."""
    yield ",".join(name for name, _ in columns) + "\n"
    for row in rows:
        bounds = getattr(row, "enclosures", dict)() if full_digits is None else {}
        yield ",".join((attr in bounds and interval_cell(*bounds[attr]))
                       or _cell(getattr(row, attr), full_digits)
                       for _, attr in columns) + "\n"


def _write(out, files: dict) -> None:
    """Write each named file, bytes or an iterable of text lines, into the
    directory ``out``: each goes to a hidden ``.<name>.partial`` that is
    renamed over ``<name>`` once all are complete.  On any exception, the
    partial files and the directories this call created are removed."""
    out = Path(out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    partial = {name: out / f".{name}.partial" for name in files}
    try:
        for name, data in files.items():
            mode, data = ("wb", [data]) if isinstance(data, bytes) else ("w", data)
            with open(partial[name], mode) as f:
                f.writelines(data)
        for name, path in partial.items():
            path.replace(out / name)
    except BaseException:
        for path in partial.values():
            path.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise


def _cmd_single(args) -> int:
    cfg, _ = _series(args, {"alpha": "0.01", "max_iter": 3000, "m": 1})
    p, opts, u_hat, b_hat, b0 = seeded_start(cfg, 0)
    c, alpha = smp_constants(opts.precision, args.c_const, args.order_alpha)
    if args.method == "bmp":
        rec = bmp_run(p, u_hat, b_hat, opts, b0)
    elif args.method == "bm":
        rec = broyden_run(p, u_hat, b_hat, opts)
    elif args.method == "newton":
        rec = newton_run(p, u_hat, opts)
    else:
        rec = smp_run(p, u_hat, b_hat, c, alpha, opts)
    rows = metrics_from_trace(rec, p)
    _write(args.out, {"metrics.csv": _csv(
        METRICS_COLUMNS, rows, cfg.precision if args.full_precision else None)})
    print(f"{p.name} {args.method}: status={rec.status.value} kbar={rec.kbar} "
          f"F_final={format_metric(rec.trace[-1].f_norm)}")
    return 0


def _cmd_cumulative(args) -> int:
    cfg, crit = _series(args, {})
    summary = cumulative_run(cfg, crit, workers=args.workers)
    row = SimpleNamespace(**vars(cfg), **vars(summary))
    _write(args.out, {"summary.csv": _csv(SUMMARY_CSV, [row])})
    print(f"{cfg.problem}: accepted={summary.accepted} rem={summary.removed} "
          f"({summary.removal_reasons}) it=[{summary.it_min},{summary.it_max}] "
          f"q=[{_cell(summary.q_min)},{_cell(summary.q_max)}]")
    return 0


def _cmd_basin(args) -> int:
    p = get_problem(args.problem)
    grid = GridSpec(half_width=args.half_width, resolution=args.grid_res)
    opts = SolverOptions(precision=PrecisionContext(args.precision),
                         tol_exponent=args.tol, max_iter=args.max_iter)
    image, results = render_basin(p, grid, default_criteria(p.name), opts,
                                  workers=args.workers)
    _write(args.out, {"basin.ppm": image,
                      "basin.csv": _csv(BASIN_COLUMNS, results)})
    print(f"{p.name} basin: resolution={args.grid_res} "
          f"half_width={args.half_width} blue_fraction={blue_fraction(results):.4f}")
    return 0


def _cmd_list_problems(args) -> int:
    for name in list_problems():
        p = get_problem(name)
        kind = ("regular root" if p.singularity_order == 0 else
                f"singularity order {p.singularity_order}")
        print(f"{name}  (n={p.n}, {kind})")
    for family, (_, low, text) in FAMILIES.items():
        print(f"{family}:p  ({text}, {low} <= p <= {MAX_EXPONENT})")
    return 0


def _cmd_verify(args) -> int:
    ctx = PrecisionContext(args.precision)
    p = get_problem(args.problem)
    rng = CounterRng(12345, 0)
    bound = ctx.pow10(-(ctx.decimal_digits // 3) + 5)
    ok = True
    for _ in range(3):
        u = ctx.vec([rng.uniform_symmetric(ctx, 1) / 2 for _ in range(p.n)])
        dev = fd_jacobian_deviation(p, u, ctx)
        ok = ok and dev <= bound
        print(f"jacobian vs central differences: deviation={format_metric(dev)} "
              f"(bound {format_metric(bound)}) {'ok' if dev <= bound else 'FAIL'}")
    try:
        h = ctx.pow10(-20)
        norm = verify_a2(p, h, ctx).norm()
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
    except (ValueError, OSError, LinalgError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

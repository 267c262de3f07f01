"""Command-line interface.

Subcommands: ``critvals``, ``power``, ``test``, ``limit``, ``bahadur``,
``ingest-check``.  Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical error.
"""

import argparse
import sys

import numpy as np

from ._errors import DataError, InputError, NumericalError
from .harness import (
    LIMIT_TOKENS,
    RunConfig,
    cmd_bahadur,
    cmd_critvals,
    cmd_limit,
    cmd_power,
    cmd_test,
    ingest,
    write_rows,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_n(token):
    if token in LIMIT_TOKENS:
        return token
    try:
        return int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sample size {token!r} is not an int or inf/inf*")


def _common(sub, *, data=False, power=False, limit=False):
    sub.add_argument("--d", type=int, default=2, help="ambient dimension (sphere is S^{d-1})")
    sub.add_argument("--n", type=_parse_n, nargs="+", default=[100],
                     help="sample sizes; critvals also accepts inf and inf*")
    sub.add_argument("--beta", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6],
                     help="projection powers")
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--cover-m", type=int, default=None,
                     help="cover size for the maximal projection (default 5000 for d <= 3, "
                          "20000 above); for limit and the inf/inf* rows, the limit-field "
                          "cover (default 1000 for d <= 3, 5000 above)")
    sub.add_argument("--reps", type=int, default=20000,
                     help="null replications; for limit and the inf/inf* rows, the "
                          "limit-field replications")
    sub.add_argument("--seed", type=int, default=20230419)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if power:
        sub.add_argument("--power-reps", type=int, default=5000)
        sub.add_argument("--alt", action="append", default=None,
                         help="alternative spec string, e.g. vmf:kappa=1 or lp:m=3,kappa=1; repeatable")
    if data:
        sub.add_argument("--data", required=True, help="CSV file (lat,lon or x1..xd schema)")
        sub.add_argument("--min-diameter", type=float, default=None)
    if limit:
        sub.add_argument("--method", choices=("kernel", "harmonic"), default="kernel")


DEFAULT_ALTERNATIVES = (
    "uniform",
    "vmf:kappa=0.5",
    "vmf:kappa=1",
    "mixvmf2:p=0.5",
    "bing1:kappa=1",
    "lp:m=3,kappa=1",
    "lp:m=4,kappa=1",
)


def build_parser():
    parser = _Parser(prog="maxproj", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    _common(subs.add_parser("critvals", help="simulate null critical values"))
    _common(subs.add_parser("power", help="empirical power table"), power=True)
    _common(subs.add_parser("test", help="test an observed dataset"), data=True)
    _common(subs.add_parser("limit", help="limit-distribution quantiles"), limit=True)
    b = subs.add_parser("bahadur", help="local efficiency table")
    b.add_argument("--d", type=int, nargs="+", default=[2, 3, 5, 10])
    b.add_argument("--out", default=None)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    i = subs.add_parser("ingest-check", help="validate a data file and print the report")
    i.add_argument("--data", required=True)
    i.add_argument("--min-diameter", type=float, default=None)
    return parser


def _config_from(args):
    return RunConfig(
        d=args.d,
        n=tuple(args.n),
        betas=tuple(args.beta),
        alpha=args.alpha,
        cover_m=args.cover_m,
        null_replications=args.reps,
        power_replications=getattr(args, "power_reps", 5000),
        seed=args.seed,
        workers=args.workers,
        alternatives=tuple(getattr(args, "alt", None) or DEFAULT_ALTERNATIVES),
        min_diameter=getattr(args, "min_diameter", None),
        data=getattr(args, "data", None),
        limit_method=getattr(args, "method", "kernel"),
    )


def _ingest_check(args):
    _, report = ingest(args.data, min_diameter=args.min_diameter)
    print(
        f"schema={report.schema} read={report.rows_read} kept={report.rows_kept} "
        f"repaired={report.rows_repaired} skipped={report.rows_skipped} "
        f"filtered={report.rows_filtered}"
    )


#: subcommand -> function of the parsed arguments returning the rows to write
#: (None when the command prints its own report)
COMMANDS = {
    "critvals": lambda args: cmd_critvals(_config_from(args)),
    "power": lambda args: cmd_power(_config_from(args)),
    "test": lambda args: cmd_test(_config_from(args)),
    "limit": lambda args: cmd_limit(_config_from(args)),
    "bahadur": lambda args: cmd_bahadur(dims=tuple(args.d)),
    "ingest-check": _ingest_check,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = COMMANDS[args.command](args)
        text = None if rows is None else write_rows(rows, fmt=args.format, path=args.out)
    except DataError as exc:
        print(f"maxproj: data error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"maxproj: error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"maxproj: numerical error: {exc}", file=sys.stderr)
        return 3
    if text is not None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

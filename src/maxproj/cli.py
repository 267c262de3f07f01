"""Command-line interface.

Subcommands: ``critvals``, ``power``, ``test``, ``limit``, ``bahadur``,
``ingest-check``.  Exit codes: 0 success, 1 usage error or out of memory,
2 data error, 3 numerical error.
"""

import argparse
import dataclasses
import sys

import numpy as np

from ._errors import DataError, InputError, NumericalError
from .bahadur import STUDY_DIMS
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


#: option -> add_argument keywords.  ``dest`` names the RunConfig field the option
#: fills, and an option left out keeps that field's default; only ``--out`` and
#: ``--format``, which are no run settings, have a default of their own
OPTIONS = {
    "--d": dict(dest="d", type=int, help="ambient dimension (sphere is S^{d-1})"),
    "--n": dict(dest="n", type=_parse_n, nargs="+",
                help="sample sizes; critvals also accepts inf and inf*"),
    "--beta": dict(dest="betas", type=int, nargs="+", help="projection powers"),
    "--alpha": dict(dest="alpha", type=float, help="level of the tests"),
    "--cover-m": dict(dest="cover_m", type=int,
                      help="cover size for the maximal projection (default 5000 for d <= 3, "
                           "20000 above); for limit and the inf/inf* rows, the limit-field "
                           "cover (default 1000 for d <= 3, 5000 above)"),
    "--reps": dict(dest="null_replications", type=int,
                   help="null replications; for limit and the inf/inf* rows, the "
                        "limit-field replications"),
    "--seed": dict(dest="seed", type=int),
    "--workers": dict(dest="workers", type=int,
                      help="worker processes; for limit and the inf/inf* rows, also the "
                           "threads of the field draws"),
    "--out": dict(default=None, help="output path (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--power-reps": dict(dest="power_replications", type=int,
                         help="replications per alternative"),
    "--alt": dict(dest="alternatives", action="append",
                  help="alternative spec string, e.g. vmf:kappa=1 or lp:m=3,kappa=1; "
                       "repeatable (default: the seven of the study)"),
    "--data": dict(dest="data", required=True, help="CSV file (lat,lon or x1..xd schema)"),
    "--min-diameter": dict(dest="min_diameter", type=float),
    "--method": dict(dest="limit_method", choices=("kernel", "harmonic")),
}

_RUN = ("--d", "--n", "--beta", "--alpha", "--cover-m", "--reps", "--seed", "--workers",
        "--out", "--format")

#: simulation subcommand -> (help, the options it registers)
SUBCOMMANDS = {
    "critvals": ("simulate null critical values", _RUN),
    "power": ("empirical power table", (*_RUN, "--power-reps", "--alt")),
    "test": ("test an observed dataset",
             ("--d", "--beta", "--cover-m", "--reps", "--seed", "--workers", "--out", "--format",
              "--data", "--min-diameter")),
    "limit": ("limit-distribution quantiles",
              ("--d", "--beta", "--alpha", "--cover-m", "--reps", "--seed", "--workers", "--out",
               "--format", "--method")),
}

#: (subcommand, option) -> help of an option its command accepts but does not read;
#: each stays because existing scripts pass it
NO_EFFECT = {
    ("test", "--d"): "no effect: the dimension is the data file's",
}

_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def build_parser():
    parser = _Parser(prog="maxproj", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            kwargs = dict(OPTIONS[flag])
            if (name, flag) in NO_EFFECT:
                kwargs["help"] = NO_EFFECT[name, flag]
            sub.add_argument(flag, **kwargs)
    b = subs.add_parser("bahadur", help="local efficiency table")
    b.add_argument("--d", dest="dims", type=int, nargs="+", default=STUDY_DIMS)
    for flag in ("--out", "--format"):
        b.add_argument(flag, **OPTIONS[flag])
    i = subs.add_parser("ingest-check", help="validate a data file and print the report",
                        argument_default=argparse.SUPPRESS)
    for flag in ("--data", "--min-diameter"):
        i.add_argument(flag, **OPTIONS[flag])
    return parser


def _config_from(args):
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _FIELDS})


def _ingest_check(args):
    config = _config_from(args)
    _, report = ingest(config.data, min_diameter=config.min_diameter)
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
    "bahadur": lambda args: cmd_bahadur(dims=tuple(args.dims)),
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
    except MemoryError as exc:
        print(f"maxproj: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"maxproj: numerical error: {exc}", file=sys.stderr)
        return 3
    if text is not None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands map one-to-one onto the library: ``params`` / ``reconstruct``
for the 2^k parameterization, ``simpson`` / ``search`` for collapsibility
analysis, ``canonical`` / ``decompose`` for the constructive procedures,
and ``power`` for sampling-decision probabilities.

Every successful run prints a JSON report wrapping the result with the
tool version and, under ``config``, only the settings the subcommand read
(including the actual seed when ``--seed`` was 0 or omitted and one was
drawn from entropy).  ``--out`` additionally writes the bare artifact
(table or parameter file) so it can be fed back in.

Exit codes: 0 success, 2 invalid input, 3 numeric/convergence failure,
4 search exhausted without a witness.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

import numpy as np

from ._version import __version__
from . import io
from .assoc import DI, evaluate, resolve_kind
from .collapsibility import paradox_search, simpson_scan
from .errors import (
    BintabError,
    ConvergenceError,
    EvaluationError,
    InvalidTableError,
    NonRealizableParamsError,
)
from .paramset import di_inverse, full_params, lor_inverse
from .sampling import (
    even_parity_mass,
    prob_di_positive_exact,
    prob_di_positive_normal,
    simulate_decisions,
    table_with_even_mass,
)
from .structure import canonicalize, decompose
from .table import _check_real

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NOT_FOUND = 4


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _report(command: str, config: dict, result: object) -> None:
    _emit(io.report_envelope(command, config, result))


def _seed(args: argparse.Namespace) -> int:
    """The ``--seed`` value, or a fresh one from OS entropy when it is 0 or omitted."""
    return args.seed or int(np.random.SeedSequence().entropy % (2**63))


def cmd_params(args: argparse.Namespace) -> int:
    if args.out and not args.full:
        raise InvalidTableError("--out writes the parameter file of --full, which was not given")
    table = io.load_table(args.table)
    kind = resolve_kind(args.kind)
    result = (full_params(table, kind) if args.full
              else {"kind": kind.name, "value": evaluate(table, kind)})
    if args.out:
        io.save_paramset(result, args.out)
    _report("params", {}, result)
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    params = io.load_paramset(args.params)
    config = {}
    if params.kind == "di":
        table = di_inverse(params)
    else:
        config = {"tol": args.tol, "max_iter": args.max_iter}
        table = lor_inverse(params, **config)
    if args.out:
        io.save_table(table, args.out)
    _report("reconstruct", config, table)
    return EXIT_OK


def cmd_simpson(args: argparse.Namespace) -> int:
    table = io.load_table(args.table)
    reports = simpson_scan(table, args.kind.split(","))
    result = {
        "reports": reports,
        "any_paradox": any(r.paradox for r in reports),
    }
    _report("simpson", {}, result)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    config = {"seed": _seed(args)} if args.trials else {}  # no trial, no seed used
    witness = paradox_search(args.kind, args.k, args.trials, config.get("seed", args.seed))
    if witness is None:
        _report("search", config, {"witness": None, "trials": args.trials})
        return EXIT_NOT_FOUND
    reports = [r for r in simpson_scan(witness, [args.kind]) if r.paradox]
    if args.out:
        io.save_table(witness, args.out)
    _report("search", config, {"witness": witness, "reports": reports})
    return EXIT_OK


def cmd_canonical(args: argparse.Namespace) -> int:
    table = io.load_table(args.table)
    trace = canonicalize(table)
    if args.out:
        io.save_table(trace.final, args.out)
    _report("canonical", {}, trace)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    table = io.load_table(args.table)
    _report("decompose", {}, decompose(table))
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    config = {"output_format": args.format}
    if (args.p is None) == (args.table is None):
        raise InvalidTableError("power needs exactly one of --p or --table")
    if args.table is not None:
        table = io.load_table(args.table)
        p = even_parity_mass(table)
    else:
        p = _check_real("--p", args.p, 0, 1)
    row = {
        "N": args.N,
        "p": p,
        "exact": prob_di_positive_exact(args.N, p),
        "normal": prob_di_positive_normal(args.N, p),
        "empirical": None,
    }
    if args.mc:
        config["seed"] = _seed(args)
        if args.table is None:
            table = table_with_even_mass(2, p)
        freqs = simulate_decisions(table, args.N, DI, args.mc, config["seed"])
        row["empirical"] = freqs["positive"]
        row["replications"] = args.mc
    if args.format == "csv":
        empirical = "" if row["empirical"] is None else repr(row["empirical"])
        print("N,p,exact,normal,empirical")
        print(f"{row['N']},{row['p']!r},{row['exact']!r},{row['normal']!r},{empirical}")
    else:
        _report("power", config, row)
    return EXIT_OK


@functools.cache  # built once: building takes most of a small command's time
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bintab",
        description="Association parameters of 2^k binary contingency tables.",
    )
    parser.add_argument("--version", action="version", version=f"bintab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="evaluate an association parameter")
    p.add_argument("table")
    p.add_argument("--kind", default="lor")
    p.add_argument("--full", action="store_true",
                   help="emit the complete 2^k parameter set (lor/di only)")
    p.add_argument("--out", default=None, help="with --full, also write the parameter file")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("reconstruct", help="invert a parameter file back to a table")
    p.add_argument("params")
    p.add_argument("--out", default=None, help="also write the table file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=10_000,
                   help="LOR fit: most Newton iterations per dimension's roots, "
                        "and most refinement passes (default: 10000)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simpson", help="layer/collapsed sign scan over every variable")
    p.add_argument("table")
    p.add_argument("--kind", default="lor,di",
                   help="comma-separated kinds (default: lor,di)")
    p.set_defaults(func=cmd_simpson)

    p = sub.add_parser("search", help="random search for a sign-reversal witness")
    p.add_argument("--kind", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--out", default=None, help="write the witness table file")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; 0 or omitted draws one from entropy")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("canonical", help="reduce to the odds-ratio canonical table")
    p.add_argument("table")
    p.add_argument("--out", default=None, help="write the final table file")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("decompose", help="additive zero-DI pair / peak decomposition")
    p.add_argument("table")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("power", help="decision probability for the sign of DI")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="even-parity mass")
    p.add_argument("--table", default=None, help="table file to take the mass from")
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; 0 or omitted draws one from entropy")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_power)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BintabError, OSError) as exc:
        detail = {"type": type(exc).__name__, "message": str(exc), **io.to_jsonable(vars(exc))}
        _emit({"tool": "bintab", "version": __version__, "error": detail})
        numeric = (NonRealizableParamsError, ConvergenceError, EvaluationError)
        return EXIT_NUMERIC if isinstance(exc, numeric) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: every computation as a reproducible command.

Commands
--------
classes   emit a divisor-class table (hodge, canonical-stack, canonical-coarse,
          branch-pullback, kappa1, canonical-m0b, weierstrass)
divisor   emit a low-slope divisor recipe (even, odd, syzygy-g7)
verify    run the bigness verification for the stack or the coarse space
scan      run verifications over a (g, k) rectangle, one cell after another,
          and emit the table
oracle    count transposition factorizations and compare with the
          feasibility criterion

Exit codes: 0 success / Certified, 1 verification failure or no divisor
available, 2 usage or hypothesis error, 3 I/O error (a closed or full stdout
included), 4 internal invariant violated (a bug; stdout may hold part of a
document).  Each error writes one line to stderr; a usage error is one
`error:` line, exits 2 and writes nothing to stdout.  Output goes to stdout,
and the summary line of `scan` to stderr.  Output formats: json (default;
deterministic, key-sorted envelope), csv, text.  In every format the records
are built and checked first, then the rows or lines are made and streamed
1,024 at a time, so exit 4 may follow earlier chunks.
Rationals are read and written as "p/q" strings; floats are never accepted.
The environment variable HURWITZ_MAX_K (default 10) caps k as a resource
guard on the partition lattice.

This module builds no payload: it parses arguments, applies the k cap and
calls one library function per command, and `serialize.emit` writes the
value it returns with the renderer of the requested format.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import NoReturn

from . import __version__
from .bigness import scan, verify_coarse, verify_stack
from .errors import HypothesisError, InputError, InvariantError, ResourceError
from .hurwitz import (
    branch_pullback_boundary,
    canonical_class_coarse,
    canonical_class_stack,
    hodge_class,
)
from .lowslope import (
    DivisorRecipe,
    best_recipe,
    odd_genus_divisor,
    second_hilbert_divisor,
    syzygy_divisor_g7,
    user_divisor,
)
from .partitions import OracleReport
from .serialize import emit, parse_partition, parse_rational, scan_summary_text
from .spaces import canonical_class_m0b, kappa1_m0b, weierstrass_class

DEFAULT_MAX_K = 10


def _check_k_cap(k: int) -> None:
    raw = os.environ.get("HURWITZ_MAX_K", str(DEFAULT_MAX_K))
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"HURWITZ_MAX_K must be an integer, got {raw!r}") from None
    if k > cap:
        raise InputError(f"k = {k} exceeds the HURWITZ_MAX_K cap ({cap})")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        # a usage error is one InputError line; argparse repeats an
        # unrecognized argument as given, line breaks and all
        raise InputError(f"{self.prog}: " + "\\n".join(message.splitlines()))


def _require(args: argparse.Namespace, names: tuple[str, ...], command: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InputError(f"`{command}` requires --{name}")


def _emit(args: argparse.Namespace, argv: list[str], value) -> None:
    emit(value, args.format, argv, sys.stdout.write)


# {subject: (builder, the options it takes, in order)}
_CLASSES = {
    "hodge": (hodge_class, ("g", "k")),
    "canonical-stack": (canonical_class_stack, ("g", "k")),
    "canonical-coarse": (canonical_class_coarse, ("g", "k")),
    "branch-pullback": (branch_pullback_boundary, ("g", "k", "i")),
    "kappa1": (kappa1_m0b, ("b",)),
    "canonical-m0b": (canonical_class_m0b, ("b",)),
    "weierstrass": (weierstrass_class, ("g",)),
}


def _run_classes(args: argparse.Namespace, argv: list[str]) -> int:
    build, names = _CLASSES[args.subject]
    _require(args, names, f"classes {args.subject}")
    if "k" in names:
        _check_k_cap(args.k)
    _emit(args, argv, build(*(getattr(args, name) for name in names)))
    return 0


def _run_divisor(args: argparse.Namespace, argv: list[str]) -> int:
    if args.kind == "syzygy-g7":
        if args.g is not None and args.g != 7:
            raise InputError("the syzygy divisor lives in genus 7")
        recipe = syzygy_divisor_g7()
    else:
        _require(args, ("g",), f"divisor {args.kind}")
        build = second_hilbert_divisor if args.kind == "even" else odd_genus_divisor
        recipe = build(args.g)
    _emit(args, argv, recipe)
    return 0


def _resolve_recipe(args: argparse.Namespace) -> DivisorRecipe | None:
    if args.slope is not None:
        if not args.assume_avoidance:
            raise HypothesisError(
                "a user-supplied slope needs --assume-avoidance to assert the "
                "gonality-locus hypothesis"
            )
        return user_divisor(args.g, parse_rational(args.slope), args.k)
    return best_recipe(args.g, args.k, allow_conditional=args.assume_remark)


def _run_verify(args: argparse.Namespace, argv: list[str]) -> int:
    _check_k_cap(args.k)
    verify = verify_stack if args.mode == "stack" else verify_coarse
    cert = verify(args.g, args.k, _resolve_recipe(args))
    _emit(args, argv, cert)
    return 0 if cert.certified() else 1


def _run_scan(args: argparse.Namespace, argv: list[str]) -> int:
    k_min, k_max = args.k
    g_min, g_max = args.g
    if k_min <= k_max:
        _check_k_cap(k_max)
    table = scan(k_min, k_max, g_min, g_max)
    _emit(args, argv, table)
    sys.stderr.write(scan_summary_text(table))
    return 0


def _run_oracle(args: argparse.Namespace, argv: list[str]) -> int:
    _check_k_cap(args.k)
    mu = parse_partition(args.mu)
    if mu.weight != args.k:
        raise InputError(f"mu = {mu} has weight {mu.weight}, expected k = {args.k}")
    _emit(args, argv, OracleReport.of(mu, args.i))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hurwitzdiv",
        description="Exact divisor-class calculus and bigness certificates "
        "on compactified spaces of branched covers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_classes = sub.add_parser("classes", help="emit a divisor-class table")
    p_classes.add_argument("subject", choices=tuple(_CLASSES))
    p_classes.add_argument("--g", type=int)
    p_classes.add_argument("--k", type=int)
    p_classes.add_argument("--b", type=int)
    p_classes.add_argument("--i", type=int)
    add_format(p_classes)

    p_divisor = sub.add_parser("divisor", help="emit a low-slope divisor recipe")
    p_divisor.add_argument("kind", choices=("even", "odd", "syzygy-g7"))
    p_divisor.add_argument("--g", type=int)
    add_format(p_divisor)

    p_verify = sub.add_parser("verify", help="run a bigness verification")
    p_verify.add_argument("mode", choices=("stack", "coarse"))
    p_verify.add_argument("--g", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--slope", type=str, help='user-supplied slope "p/q"')
    p_verify.add_argument(
        "--assume-avoidance",
        action="store_true",
        help="assert that the user-supplied divisor misses the k-gonal locus",
    )
    p_verify.add_argument(
        "--assume-remark",
        action="store_true",
        help="allow the conditional third-Hilbert-point divisor (unproven hypothesis)",
    )
    add_format(p_verify)

    p_scan = sub.add_parser("scan", help="verify a rectangle of (g, k) cells")
    p_scan.add_argument("--k", type=int, nargs=2, metavar=("K_MIN", "K_MAX"), required=True)
    p_scan.add_argument("--g", type=int, nargs=2, metavar=("G_MIN", "G_MAX"), required=True)
    add_format(p_scan)

    p_oracle = sub.add_parser("oracle", help="count transposition factorizations")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--mu", type=str, required=True, help='partition as "m1,m2,..."')
    p_oracle.add_argument("--i", type=int, required=True)
    add_format(p_oracle)

    return parser


_RUNNERS = {
    "classes": _run_classes,
    "divisor": _run_divisor,
    "verify": _run_verify,
    "scan": _run_scan,
    "oracle": _run_oracle,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    printed = io.StringIO()
    try:
        try:
            # argparse ignores an error writing --help or --version, so their
            # text is written here, where one is reported
            with contextlib.redirect_stdout(printed):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            # only --help and --version exit here; a usage error raises InputError
            sys.stdout.write(printed.getvalue())
            code = int(exc.code or 0)
        else:
            code = _RUNNERS[args.command](args, argv)
        # a closed stdout may show only when the last buffered chunk goes out
        sys.stdout.flush()
        return code
    except (InputError, HypothesisError, ResourceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant error: {exc}\n")
        return 4
    except OSError as exc:
        _discard_stdout()
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


def _discard_stdout() -> None:
    """Point stdout at the null device, so the flush at exit cannot fail again."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):
        pass  # stdout has no file descriptor, so nothing is flushed to one at exit


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line interface: every computation as a reproducible command.

Commands
--------
classes   emit a divisor-class table (hodge, canonical-stack, canonical-coarse,
          branch-pullback, kappa1, canonical-m0b, weierstrass)
divisor   emit a low-slope divisor recipe (even, odd, syzygy-g7)
verify    run the bigness verification for the stack or the coarse space
scan      run verifications over a (g, k) rectangle, one cell after another,
          and emit a CSV table
oracle    count transposition factorizations and compare with the
          feasibility criterion

Exit codes: 0 success / Certified, 1 verification failure or no divisor
available, 2 usage or hypothesis error, 3 I/O error (a closed stdout
included), 4 internal invariant violated (a bug; stdout may hold part of a
document).  Each error writes one line to stderr.  Output formats: json
(default; deterministic, key-sorted envelope, streamed in chunks once its
payload is built), csv, text.  Rationals are
read and written as "p/q" strings; floats are never accepted.  The
environment variable HURWITZ_MAX_K (default 10) caps k as a resource guard
on the partition lattice.

This module builds no payload: it parses arguments, applies the k cap and
hands each command's value to its three renderers in :mod:`.serialize`.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .bigness import (
    MODE_COARSE,
    MODE_STACK,
    no_divisor_certificate,
    scan,
    verify_coarse,
    verify_stack,
)
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
from .partitions import (
    OracleReport,
    count_transposition_factorizations,
    transposition_feasible,
)
from .serialize import (
    certificate_csv,
    certificate_text,
    certificate_to_obj,
    divisor_class_csv,
    divisor_class_text,
    divisor_class_to_obj,
    hurwitz_class_csv,
    hurwitz_class_text,
    hurwitz_class_to_obj,
    oracle_report_csv,
    oracle_report_text,
    oracle_report_to_obj,
    parse_partition,
    parse_rational,
    recipe_csv,
    recipe_text,
    recipe_to_obj,
    scan_summary_text,
    scan_table_csv,
    scan_table_text,
    scan_table_to_obj,
    write_envelope,
)
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


def _require(args: argparse.Namespace, names: list[str], command: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InputError(f"`{command}` requires --{name}")


def _emit(args: argparse.Namespace, argv: list[str], value, to_obj, to_csv, to_text) -> None:
    """Write `value` with the renderer of the requested format; no other runs.

    The JSON payload is built in full before its document is streamed to
    stdout, so an input error writes nothing.
    """
    if args.format == "json":
        write_envelope(argv, value, to_obj(value), sys.stdout.write)
    elif args.format == "csv":
        sys.stdout.write(to_csv(value))
    else:
        sys.stdout.write(to_text(value))


def _run_classes(args: argparse.Namespace, argv: list[str]) -> int:
    subject = args.subject
    if subject in ("hodge", "canonical-stack", "canonical-coarse", "branch-pullback"):
        _require(args, ["g", "k"], "classes")
        _check_k_cap(args.k)
        if subject == "hodge":
            cls = hodge_class(args.g, args.k)
        elif subject == "canonical-stack":
            cls = canonical_class_stack(args.g, args.k)
        elif subject == "canonical-coarse":
            cls = canonical_class_coarse(args.g, args.k)
        else:
            _require(args, ["i"], "classes branch-pullback")
            cls = branch_pullback_boundary(args.g, args.k, args.i)
        _emit(args, argv, cls, hurwitz_class_to_obj, hurwitz_class_csv, hurwitz_class_text)
        return 0
    if subject in ("kappa1", "canonical-m0b"):
        _require(args, ["b"], "classes")
        divisor = kappa1_m0b(args.b) if subject == "kappa1" else canonical_class_m0b(args.b)
    elif subject == "weierstrass":
        _require(args, ["g"], "classes")
        divisor = weierstrass_class(args.g)
    else:
        raise InputError(f"unknown classes subject {subject!r}")
    _emit(args, argv, divisor, divisor_class_to_obj, divisor_class_csv, divisor_class_text)
    return 0


def _run_divisor(args: argparse.Namespace, argv: list[str]) -> int:
    if args.kind == "syzygy-g7":
        if args.g is not None and args.g != 7:
            raise InputError("the syzygy divisor lives in genus 7")
        recipe = syzygy_divisor_g7()
    else:
        _require(args, ["g"], f"divisor {args.kind}")
        build = second_hilbert_divisor if args.kind == "even" else odd_genus_divisor
        recipe = build(args.g)
    _emit(args, argv, recipe, recipe_to_obj, recipe_csv, recipe_text)
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
    _require(args, ["g", "k"], "verify")
    _check_k_cap(args.k)
    recipe = _resolve_recipe(args)
    stack = args.mode == "stack"
    if recipe is None:
        cert = no_divisor_certificate(args.g, args.k, MODE_STACK if stack else MODE_COARSE)
    else:
        cert = (verify_stack if stack else verify_coarse)(args.g, args.k, recipe)
    _emit(args, argv, cert, certificate_to_obj, certificate_csv, certificate_text)
    return 0 if cert.certified() else 1


def _run_scan(args: argparse.Namespace, argv: list[str]) -> int:
    k_min, k_max = args.k
    g_min, g_max = args.g
    if k_min <= k_max:
        _check_k_cap(k_max)
    table = scan(k_min, k_max, g_min, g_max)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(scan_table_csv(table))
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: {exc}\n")
            return 3
        sys.stdout.write(scan_summary_text(table))
        return 0
    _emit(args, argv, table, scan_table_to_obj, scan_table_csv, scan_table_text)
    sys.stderr.write(scan_summary_text(table))
    return 0


def _run_oracle(args: argparse.Namespace, argv: list[str]) -> int:
    _require(args, ["k", "mu", "i"], "oracle")
    _check_k_cap(args.k)
    mu = parse_partition(args.mu)
    if mu.weight != args.k:
        raise InputError(f"mu = {mu} has weight {mu.weight}, expected k = {args.k}")
    count = count_transposition_factorizations(mu, args.i)
    report = OracleReport(mu, args.i, count, transposition_feasible(mu, args.i))
    _emit(args, argv, report, oracle_report_to_obj, oracle_report_csv, oracle_report_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzdiv",
        description="Exact divisor-class calculus and bigness certificates "
        "on compactified spaces of branched covers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_classes = sub.add_parser("classes", help="emit a divisor-class table")
    p_classes.add_argument(
        "subject",
        choices=(
            "hodge",
            "canonical-stack",
            "canonical-coarse",
            "branch-pullback",
            "kappa1",
            "canonical-m0b",
            "weierstrass",
        ),
    )
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
    p_verify.add_argument("--g", type=int)
    p_verify.add_argument("--k", type=int)
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
    p_scan.add_argument("--out", type=str, help="write the CSV table to this path")
    add_format(p_scan)

    p_oracle = sub.add_parser("oracle", help="count transposition factorizations")
    p_oracle.add_argument("--k", type=int)
    p_oracle.add_argument("--mu", type=str, help='partition as "m1,m2,..."')
    p_oracle.add_argument("--i", type=int)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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
    except BrokenPipeError as exc:
        _discard_stdout()
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except OSError as exc:
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

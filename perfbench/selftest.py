#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs a few small hurwitzdiv commands from the checkout's ``src``, confirms
that each genuine output passes its check in ``checks.py``, then corrupts
each output in one small way and confirms that the check rejects it.
Prints one PASS/FAIL line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction

import checks
from checks import CheckError
from run import LAUNCH, SRC
from workloads import envelope_check as payload_check


def hurwitzdiv(*argv: object) -> tuple[list[str], bytes]:
    args = [str(a) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LAUNCH, *args], env=env,
                          capture_output=True, check=True, timeout=120)
    return args, done.stdout


def bump(text: str, delta: Fraction = Fraction(1, 1000)) -> str:
    return str(Fraction(text) + delta)


def edit_payload(data: bytes, edit) -> bytes:
    envelope = json.loads(data)
    edit(envelope["payload"])
    return json.dumps(envelope, sort_keys=True, indent=2).encode() + b"\n"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import hurwitzdiv.serialize as serialize

    failures = 0

    def case(name: str, check, data: bytes, should_pass: bool) -> None:
        nonlocal failures
        try:
            check(data)
            passed = True
            detail = "accepted"
        except CheckError as exc:
            passed = False
            detail = f"rejected: {exc}"
        ok = passed == should_pass
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    for mode in ("stack", "coarse"):
        argv, data = hurwitzdiv("verify", mode, "--g", 10, "--k", 4)
        check = payload_check(argv, "BignessCertificate",
                              lambda p, mode=mode: checks.check_certificate(p, 10, 4, mode))
        case(f"verify {mode}: genuine output", check, data, True)
        case(f"verify {mode}: first margin moved by 1/1000", check,
             edit_payload(data, lambda p: p["indices"][0].update(margin=bump(p["indices"][0]["margin"]))),
             False)
        case(f"verify {mode}: an index row dropped", check,
             edit_payload(data, lambda p: p["indices"].pop(len(p["indices"]) // 2)), False)
        case(f"verify {mode}: alpha moved by 1/1000", check,
             edit_payload(data, lambda p: p.update(alpha=bump(p["alpha"]))), False)
        case(f"verify {mode}: wrong slope", check,
             edit_payload(data, lambda p: p.update(slope=bump(p["slope"]))), False)

    argv, data = hurwitzdiv("verify", "stack", "--g", 10, "--k", 4)
    round_trip = functools.partial(checks.check_certificate_round_trip, package=serialize)
    case("round trip: genuine output", round_trip, data, True)
    alpha = Fraction(json.loads(data)["payload"]["alpha"])
    unreduced = f"{2 * alpha.numerator}/{2 * alpha.denominator}"
    case("round trip: alpha written unreduced", round_trip,
         edit_payload(data, lambda p: p.update(alpha=unreduced)), False)

    _, scan_data = hurwitzdiv("scan", "--k", 3, 5, "--g", 6, 16, "--format", "csv")
    sample = [(g, k) for g in range(6, 17) for k in range(3, 6) if checks.recipe_for(g, k)]
    scan_check = functools.partial(checks.check_scan, k_range=(3, 5), g_range=(6, 16), sample=sample)
    case("scan: genuine output", scan_check, scan_data, True)
    lines = scan_data.decode().splitlines(keepends=True)
    row = next(n for n, line in enumerate(lines) if ",Hilbert2Even," in line)
    fields = lines[row].rstrip("\n").split(",")
    for column, label in ((3, "wrong slope"), (6, "min_margin moved by 1/1000")):
        corrupted = list(fields)
        corrupted[column] = bump(corrupted[column])
        bad = lines[:row] + [",".join(corrupted) + "\n"] + lines[row + 1:]
        case(f"scan: {label}", scan_check, "".join(bad).encode(), False)
    case("scan: a row dropped", scan_check, "".join(lines[:row] + lines[row + 1:]).encode(), False)

    argv, data = hurwitzdiv("divisor", "odd", "--g", 17)
    odd_check = payload_check(argv, "DivisorRecipe", lambda p: checks.check_odd_divisor(p, 17))
    case("divisor odd: genuine output", odd_check, data, True)
    case("divisor odd: wrong slope", odd_check,
         edit_payload(data, lambda p: p.update(slope=bump(p["slope"]))), False)

    even_argv, even_data = hurwitzdiv("divisor", "even", "--g", 12)
    even_check = payload_check(even_argv, "DivisorRecipe", lambda p: checks.check_even_divisor(p, 12))
    case("divisor even: genuine output", even_check, even_data, True)
    case("divisor even: delta_1 moved by 1/1000", even_check,
         edit_payload(even_data, lambda p: p["class"]["coefficients"][2].update(
             value=bump(p["class"]["coefficients"][2]["value"]))), False)

    for k, mu, i in ((6, (3, 2, 1), 3), (5, (1, 1, 1, 1, 1), 2), (6, (4, 2), 5)):
        argv, data = hurwitzdiv("oracle", "--k", k, "--mu", ",".join(map(str, mu)), "--i", i)
        oracle_check = payload_check(argv, "OracleReport",
                                     lambda p, k=k, mu=mu, i=i: checks.check_oracle(p, k, mu, i))
        case(f"oracle {mu} i={i}: genuine output", oracle_check, data, True)
        case(f"oracle {mu} i={i}: count off by one", oracle_check,
             edit_payload(data, lambda p: p.update(count=str(int(p["count"]) + 1))), False)

    for subject in ("hodge", "canonical-coarse"):
        argv, data = hurwitzdiv("classes", subject, "--g", 9, "--k", 5)
        class_check = payload_check(argv, "HurwitzClass",
                                    lambda p, s=subject: checks.check_hurwitz_class(p, s, 9, 5))
        case(f"classes {subject}: genuine output", class_check, data, True)
        case(f"classes {subject}: a coefficient moved by 1/1000", class_check,
             edit_payload(data, lambda p: p["coefficients"][-1].update(
                 value=bump(p["coefficients"][-1]["value"]))), False)

    print(f"{'all checks behave' if not failures else f'{failures} case(s) misbehave'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

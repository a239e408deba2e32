"""The benchmark's workloads: hurwitzdiv command lines generated from a seed.

A workload is a list of operations.  Each operation is one argv for the
``hurwitzdiv`` command, run in a fresh process, plus the check that its
standard output must pass.  A check returns the number of items the
operation produced: scan cells for ``scan_rect``, emitted boundary-index rows
for ``large_g`` and one completed command for ``cmd_mix``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

WORKLOADS = ("scan_rect", "large_g", "cmd_mix")

SCAN_K = (3, 10)
SCAN_G = (6, 60)
SCAN_SAMPLE = 16

LARGE_G = (200, 1000)
LARGE_K = (3, 10)
LARGE_CLASS_CELL = (1000, 10)
# A sub-second command samples the machine's speed over too short a time to
# give a steady median, so large_g runs each of its sub-second certificates
# (g = 200, and g = 1000 at k = 3) this many times per round.
LARGE_SHORT_REPEATS = 4

# cmd_mix draws every parameter from a narrow window, with fixed counts of
# each kind of command, so that a round costs about the same on every seed.
# The O(g^2.5) `divisor odd` tail is the costliest part; its largest command,
# which sets the workload's peak memory, is always g = 199.
ODD_WINDOWS = ((5, 39), (5, 39), (5, 39), (5, 39), (41, 59), (41, 59), (41, 59),
               (111, 119), (111, 119), (199, 199))
EVEN_G = (60, 120)
VERIFY_G = (40, 60)
CLASS_G, CLASS_K = (16, 24), (4, 6)
WEIERSTRASS_G = (30, 40)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[bytes], int]


def build(name: str, seed: int, load_serialize: Callable) -> list[Op]:
    """The operations of one round of workload `name` for `seed`.

    `load_serialize` returns the package's serialize module; only the
    certificate round-trip check calls it, after the timed rounds.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "scan_rect":
        return _scan_rect(rng)
    if name == "large_g":
        return _large_g(rng, load_serialize)
    if name == "cmd_mix":
        return _cmd_mix(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _args(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _scan_rect(rng: random.Random) -> list[Op]:
    served = [(g, k) for g in range(SCAN_G[0], SCAN_G[1] + 1)
              for k in range(SCAN_K[0], SCAN_K[1] + 1) if checks.recipe_for(g, k)]
    sample = sorted(rng.sample(served, SCAN_SAMPLE))
    argv = _args("scan", "--k", *SCAN_K, "--g", *SCAN_G, "--format", "csv")
    return [Op(argv, lambda data: checks.check_scan(data, SCAN_K, SCAN_G, sample))]


def envelope_check(argv, payload_type, check_payload):
    """A check of a command's whole output from a check of its JSON payload."""

    def check(data: bytes) -> int:
        return check_payload(checks.load_envelope(data, list(argv), payload_type))
    return check


def _certificate_op(mode: str, g: int, k: int, load_serialize: Callable) -> Op:
    argv = _args("verify", mode, "--g", g, "--k", k)
    payload_check = envelope_check(
        argv, "BignessCertificate", lambda p: checks.check_certificate(p, g, k, mode))

    def check(data: bytes) -> int:
        rows = payload_check(data)
        checks.check_certificate_round_trip(data, load_serialize())
        return rows
    return Op(argv, check)


def _class_op(subject: str, g: int, k: int) -> Op:
    argv = _args("classes", subject, "--g", g, "--k", k)
    return Op(argv, envelope_check(
        argv, "HurwitzClass", lambda p: checks.check_hurwitz_class(p, subject, g, k)))


def _large_g(rng: random.Random, load_serialize: Callable) -> list[Op]:
    ops = []
    for mode in ("stack", "coarse"):
        for g in LARGE_G:
            for k in LARGE_K:
                short = g < max(LARGE_G) or k < max(LARGE_K)
                ops += [_certificate_op(mode, g, k, load_serialize)] * (LARGE_SHORT_REPEATS if short else 1)
    g, k = LARGE_CLASS_CELL
    ops += [_class_op("hodge", g, k), _class_op("canonical-coarse", g, k)]
    rng.shuffle(ops)
    return ops


def _counted_once(argv, payload_type, check_payload) -> Op:
    """An operation whose item is the completed command itself."""
    inner = envelope_check(argv, payload_type, check_payload)

    def check(data: bytes) -> int:
        inner(data)
        return 1
    return Op(argv, check)


def _oracle_op(rng: random.Random, family: str) -> Op:
    """An oracle query whose count has a closed form (see checks.oracle_expected).

    With d = k - l(mu): "minimal" asks for i = d; "parity" for i = d + 1 and
    "short" for i = d - 2 (or d + 3 when d < 3), whose counts are 0; and
    "identity" for mu = 1^k at i = 2.
    """
    k = rng.randint(3, 10)
    if family == "identity":
        mu, i = (1,) * k, 2
    else:
        mu = rng.choice([p for p in checks.partitions_desc(k) if p != (1,) * k])
        d = checks.min_transpositions(mu)
        i = {"minimal": d, "parity": d + 1, "short": d - 2 if d >= 3 else d + 3}[family]
    argv = _args("oracle", "--k", k, "--mu", ",".join(map(str, mu)), "--i", i)
    return _counted_once(argv, "OracleReport", lambda p: checks.check_oracle(p, k, mu, i))


def _cmd_mix(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for family in ("minimal", "parity", "short", "identity") * 3:
        ops.append(_oracle_op(rng, family))
    for _ in range(8):
        g = rng.randrange(EVEN_G[0], EVEN_G[1] + 1, 2)
        argv = _args("divisor", "even", "--g", g)
        ops.append(_counted_once(argv, "DivisorRecipe", lambda p, g=g: checks.check_even_divisor(p, g)))
    for low, high in ODD_WINDOWS:
        g = rng.randrange(low, high + 1, 2)
        argv = _args("divisor", "odd", "--g", g)
        ops.append(_counted_once(argv, "DivisorRecipe", lambda p, g=g: checks.check_odd_divisor(p, g)))
    # 3 verify commands of each (mode, parity of g); every g here has a divisor
    # and admits the coarse argument for every k <= 10.
    for mode in ("stack", "coarse"):
        for parity in (0, 1):
            for _ in range(3):
                g = rng.randrange(VERIFY_G[0] + parity, VERIFY_G[1] + 1, 2)
                k = rng.randint(3, 10)
                argv = _args("verify", mode, "--g", g, "--k", k)
                ops.append(_counted_once(argv, "BignessCertificate",
                                         lambda p, g=g, k=k, mode=mode: checks.check_certificate(p, g, k, mode)))
    for subject in ("hodge", "canonical-stack", "canonical-coarse") * 2:
        g, k = rng.randint(*CLASS_G), rng.randint(*CLASS_K)
        argv = _args("classes", subject, "--g", g, "--k", k)
        ops.append(_counted_once(argv, "HurwitzClass",
                                 lambda p, s=subject, g=g, k=k: checks.check_hurwitz_class(p, s, g, k)))
    for _ in range(2):
        g = rng.randint(*WEIERSTRASS_G)
        argv = _args("classes", "weierstrass", "--g", g)
        ops.append(_counted_once(argv, "DivisorClass", lambda p, g=g: checks.check_weierstrass(p, g)))
    rng.shuffle(ops)
    return ops

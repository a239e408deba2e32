"""Independent checks of hurwitzdiv outputs.

Everything here is re-derived from the mathematics, not imported from the
package: partitions are enumerated afresh, feasibility is the
transposition-count rule, and every coefficient, margin and slope is written
out from its closed form.  The one exception is the serialization round trip,
which by definition exercises the package's own decoder and encoder.

Each ``check_*`` function raises :class:`CheckError` on the first mismatch
and returns the number of items it verified.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

F = Fraction


class CheckError(Exception):
    """An output disagrees with the independently computed value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- combinatorics -----------------------------------------------------------


@lru_cache(maxsize=None)
def partitions_desc(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k as weakly decreasing tuples, in descending lexicographic order."""
    found: set[tuple[int, ...]] = set()
    stack = [((), k)]
    while stack:
        prefix, left = stack.pop()
        if left == 0:
            found.add(prefix)
            continue
        top = prefix[-1] if prefix else left
        for part in range(1, min(top, left) + 1):
            stack.append((prefix + (part,), left - part))
    return tuple(sorted(found, reverse=True))


def min_transpositions(mu: tuple[int, ...]) -> int:
    """A cycle of length m needs m - 1 transpositions, so mu needs k - l(mu)."""
    return sum(mu) - len(mu)


def factorizable(mu: tuple[int, ...], i: int) -> bool:
    """A permutation of type mu is a product of i transpositions iff i >= d and i = d mod 2."""
    d = min_transpositions(mu)
    return i >= d and (i - d) % 2 == 0


@lru_cache(maxsize=None)
def index_rows(g: int, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Feasible boundary labels (i, mu), 2 <= i <= b/2, both sides realised."""
    b = 2 * g + 2 * k - 2
    return tuple(
        (i, mu)
        for i in range(2, b // 2 + 1)
        for mu in partitions_desc(k)
        if factorizable(mu, i) and factorizable(mu, b - i)
    )


@lru_cache(maxsize=None)
def lcm(mu: tuple[int, ...]) -> int:
    return math.lcm(*mu)


@lru_cache(maxsize=None)
def harmonic(mu: tuple[int, ...]) -> Fraction:
    return sum((F(1, m) for m in mu), F(0))


def has_two(mu: tuple[int, ...]) -> int:
    """Sharp indicator: the cover has a 2:1 component over the node iff mu has a part 2."""
    return 1 if 2 in mu else 0


# -- coefficient closed forms ------------------------------------------------


def hodge(g: int, k: int, i: int, mu: tuple[int, ...]) -> Fraction:
    b = 2 * g + 2 * k - 2
    return lcm(mu) * (F(i * (b - i), 8 * (b - 1)) - (k - harmonic(mu)) / 12)


def canonical_stack(g: int, k: int, i: int, mu: tuple[int, ...]) -> Fraction:
    b = 2 * g + 2 * k - 2
    return lcm(mu) * (F(i * (b - i), b - 1) - 1) - 1


def canonical_coarse(g: int, k: int, i: int, mu: tuple[int, ...]) -> Fraction:
    return canonical_stack(g, k, i, mu) - has_two(mu)


def kappa1_pullback(g: int, k: int, i: int, mu: tuple[int, ...]) -> Fraction:
    b = 2 * g + 2 * k - 2
    return lcm(mu) * F((i - 1) * (b - i - 1), b - 1)


def sigma_bound(k: int, mu: tuple[int, ...], coarse: bool) -> int:
    """Asserted boundary-multiplicity bound: 2 at 1^k, 1 (2 on the 2:1 part) at (2,1^(k-2))."""
    if mu == (1,) * k:
        return 2
    if mu == (2,) + (1,) * (k - 2):
        return 2 if coarse else 1
    return 0


def stack_margin(g: int, k: int, s: Fraction, i: int, mu: tuple[int, ...]) -> Fraction:
    """Coefficient of K_stack - s*lambda + sigma at (i, mu)."""
    return canonical_stack(g, k, i, mu) - s * hodge(g, k, i, mu) + sigma_bound(k, mu, False)


def coarse_margin(g: int, k: int, i: int, mu: tuple[int, ...]) -> Fraction:
    """Coefficient of K_coarse - 8*lambda + sigma at (i, mu): the s -> 8 limit."""
    return canonical_coarse(g, k, i, mu) - 8 * hodge(g, k, i, mu) + sigma_bound(k, mu, True)


def coarse_zero_set(k: int) -> set[tuple[int, ...]]:
    candidates = [(1,) * k, (2,) + (1,) * (k - 2), (2, 2) + (1,) * (k - 4)]
    return {mu for mu in candidates if sum(mu) == k}


def even_slope(g: int) -> Fraction:
    return 7 + F(6, g)


def odd_slope(g: int) -> Fraction:
    return F(
        2 * (7 * g**4 + 43 * g**3 + 7 * g**2 - 7 * g - 2),
        g * (g + 1) * (g + 3) * (2 * g - 1),
    )


def recipe_for(g: int, k: int) -> tuple[str, Fraction] | None:
    """The built-in divisor serving a cell: its name and slope, or None."""
    if g % 2 == 0 and g >= 8:
        return "Hilbert2Even", even_slope(g)
    if g % 2 == 1 and g >= 15:
        return "OddPushforward", odd_slope(g)
    if (g, k) == (7, 4):
        return "SyzygyG7", F(54, 7)
    return None


def coarse_applies(g: int, k: int) -> bool:
    return 3 <= k and 2 * k <= g + 2


def oracle_expected(k: int, mu: tuple[int, ...], i: int) -> int:
    """Transposition factorization counts in the families with a closed form.

    Hurwitz's formula gives (k-l)! prod m^(m-2)/(m-1)! minimal factorizations;
    t*t = 1 gives k(k-1)/2 factorizations of the identity into two; a count
    is 0 whenever the transposition-count rule fails.
    """
    d = min_transpositions(mu)
    if not factorizable(mu, i):
        return 0
    if i == d:
        value = F(math.factorial(d))
        for m in mu:
            value *= F(m) ** (m - 2) / math.factorial(m - 1)
        expect(value.denominator == 1, f"non-integral Hurwitz count for {mu}")
        return int(value)
    if mu == (1,) * k and i == 2:
        return k * (k - 1) // 2
    raise ValueError(f"no closed form for k={k} mu={mu} i={i}")


# -- output parsing ----------------------------------------------------------


def load_envelope(data: bytes, argv: list[str], payload_type: str) -> dict:
    envelope = json.loads(data)
    expect(envelope.get("command") == "hurwitzdiv " + " ".join(argv),
           f"envelope command {envelope.get('command')!r} does not echo {argv}")
    expect(envelope.get("payload_type") == payload_type,
           f"payload_type {envelope.get('payload_type')!r}, expected {payload_type}")
    expect(envelope.get("format") == "json", "envelope format is not json")
    return envelope["payload"]


def rational(text: str) -> Fraction:
    expect(isinstance(text, str) and text != "", f"not a rational string: {text!r}")
    return F(text)


# -- certificates ------------------------------------------------------------


def check_certificate(payload: dict, g: int, k: int, mode: str) -> int:
    """Every row, margin, bound, note, alpha and the verdict of one certificate."""
    coarse = mode == "coarse"
    expect(payload["g"] == g and payload["k"] == k, f"certificate for {payload['g']},{payload['k']}")
    expect(payload["mode"] == ("Coarse" if coarse else "Stack"), f"mode {payload['mode']}")
    found = recipe_for(g, k)
    expect(found is not None, f"no recipe expected at ({g}, {k})")
    s = found[1]
    expect(rational(payload["slope"]) == s, f"slope {payload['slope']} != {s}")
    rows = payload["indices"]
    expected_rows = index_rows(g, k)
    expect(len(rows) == len(expected_rows),
           f"{len(rows)} index rows, expected {len(expected_rows)}")
    alpha = None
    lowest = None
    zeros: set[tuple[int, ...]] = set()
    # Emitted rationals are canonical "p/q" strings, so equal values are equal strings.
    for row, (i, mu) in zip(rows, expected_rows):
        expect((row["i"], tuple(row["mu"])) == (i, mu),
               f"row ({row['i']}, {row['mu']}) where ({i}, {list(mu)}) belongs")
        margin = coarse_margin(g, k, i, mu) if coarse else stack_margin(g, k, s, i, mu)
        expect(row["margin"] == str(margin),
               f"margin at ({i}, {list(mu)}) is {row['margin']}, expected {margin}")
        expect(row["sigma_bound"] == str(sigma_bound(k, mu, coarse)),
               f"sigma_bound at ({i}, {list(mu)})")
        expect(row["sharp"] == (has_two(mu) if coarse else 0), f"sharp at ({i}, {list(mu)})")
        note = "absorbed by ample term" if coarse and margin == 0 else ""
        expect(row["note"] == note, f"note {row['note']!r} at ({i}, {list(mu)})")
        if margin == 0:
            zeros.add(mu)
        lowest = margin if lowest is None else min(lowest, margin)
        ratio = margin / kappa1_pullback(g, k, i, mu)
        alpha = ratio if alpha is None else min(alpha, ratio)
    expect(payload["alpha"] == str(alpha), f"alpha {payload['alpha']} != {alpha}")
    if coarse:
        expect(zeros == coarse_zero_set(k), f"coarse zero set {sorted(zeros)}")
    certified = lowest >= 0 and (coarse or alpha > 0)
    expect(certified and payload["verdict"] == "Certified", f"verdict {payload['verdict']}")
    expect(len(payload["hypotheses"]) > 0, "certificate records no hypotheses")
    return len(rows)


def check_certificate_round_trip(data: bytes, package) -> None:
    """Decoding and re-encoding the payload with the package reproduces the bytes."""
    envelope = json.loads(data)
    cert = package.certificate_from_obj(envelope["payload"])
    envelope["payload"] = package.certificate_to_obj(cert)
    again = package.dumps_canonical(envelope).encode()
    expect(again == data, "certificate round trip does not reproduce the payload bytes")


# -- class tables ------------------------------------------------------------

_HURWITZ_SUBJECTS = {
    "hodge": (hodge, False),
    "canonical-stack": (canonical_stack, False),
    "canonical-coarse": (canonical_coarse, True),
}


def check_hurwitz_class(payload: dict, subject: str, g: int, k: int) -> int:
    formula, marked = _HURWITZ_SUBJECTS[subject]
    expect(payload["g"] == g and payload["k"] == k, "class table for the wrong cell")
    expected = []
    for i, mu in index_rows(g, k):
        value = formula(g, k, i, mu)
        if value:
            expected.append((i, mu, value, bool(marked and has_two(mu))))
    rows = payload["coefficients"]
    expect(len(rows) == len(expected), f"{len(rows)} coefficients, expected {len(expected)}")
    for row, (i, mu, value, prime) in zip(rows, expected):
        expect((row["i"], tuple(row["mu"])) == (i, mu),
               f"coefficient row ({row['i']}, {row['mu']}) where ({i}, {list(mu)}) belongs")
        expect(row["value"] == str(value),
               f"{subject} at ({i}, {list(mu)}) is {row['value']}, expected {value}")
        expect(row["prime"] is prime, f"prime flag at ({i}, {list(mu)})")
    return len(rows)


def check_weierstrass(payload: dict, g: int) -> int:
    expected = [("lambda", F(-1)), ("psi", F(g * (g + 1), 2))]
    expected += [(f"delta_{i}", -F((g - i + 1) * (g - i), 2)) for i in range(1, g)]
    return _check_divisor_class(payload, {"kind": "MgOnePointed", "g": g}, expected)


def _check_divisor_class(payload: dict, space: dict, expected: list[tuple[str, Fraction]]) -> int:
    expect(payload["space"] == space, f"space {payload['space']}, expected {space}")
    got = [(entry["basis"], rational(entry["value"])) for entry in payload["coefficients"]]
    expect(got == expected, f"class coefficients {got[:4]}... differ from {expected[:4]}...")
    return len(got)


# -- divisors ----------------------------------------------------------------


def slope_of(coefficients: list[dict], g: int) -> Fraction:
    """a / min b_i for a class a*lambda - sum b_i delta_i on the genus-g space."""
    values = {entry["basis"]: rational(entry["value"]) for entry in coefficients}
    deltas = [-values.get(f"delta_{i}", F(0)) for i in range(g // 2 + 1)]
    expect(values.get("lambda", F(0)) > 0 and min(deltas) > 0, "slope undefined")
    return values["lambda"] / min(deltas)


def check_even_divisor(payload: dict, g: int) -> int:
    scale = F(g * (g + 1), 2)
    expected = [("lambda", scale * even_slope(g)), ("delta_0", -scale),
                ("delta_1", -scale * (5 - F(6, g)))]
    expected += [(f"delta_{j}", -scale) for j in range(2, g // 2 + 1)]
    expect(payload["name"] == "Hilbert2Even" and payload["g"] == g, "even divisor header")
    expect(rational(payload["slope"]) == even_slope(g), f"even slope {payload['slope']}")
    return _check_divisor_class(payload["class"], {"kind": "Mg", "g": g}, expected)


def check_odd_divisor(payload: dict, g: int) -> int:
    expect(payload["name"] == "OddPushforward" and payload["g"] == g, "odd divisor header")
    s = odd_slope(g)
    expect(rational(payload["slope"]) == s, f"odd slope {payload['slope']} != {s}")
    expect(payload["class"]["space"] == {"kind": "Mg", "g": g}, "odd divisor space")
    expect(slope_of(payload["class"]["coefficients"], g) == s,
           "odd divisor class does not have the closed-form slope")
    return 1


# -- oracle ------------------------------------------------------------------


def check_oracle(payload: dict, k: int, mu: tuple[int, ...], i: int) -> int:
    expect(payload["k"] == k and tuple(payload["mu"]) == mu and payload["i"] == i,
           "oracle report for the wrong input")
    count = oracle_expected(k, mu, i)
    expect(payload["count"] == str(count), f"oracle count {payload['count']} != {count}")
    expect(payload["feasible"] is factorizable(mu, i), "oracle feasibility flag")
    expect(payload["agree"] is True, "oracle reports disagreement")
    return 1


# -- scan tables -------------------------------------------------------------

SCAN_HEADER = ["g", "k", "recipe", "slope", "stack_verdict", "coarse_verdict", "min_margin"]


def parse_scan_csv(data: bytes) -> list[dict]:
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    expect(header == SCAN_HEADER, f"scan header {header}")
    return [dict(zip(header, row)) for row in reader]


def check_scan(data: bytes, k_range: tuple[int, int], g_range: tuple[int, int],
               sample: list[tuple[int, int]]) -> int:
    """Verdicts and slopes on every cell; min_margin recomputed on the sampled cells."""
    rows = parse_scan_csv(data)
    cells = [(g, k) for g in range(g_range[0], g_range[1] + 1)
             for k in range(k_range[0], k_range[1] + 1)]
    expect(len(rows) == len(cells), f"{len(rows)} scan rows, expected {len(cells)}")
    by_cell = {}
    for row, (g, k) in zip(rows, cells):
        expect((int(row["g"]), int(row["k"])) == (g, k), f"scan row {row['g']},{row['k']} out of order")
        found = recipe_for(g, k)
        if found is None:
            expect(row["recipe"] == "none" and row["slope"] == "" and row["min_margin"] == "",
                   f"cell ({g}, {k}) should have no divisor")
            expect(row["stack_verdict"] == "NoDivisor", f"stack verdict at ({g}, {k})")
            coarse = "NoDivisor" if coarse_applies(g, k) else "n/a"
        else:
            name, s = found
            expect(row["recipe"] == name, f"recipe {row['recipe']} at ({g}, {k})")
            expect(rational(row["slope"]) == s, f"slope {row['slope']} at ({g}, {k}), expected {s}")
            expect(row["stack_verdict"] == "Certified", f"stack verdict at ({g}, {k})")
            coarse = "Certified" if coarse_applies(g, k) else "n/a"
        expect(row["coarse_verdict"] == coarse, f"coarse verdict {row['coarse_verdict']} at ({g}, {k})")
        by_cell[(g, k)] = row
    for g, k in sample:
        s = recipe_for(g, k)[1]
        expected = min(stack_margin(g, k, s, i, mu) for i, mu in index_rows(g, k))
        got = rational(by_cell[(g, k)]["min_margin"])
        expect(got == expected, f"min_margin at ({g}, {k}) is {got}, expected {expected}")
    return len(rows)

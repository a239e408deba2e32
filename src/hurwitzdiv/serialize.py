"""Lossless JSON / CSV / text encodings of every value the package emits.

Every payload layout lives here; the command-line interface builds none.
`emit(value, fmt, argv, write)` writes the value a command returns, with
the renderer that `_RENDERERS` pairs with its type for the format.  That
table is the one list of emitted payload types; a `QuadraticClass` is never
emitted and has no JSON codec.

Rationals travel as canonical strings "p/q" with gcd(p, q) = 1 and q > 0
(plain "p" for integers); no floating point ever enters json or csv output.
JSON documents come from one writer, `write_canonical(obj, write)`: the text
it passes to `write` is that of `json.dumps(obj, sort_keys=True, indent=2)`
plus a final newline, so identical inputs yield byte-identical documents.
It writes a list of more than 1,024 items one chunk of items at a time, so
the command line streams a large certificate to stdout without holding its
whole text; `dumps_canonical` collects the same chunks into one string.  It
writes only str, int, bool, None, list, map and dict with str keys, and
raises InvariantError on any other value, a float or a tuple included,
possibly after earlier chunks have been written.  A map is an array,
consumed once as it is written: `emit` passes the row tables of a
certificate and of a Hurwitz class as maps, so no command holds all of its
JSON rows.  Every `*_to_obj` has a `*_from_obj` inverse (its row tables are
lists) and the round trip is exact, NoDivisor certificates included; only
the oracle report has no decoder.  The csv and text renderers are
generators of LF-ended lines, which `emit` writes 1,024 at a time: every
format goes out 1,024 rows or lines at a time, and an error while making
one may follow earlier chunks, in any format.  CSV has a header row, and
its columns are keys of the JSON rows (the cover-space class table adds
m_mu).  Text rendering is for human eyes only and may add a
6-significant-digit decimal hint next to the exact value.
"""

from __future__ import annotations

import csv
import functools
import re
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .bigness import (
    SCAN_COARSE_OUT_OF_RANGE,
    SCAN_NO_RECIPE,
    VERDICT_CERTIFIED,
    VERDICT_FAILED,
    VERDICT_NO_DIVISOR,
    BignessCertificate,
    IndexMargin,
    ScanRow,
    ScanTable,
)
from .errors import InputError, InvariantError
from .hurwitz import HurwitzClass, boundary_index
from .lowslope import RECIPE_NAMES, DivisorRecipe
from .partitions import OracleReport, Partition, partition_table
from .spaces import KIND_M0B, DivisorClass, Space


def rational_str(value: Fraction) -> str:
    # a Fraction or an int already prints canonically; a bool would print "True"
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    return str(Fraction(value))


_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; decimal and float forms are rejected everywhere.

    Anything but a string, such as a JSON number, raises InputError.
    """
    if not isinstance(text, str):
        raise InputError(f"a rational number must be the string p or p/q, got {text!r}")
    text = text.strip()
    # without isascii, \d would also match the digits of other scripts
    if not (text.isascii() and _RATIONAL_PATTERN.fullmatch(text)):
        raise InputError(f"not a rational number (expected p or p/q): {text!r}")
    try:
        return Fraction(text)
    except (ZeroDivisionError, ValueError) as exc:  # ValueError: past int's digit limit
        raise InputError(f"not a rational number: {text!r}") from exc


def _optional_rational_str(value: Fraction | None) -> str:
    return rational_str(value) if value is not None else ""


def _parse_optional_rational(text: str) -> Fraction | None:
    return None if text == "" else parse_rational(text)


def rational_text(value: Fraction) -> str:
    """Exact value plus a decimal hint, for text output only."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value)
    return f"{value} (~{float(value):.6g})"


def _csv_cell(value):
    # a JSON list such as a partition prints as [2,1], the form of str(Partition)
    return "[" + ",".join(map(str, value)) + "]" if isinstance(value, list) else value


def json_rows_csv(columns: list[str], rows: Iterable[dict]) -> Iterator[str]:
    """The LF-ended lines of a CSV document of the named keys of JSON rows, header first."""
    line: list[str] = []  # the writer passes each row's line to `write` in one call
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for cells in chain([columns], ([_csv_cell(row[key]) for key in columns] for row in rows)):
        writer.writerow(cells)
        yield line.pop()


def parse_partition(text: str) -> Partition:
    """Parse comma-separated ASCII-digit parts such as "2,1,1"; an empty field is an error."""
    pieces = [piece.strip() for piece in text.split(",")]
    # int() alone would also read a sign, "_" and the digits of other scripts
    if all(piece.isascii() and piece.isdigit() for piece in pieces):
        try:
            return Partition.of(int(piece) for piece in pieces)
        except ValueError:  # a part past int's digit limit
            pass
    raise InputError(f"not a partition: {text!r}")


def _decoder(decode):
    """Report a missing key or a field of the wrong JSON type as InputError."""

    @functools.wraps(decode)
    def checked(obj: dict):
        try:
            return decode(obj)
        except KeyError as exc:
            raise InputError(f"{decode.__name__}: missing key {exc}") from None
        except (TypeError, AttributeError, ValueError) as exc:
            raise InputError(f"{decode.__name__}: a field has the wrong type ({exc})") from None

    return checked


def _field(obj: dict, key: str, kind: type):
    """`obj[key]` if its JSON type is exactly `kind`, so a bool is no int."""
    value = obj[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _strings(obj: dict, key: str) -> tuple[str, ...]:
    """`obj[key]` as a tuple, if it is a JSON list of strings."""
    values = tuple(_field(obj, key, list))
    if any(type(value) is not str for value in values):
        raise TypeError(f"{key!r} must be a list of strings, got {list(values)!r}")
    return values


# -- spaces and divisor classes ---------------------------------------------


def space_to_obj(space: Space) -> dict:
    if space.kind == KIND_M0B:
        return {"kind": space.kind, "b": space.b}
    return {"kind": space.kind, "g": space.g}


def space_from_obj(obj: dict) -> Space:
    kind = obj.get("kind")
    if kind == KIND_M0B:
        return Space(kind, b=obj.get("b"))
    return Space(kind, g=obj.get("g"))


def divisor_class_to_obj(divisor: DivisorClass) -> dict:
    return {
        "space": space_to_obj(divisor.space),
        "coefficients": [
            {"basis": label, "value": rational_str(value)} for label, value in divisor.coeffs
        ],
    }


@_decoder
def divisor_class_from_obj(obj: dict) -> DivisorClass:
    space = space_from_obj(obj["space"])
    coeffs = {
        entry["basis"]: parse_rational(entry["value"])
        for entry in _field(obj, "coefficients", list)
    }
    return DivisorClass.make(space, coeffs)


def divisor_class_csv(divisor: DivisorClass) -> Iterator[str]:
    return json_rows_csv(["basis", "value"], divisor_class_to_obj(divisor)["coefficients"])


def _coefficient_lines(divisor: DivisorClass) -> Iterator[str]:
    return (f"  {label:12s} {rational_text(value)}\n" for label, value in divisor.coeffs)


def _hypotheses_lines(hypotheses: tuple[str, ...]) -> Iterator[str]:
    return chain(["hypotheses:\n"], (f"  - {h}\n" for h in hypotheses))


def divisor_class_text(divisor: DivisorClass) -> Iterator[str]:
    yield f"space: {divisor.space}\n"
    yield from _coefficient_lines(divisor)


# -- Hurwitz classes ---------------------------------------------------------


def _coefficient_rows(cls: HurwitzClass) -> map:
    """The JSON rows of the coefficients, each made as it is drawn."""

    def row(coefficient: tuple[tuple[int, tuple[int, ...]], Fraction]) -> dict:
        (i, parts), value = coefficient
        return {
            "i": i,
            "mu": list(parts),
            "prime": (i, parts) in cls.branch_marks,
            "value": rational_str(value),
        }

    return map(row, cls.coeffs)


def _hurwitz_class_obj(cls: HurwitzClass, rows: Callable[[map], Iterable] = iter) -> dict:
    return {"g": cls.g, "k": cls.k, "coefficients": rows(_coefficient_rows(cls))}


def hurwitz_class_to_obj(cls: HurwitzClass) -> dict:
    return _hurwitz_class_obj(cls, list)


@_decoder
def hurwitz_class_from_obj(obj: dict) -> HurwitzClass:
    coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    marks: set[tuple[int, tuple[int, ...]]] = set()
    for entry in _field(obj, "coefficients", list):
        key = (_field(entry, "i", int), Partition(tuple(entry["mu"])).parts)
        coeffs[key] = parse_rational(entry["value"])
        # an absent flag means unmarked; a present one must be a JSON bool
        if "prime" in entry and _field(entry, "prime", bool):
            marks.add(key)
    return HurwitzClass.make(obj["g"], obj["k"], coeffs, marks)


def hurwitz_class_csv(cls: HurwitzClass) -> Iterator[str]:
    # m_mu is the one column that the JSON rows do not carry
    lcms = {row.mu.parts: row.lcm for row in partition_table(cls.k)}
    rows = ({**row, "m_mu": lcms[tuple(row["mu"])]} for row in _coefficient_rows(cls))
    return json_rows_csv(["i", "mu", "m_mu", "value"], rows)


def hurwitz_class_text(cls: HurwitzClass) -> Iterator[str]:
    yield f"cover space: g={cls.g}, k={cls.k}\n"
    for (i, parts), value in cls.coeffs:
        mark = "'" if (i, parts) in cls.branch_marks else ""
        yield f"  i={i:<3d} mu={str(Partition(parts)):12s}{mark} {rational_text(value)}\n"


# -- recipes -----------------------------------------------------------------


def recipe_to_obj(recipe: DivisorRecipe) -> dict:
    return {
        "name": recipe.name,
        "g": recipe.g,
        "slope": rational_str(recipe.slope),
        "class": divisor_class_to_obj(recipe.divisor_class),
        "hypotheses": list(recipe.hypotheses),
        "avoided_gonality": recipe.avoided_gonality,
    }


@_decoder
def recipe_from_obj(obj: dict) -> DivisorRecipe:
    return DivisorRecipe(
        name=obj["name"],
        g=obj["g"],
        divisor_class=divisor_class_from_obj(obj["class"]),
        slope=parse_rational(obj["slope"]),
        hypotheses=_strings(obj, "hypotheses"),
        avoided_gonality=obj["avoided_gonality"],
    )


def recipe_csv(recipe: DivisorRecipe) -> Iterator[str]:
    return divisor_class_csv(recipe.divisor_class)


def recipe_text(recipe: DivisorRecipe) -> Iterator[str]:
    yield f"divisor: {recipe.name} (g={recipe.g})\n"
    yield f"slope:   {rational_text(recipe.slope)}\n"
    yield "class:\n"
    yield from _coefficient_lines(recipe.divisor_class)
    yield from _hypotheses_lines(recipe.hypotheses)


# -- certificates ------------------------------------------------------------


def _index_row(entry: IndexMargin) -> dict:
    return {
        "i": entry.index.i,
        "mu": list(entry.index.mu.parts),
        "margin": rational_str(entry.margin),
        "sigma_bound": rational_str(entry.sigma_bound),
        "sharp": entry.sharp,
        "note": entry.note,
    }


def _certificate_obj(cert: BignessCertificate, rows: Callable[[map], Iterable] = iter) -> dict:
    return {
        "g": cert.g,
        "k": cert.k,
        "mode": cert.mode,
        "slope": _optional_rational_str(cert.slope_used),
        "alpha": _optional_rational_str(cert.alpha),
        "indices": rows(map(_index_row, cert.per_index)),
        "hypotheses": list(cert.hypotheses),
        "verdict": cert.verdict,
    }


def certificate_to_obj(cert: BignessCertificate) -> dict:
    return _certificate_obj(cert, list)


@_decoder
def certificate_from_obj(obj: dict) -> BignessCertificate:
    entries = tuple(
        IndexMargin(
            index=boundary_index(obj["g"], obj["k"], entry["i"], tuple(entry["mu"])),
            margin=parse_rational(entry["margin"]),
            sigma_bound=parse_rational(entry["sigma_bound"]),
            sharp=_field(entry, "sharp", int),
            note=_field(entry, "note", str),
        )
        for entry in _field(obj, "indices", list)
    )
    cert = BignessCertificate(
        g=obj["g"],
        k=obj["k"],
        mode=obj["mode"],
        slope_used=_parse_optional_rational(obj["slope"]),
        per_index=entries,
        alpha=_parse_optional_rational(obj["alpha"]),
        hypotheses=_strings(obj, "hypotheses"),
        verdict=obj["verdict"],
    )
    if any(entry.sharp not in (0, 1) for entry in entries):
        raise InputError("certificate_from_obj: a sharp flag must be 0 or 1")
    if not cert.consistent():
        raise InputError(
            f"certificate_from_obj: the verdict {cert.verdict!r} disagrees with the "
            "certificate's own margins and alpha"
        )
    return cert


def certificate_csv(cert: BignessCertificate) -> Iterator[str]:
    columns = ["i", "mu", "margin", "sigma_bound", "sharp", "note"]
    return json_rows_csv(columns, map(_index_row, cert.per_index))


def certificate_text(cert: BignessCertificate) -> Iterator[str]:
    yield f"bigness certificate: mode={cert.mode}, g={cert.g}, k={cert.k}\n"
    if cert.verdict == VERDICT_NO_DIVISOR:
        yield "verdict: NoDivisor (no built-in divisor of slope below 8 serves this cell)\n"
        return
    yield f"slope: {rational_text(cert.slope_used)}\n"
    yield f"alpha: {rational_text(cert.alpha)}\n"
    yield f"verdict: {cert.verdict}\n"
    yield "margins:\n"
    for entry in cert.per_index:
        note = f"  [{entry.note}]" if entry.note else ""
        yield (
            f"  i={entry.index.i:<3d} mu={str(entry.index.mu):12s} "
            f"margin {rational_text(entry.margin)}{note}\n"
        )
    yield from _hypotheses_lines(cert.hypotheses)


# -- scan tables -------------------------------------------------------------


def scan_table_to_obj(table: ScanTable) -> dict:
    return {
        "rows": [
            {
                "g": row.g,
                "k": row.k,
                "recipe": row.recipe,
                "slope": _optional_rational_str(row.slope),
                "stack_verdict": row.stack_verdict,
                "coarse_verdict": row.coarse_verdict,
                "min_margin": _optional_rational_str(row.min_margin),
            }
            for row in table.rows
        ]
    }


_VERDICTS = (VERDICT_CERTIFIED, VERDICT_FAILED, VERDICT_NO_DIVISOR)


def _scan_row_from_obj(entry: dict) -> ScanRow:
    row = ScanRow(
        g=_field(entry, "g", int),
        k=_field(entry, "k", int),
        recipe=_field(entry, "recipe", str),
        slope=_parse_optional_rational(entry["slope"]),
        stack_verdict=_field(entry, "stack_verdict", str),
        coarse_verdict=_field(entry, "coarse_verdict", str),
        min_margin=_parse_optional_rational(entry["min_margin"]),
    )
    if row.g < 2 or row.k < 3:
        raise InputError(f"scan_table_from_obj: a cell needs g >= 2 and k >= 3, got {entry!r}")
    if row.recipe not in RECIPE_NAMES + (SCAN_NO_RECIPE,):
        raise InputError(f"scan_table_from_obj: unknown recipe {row.recipe!r}")
    if row.stack_verdict not in _VERDICTS:
        raise InputError(f"scan_table_from_obj: unknown stack verdict {row.stack_verdict!r}")
    if row.coarse_verdict not in _VERDICTS + (SCAN_COARSE_OUT_OF_RANGE,):
        raise InputError(f"scan_table_from_obj: unknown coarse verdict {row.coarse_verdict!r}")
    return row


@_decoder
def scan_table_from_obj(obj: dict) -> ScanTable:
    return ScanTable(tuple(_scan_row_from_obj(entry) for entry in _field(obj, "rows", list)))


def scan_table_csv(table: ScanTable) -> Iterator[str]:
    columns = ["g", "k", "recipe", "slope", "stack_verdict", "coarse_verdict", "min_margin"]
    return json_rows_csv(columns, scan_table_to_obj(table)["rows"])


def scan_table_text(table: ScanTable) -> Iterator[str]:
    yield "g    k    recipe            slope         stack      coarse\n"
    for row in table.rows:
        slope = rational_str(row.slope) if row.slope is not None else "-"
        yield (
            f"{row.g:<4d} {row.k:<4d} {row.recipe:<17s} {slope:<13s} "
            f"{row.stack_verdict:<10s} {row.coarse_verdict}\n"
        )


def scan_summary_text(table: ScanTable) -> str:
    return (
        f"cells: {len(table.rows)}; certified stack: {table.certified_stack()}; "
        f"certified coarse: {table.certified_coarse()}\n"
    )


# -- oracle reports (output only: no decoder) ---------------------------------


def oracle_report_to_obj(report: OracleReport) -> dict:
    return {
        "k": report.mu.weight,
        "mu": list(report.mu.parts),
        "i": report.i,
        "count": str(report.count),
        "feasible": report.feasible,
        "agree": report.agree,
    }


def oracle_report_csv(report: OracleReport) -> Iterator[str]:
    obj = oracle_report_to_obj(report)
    return json_rows_csv(list(obj), [obj])


def oracle_report_text(report: OracleReport) -> Iterator[str]:
    yield f"k={report.mu.weight} mu={report.mu} i={report.i}\n"
    yield f"count:    {report.count}\n"
    yield f"feasible: {report.feasible}\n"
    yield f"agree:    {report.agree}\n"


# -- the emitted payload types -------------------------------------------------

# {payload type: (json payload, csv lines, text lines)}: every type a command emits, and
# nothing else.  The two JSON row tables stay maps (`iter` of a map is the map), and the csv
# and text renderers are generators of LF-ended lines: each row is made as it is written.
_RENDERERS: dict[type, tuple[Callable, Callable, Callable]] = {
    DivisorClass: (divisor_class_to_obj, divisor_class_csv, divisor_class_text),
    HurwitzClass: (_hurwitz_class_obj, hurwitz_class_csv, hurwitz_class_text),
    DivisorRecipe: (recipe_to_obj, recipe_csv, recipe_text),
    BignessCertificate: (_certificate_obj, certificate_csv, certificate_text),
    ScanTable: (scan_table_to_obj, scan_table_csv, scan_table_text),
    OracleReport: (oracle_report_to_obj, oracle_report_csv, oracle_report_text),
}


def emit(value, fmt: str, argv: list[str], write: Callable[[str], object]) -> None:
    """Write `value` in format `fmt` ("json", "csv" or "text"); no other renderer runs.

    JSON is the payload in the versioned envelope of the command `argv`.  The
    records in `value` are built and checked before this is called, so an
    input or hypothesis error writes nothing.  Every format is written
    `_CHUNK` rows or lines at a time, one `write` call each: JSON through
    `write_canonical`, csv and text by joining the next `_CHUNK` lines of
    their renderer.  So no document is held whole, and an InvariantError
    while making a row or line may follow earlier chunks, in any format.  A
    type with no renderers raises InvariantError.
    """
    try:
        to_obj, to_csv, to_text = _RENDERERS[type(value)]
    except KeyError:
        raise InvariantError(f"no renderer for {type(value).__name__}") from None
    if fmt == "json":
        envelope = {
            "command": "hurwitzdiv " + " ".join(argv),
            "format": "json",
            "payload": to_obj(value),
            "payload_type": type(value).__name__,
            "tool_version": __version__,
        }
        write_canonical(envelope, write)
        return
    lines = (to_csv if fmt == "csv" else to_text)(value)
    while chunk := list(islice(lines, _CHUNK)):
        write("".join(chunk))


# A JSON list or map, or a csv or text document, longer than this is written one chunk
# of items or lines at a time.
_CHUNK = 1024


def dumps_canonical(obj: dict) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)` plus a final newline.

    Only str, int, bool, None, list, map and dict with str keys are written;
    any other value, such as a float, a Fraction or a tuple, raises
    InvariantError.
    """
    chunks: list[str] = []
    write_canonical(obj, chunks.append)
    return "".join(chunks)


def write_canonical(obj: dict, write: Callable[[str], object]) -> None:
    """Pass the text of `dumps_canonical(obj)` to `write`, in order, in a few chunks.

    Each call gets one join of pending pieces.  A list or map of more than
    `_CHUNK` items, at the top or reached through objects, is written a
    chunk of items at a time, so neither the text nor the items of a map
    held at once grow with its length.  An error may come after some chunks
    have been written.
    """
    pending: list[str] = []
    _put(obj, 0, pending, write)
    pending.append("\n")
    _flush(pending, write)


def _flush(out: list[str], write: Callable[[str], object]) -> None:
    """Write the pending pieces as one string; they are dropped before the write."""
    text = "".join(out)
    out.clear()
    write(text)


def _put(value, depth: int, out: list[str], write: Callable[[str], object] | None) -> None:
    """Append the text of one JSON value, in the layout of `json.dumps(sort_keys=True, indent=2)`.

    `write` is passed down through objects only.  A list or map that has it
    draws `_CHUNK` items at a time, joins each item, rendered with
    `write=None`, into one piece, and writes `out` through `write` after
    each chunk but the last.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(repr(value))
    elif kind is list or kind is map:
        inner = "\n" + "  " * (depth + 1)
        out.append("[")
        if write is None:
            for item in value:
                out.append(inner)
                _put(item, depth + 1, out, None)
                out.append(",")
        else:
            items = iter(value)
            while chunk := list(islice(items, _CHUNK)):
                if out[-1] == ",":  # an earlier chunk is pending
                    _flush(out, write)
                # one piece per item keeps the pieces of a chunk few and short-lived
                for item in chunk:
                    piece = [inner]
                    _put(item, depth + 1, piece, None)
                    out += ("".join(piece), ",")
                del chunk  # a map made these items: drop them before drawing more
        # the last item's comma becomes the closing line; with no item, "[" closes at once
        out[-1] = "\n" + "  " * depth + "]" if out[-1] == "," else "[]"
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        try:
            items = [(encode_basestring_ascii(key), item) for key, item in sorted(value.items())]
        except TypeError:
            kinds = sorted({type(key).__name__ for key in value})
            raise InvariantError(f"JSON object keys must be str, got {kinds}") from None
        inner = "\n" + "  " * (depth + 1)
        out.append("{")
        for key, item in items:
            out += (inner, key, ": ")
            _put(item, depth + 1, out, write)
            out.append(",")
        out[-1] = "\n" + "  " * depth + "}"
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    else:
        raise InvariantError(f"no JSON encoding for {kind.__name__} {value!r}")

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
writes only str, int, bool, None, list and dict with str keys, and raises
InvariantError on any other value, a float included, possibly after earlier
chunks have been written.  Every `*_to_obj` has a `*_from_obj`
inverse and the round trip is exact, NoDivisor certificates included; only
the oracle report has no decoder.  CSV uses LF line endings and a header
row, and its columns are keys of the JSON rows (the cover-space class table
adds m_mu).  Text rendering is for human eyes only and may add a
6-significant-digit decimal hint next to the exact value.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from collections.abc import Callable, Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


def json_rows_csv(columns: list[str], rows: Iterable[dict]) -> str:
    """A CSV document of the named keys of JSON rows: a header, then LF-ended lines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row[key]) for key in columns] for row in rows)
    return buffer.getvalue()


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


def divisor_class_csv(divisor: DivisorClass) -> str:
    return json_rows_csv(["basis", "value"], divisor_class_to_obj(divisor)["coefficients"])


def divisor_class_text(divisor: DivisorClass) -> str:
    lines = [f"space: {divisor.space}"]
    for label, value in divisor.coeffs:
        lines.append(f"  {label:12s} {rational_text(value)}")
    return "\n".join(lines) + "\n"


# -- Hurwitz classes ---------------------------------------------------------


def hurwitz_class_to_obj(cls: HurwitzClass) -> dict:
    return {
        "g": cls.g,
        "k": cls.k,
        "coefficients": [
            {
                "i": i,
                "mu": list(parts),
                "prime": (i, parts) in cls.branch_marks,
                "value": rational_str(value),
            }
            for (i, parts), value in cls.coeffs
        ],
    }


@_decoder
def hurwitz_class_from_obj(obj: dict) -> HurwitzClass:
    coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    marks: set[tuple[int, tuple[int, ...]]] = set()
    for entry in _field(obj, "coefficients", list):
        key = (entry["i"], tuple(entry["mu"]))
        coeffs[key] = parse_rational(entry["value"])
        if entry.get("prime"):
            marks.add(key)
    return HurwitzClass.make(obj["g"], obj["k"], coeffs, marks)


def hurwitz_class_csv(cls: HurwitzClass) -> str:
    # m_mu is the one column that the JSON rows do not carry
    rows = hurwitz_class_to_obj(cls)["coefficients"]
    lcms = {row.mu.parts: row.lcm for row in partition_table(cls.k)}
    for row in rows:
        row["m_mu"] = lcms[tuple(row["mu"])]
    return json_rows_csv(["i", "mu", "m_mu", "value"], rows)


def hurwitz_class_text(cls: HurwitzClass) -> str:
    lines = [f"cover space: g={cls.g}, k={cls.k}"]
    for (i, parts), value in cls.coeffs:
        mark = "'" if (i, parts) in cls.branch_marks else ""
        lines.append(f"  i={i:<3d} mu={str(Partition(parts)):12s}{mark} {rational_text(value)}")
    return "\n".join(lines) + "\n"


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


def recipe_csv(recipe: DivisorRecipe) -> str:
    return divisor_class_csv(recipe.divisor_class)


def recipe_text(recipe: DivisorRecipe) -> str:
    lines = [
        f"divisor: {recipe.name} (g={recipe.g})",
        f"slope:   {rational_text(recipe.slope)}",
        "class:",
    ]
    for label, value in recipe.divisor_class.coeffs:
        lines.append(f"  {label:12s} {rational_text(value)}")
    lines.append("hypotheses:")
    for h in recipe.hypotheses:
        lines.append(f"  - {h}")
    return "\n".join(lines) + "\n"


# -- certificates ------------------------------------------------------------


def certificate_to_obj(cert: BignessCertificate) -> dict:
    return {
        "g": cert.g,
        "k": cert.k,
        "mode": cert.mode,
        "slope": _optional_rational_str(cert.slope_used),
        "alpha": _optional_rational_str(cert.alpha),
        "indices": [
            {
                "i": entry.index.i,
                "mu": list(entry.index.mu.parts),
                "margin": rational_str(entry.margin),
                "sigma_bound": rational_str(entry.sigma_bound),
                "sharp": entry.sharp,
                "note": entry.note,
            }
            for entry in cert.per_index
        ],
        "hypotheses": list(cert.hypotheses),
        "verdict": cert.verdict,
    }


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


def certificate_csv(cert: BignessCertificate) -> str:
    columns = ["i", "mu", "margin", "sigma_bound", "sharp", "note"]
    return json_rows_csv(columns, certificate_to_obj(cert)["indices"])


def certificate_text(cert: BignessCertificate) -> str:
    head = f"bigness certificate: mode={cert.mode}, g={cert.g}, k={cert.k}"
    if cert.verdict == VERDICT_NO_DIVISOR:
        return (
            f"{head}\n"
            "verdict: NoDivisor (no built-in divisor of slope below 8 serves this cell)\n"
        )
    lines = [
        head,
        f"slope: {rational_text(cert.slope_used)}",
        f"alpha: {rational_text(cert.alpha)}",
        f"verdict: {cert.verdict}",
        "margins:",
    ]
    for entry in cert.per_index:
        note = f"  [{entry.note}]" if entry.note else ""
        lines.append(
            f"  i={entry.index.i:<3d} mu={str(entry.index.mu):12s} "
            f"margin {rational_text(entry.margin)}{note}"
        )
    lines.append("hypotheses:")
    for h in cert.hypotheses:
        lines.append(f"  - {h}")
    return "\n".join(lines) + "\n"


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


def scan_table_csv(table: ScanTable) -> str:
    columns = ["g", "k", "recipe", "slope", "stack_verdict", "coarse_verdict", "min_margin"]
    return json_rows_csv(columns, scan_table_to_obj(table)["rows"])


def scan_table_text(table: ScanTable) -> str:
    lines = ["g    k    recipe            slope         stack      coarse"]
    for row in table.rows:
        slope = rational_str(row.slope) if row.slope is not None else "-"
        lines.append(
            f"{row.g:<4d} {row.k:<4d} {row.recipe:<17s} {slope:<13s} "
            f"{row.stack_verdict:<10s} {row.coarse_verdict}"
        )
    return "\n".join(lines) + "\n"


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


def oracle_report_csv(report: OracleReport) -> str:
    obj = oracle_report_to_obj(report)
    return json_rows_csv(list(obj), [obj])


def oracle_report_text(report: OracleReport) -> str:
    return (
        f"k={report.mu.weight} mu={report.mu} i={report.i}\n"
        f"count:    {report.count}\n"
        f"feasible: {report.feasible}\n"
        f"agree:    {report.agree}\n"
    )


# -- the emitted payload types -------------------------------------------------

# {payload type: (json payload, csv, text)}: every type a command emits, and nothing else
_RENDERERS: dict[type, tuple[Callable, Callable, Callable]] = {
    DivisorClass: (divisor_class_to_obj, divisor_class_csv, divisor_class_text),
    HurwitzClass: (hurwitz_class_to_obj, hurwitz_class_csv, hurwitz_class_text),
    DivisorRecipe: (recipe_to_obj, recipe_csv, recipe_text),
    BignessCertificate: (certificate_to_obj, certificate_csv, certificate_text),
    ScanTable: (scan_table_to_obj, scan_table_csv, scan_table_text),
    OracleReport: (oracle_report_to_obj, oracle_report_csv, oracle_report_text),
}


def emit(value, fmt: str, argv: list[str], write: Callable[[str], object]) -> None:
    """Write `value` in format `fmt` ("json", "csv" or "text"); no other renderer runs.

    JSON is the payload in the versioned envelope of the command `argv`.  The
    payload is built in full before the first write, so an error while
    building it writes nothing.  A type with no renderers raises
    InvariantError.
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
    else:
        write((to_csv if fmt == "csv" else to_text)(value))


# A list longer than this is written one chunk of items at a time.
_CHUNK = 1024


def dumps_canonical(obj: dict) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)` plus a final newline.

    Only str, int, bool, None, list and dict with str keys are written; any
    other value, such as a float, a Fraction or a tuple, raises InvariantError.
    """
    chunks: list[str] = []
    write_canonical(obj, chunks.append)
    return "".join(chunks)


def write_canonical(obj: dict, write: Callable[[str], object]) -> None:
    """Pass the text of `dumps_canonical(obj)` to `write`, in order, in a few chunks.

    Each call gets one join of pending pieces.  A list of more than `_CHUNK`
    items, at the top or reached through objects, is written a chunk of
    items at a time, so the text held at once does not grow with its length.
    An error may come after some chunks have been written.
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

    `write` is passed down through objects only.  A list that has it joins
    each item, rendered with `write=None`, into one piece, and once it has
    more than `_CHUNK` items it writes `out` through `write` after each
    chunk but the last.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(repr(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        out.append("[")
        if write is None:
            for item in value:
                out.append(inner)
                _put(item, depth + 1, out, None)
                out.append(",")
        else:
            # one piece per item keeps the pieces of a chunk few and short-lived
            for start in range(0, len(value), _CHUNK):
                if start:
                    _flush(out, write)
                for item in value[start : start + _CHUNK]:
                    piece = [inner]
                    _put(item, depth + 1, piece, None)
                    out += ("".join(piece), ",")
        # the last item's comma becomes the closing line
        out[-1] = "\n" + "  " * depth + "]"
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

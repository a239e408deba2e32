"""Round-trip fidelity of the JSON and CSV encodings."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurwitzdiv.hurwitz as hurwitz
import hurwitzdiv.serialize as serialize
from hurwitzdiv import (
    BignessCertificate,
    DivisorClass,
    HurwitzClass,
    InputError,
    InvariantError,
    Partition,
    QuadraticClass,
    best_recipe,
    boundary_index_set,
    canonical_class_coarse,
    hodge_class,
    scan,
    space_m0b,
    space_mg,
    space_mg_pointed,
    verify_coarse,
    verify_stack,
    __version__,
    weierstrass_class,
)
from hurwitzdiv.bigness import MODE_COARSE, MODE_STACK, IndexMargin, no_divisor_certificate
from hurwitzdiv.cli import main
from hurwitzdiv.partitions import partition_table, transposition_power_vector
from hurwitzdiv.serialize import (
    certificate_csv,
    certificate_from_obj,
    certificate_to_obj,
    divisor_class_csv,
    divisor_class_from_obj,
    divisor_class_to_obj,
    dumps_canonical,
    emit,
    hurwitz_class_csv,
    hurwitz_class_from_obj,
    hurwitz_class_text,
    hurwitz_class_to_obj,
    json_rows_csv,
    parse_partition,
    parse_rational,
    rational_str,
    recipe_from_obj,
    recipe_to_obj,
    scan_table_csv,
    scan_table_from_obj,
    scan_table_to_obj,
    space_from_obj,
    space_to_obj,
    write_canonical,
)

F = Fraction


def test_rational_strings_are_canonical():
    assert rational_str(F(54, 7)) == "54/7"
    assert rational_str(F(-1)) == "-1"
    assert rational_str(F(4, 8)) == "1/2"
    assert rational_str(F(3, -9)) == "-1/3"
    assert rational_str(7) == rational_str(F(7)) == "7"
    assert rational_str(True) == "1"
    assert rational_str("6/4") == "3/2"
    assert parse_rational("62621/7830") == F(62621, 7830)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(InputError):
        parse_rational("3.5")
    with pytest.raises(InputError):
        parse_rational("1/0")
    # ASCII digits only: Arabic-Indic and fullwidth digits and "_" are rejected
    for text in ("\u0663/\u0664", "\uff13", "1_0", "1/1_0", "\u0663", "9" * 5000):
        with pytest.raises(InputError):
            parse_rational(text)


def test_parse_partition():
    assert parse_partition("2,1,1").parts == (2, 1, 1)
    assert parse_partition("1,3,2").parts == (3, 2, 1)
    with pytest.raises(InputError):
        parse_partition("")
    with pytest.raises(InputError):
        parse_partition("2,x")
    for text in ("3,,1", "3,1,", ",3", " "):
        with pytest.raises(InputError):
            parse_partition(text)
    assert parse_partition(" 2, 1").parts == (2, 1)
    for text in ("1_0", "\u0663", "\uff13,1", "+3", "-3", "0", "9" * 5000):
        with pytest.raises(InputError):
            parse_partition(text)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parsers_return_a_value_or_raise_input_error(text):
    for parse in (parse_rational, parse_partition):
        try:
            parse(text)
        except InputError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.fractions())
def test_parse_rational_reads_rational_str(value):
    assert parse_rational(rational_str(value)) == value


def test_divisor_class_round_trip():
    cls = DivisorClass.make(
        space_mg(7), {"lambda": F(54, 7), "delta_0": -1, "delta_1": -1, "delta_2": -1, "delta_3": -1}
    )
    obj = divisor_class_to_obj(cls)
    assert obj["space"] == {"kind": "Mg", "g": 7}
    assert obj["coefficients"][0] == {"basis": "lambda", "value": "54/7"}
    assert divisor_class_from_obj(obj) == cls
    b_cls = DivisorClass.make(space_m0b(6), {"B_2": F(3, 5), "B_3": F(4, 5)})
    assert divisor_class_from_obj(divisor_class_to_obj(b_cls)) == b_cls
    assert divisor_class_from_obj(divisor_class_to_obj(weierstrass_class(5))) == weierstrass_class(5)


def test_hurwitz_class_round_trip_with_marks():
    cls = canonical_class_coarse(2, 3)
    obj = hurwitz_class_to_obj(cls)
    marked = [entry for entry in obj["coefficients"] if entry["prime"]]
    assert [(entry["i"], entry["mu"]) for entry in marked] == [(3, [2, 1])]
    assert hurwitz_class_from_obj(obj) == cls
    plain = hodge_class(2, 3)
    assert hurwitz_class_from_obj(hurwitz_class_to_obj(plain)) == plain


def test_hurwitz_class_absent_prime_flag_means_unmarked():
    cls = canonical_class_coarse(2, 3)
    obj = hurwitz_class_to_obj(cls)
    for entry in obj["coefficients"]:
        if entry["prime"] is False:
            del entry["prime"]
    assert hurwitz_class_from_obj(obj) == cls
    for entry in obj["coefficients"]:
        entry.pop("prime", None)
    bare = hurwitz_class_from_obj(obj)
    assert bare.branch_marks == frozenset() and bare.coeffs == cls.coeffs
    assert all(entry["prime"] is False for entry in hurwitz_class_to_obj(bare)["coefficients"])


def test_power_vector_and_class_text_share_the_partitions_of_the_table(monkeypatch):
    rows = {row.mu.parts: row.mu for row in partition_table(6)}
    assert all(nu is rows[nu.parts] for nu, _ in transposition_power_vector(6, 5))
    printed = []
    to_str = Partition.__str__

    def recorded(mu):
        printed.append(mu)
        return to_str(mu)

    monkeypatch.setattr(Partition, "__str__", recorded)
    cls = canonical_class_coarse(5, 6)
    lines = list(hurwitz_class_text(cls))
    assert len(printed) == len(cls.coeffs) == len(lines) - 1
    assert all(mu is rows[mu.parts] for mu in printed)


def test_hurwitz_class_csv_layout():
    text = "".join(hurwitz_class_csv(hodge_class(2, 3)))
    lines = text.splitlines()
    assert lines[0] == "i,mu,m_mu,value"
    assert lines[1] == "2,[3],3,-1/42"
    assert '"[1,1,1]"' in lines[2]
    assert text.endswith("\n")
    assert "\r" not in text


def test_divisor_class_csv_layout():
    text = "".join(divisor_class_csv(weierstrass_class(2)))
    assert text.splitlines() == ["basis,value", "lambda,-1", "psi,3", "delta_1,-1"]


def test_recipe_round_trip():
    recipe = best_recipe(8, 5)
    obj = recipe_to_obj(recipe)
    assert obj["name"] == "Hilbert2Even"
    assert obj["slope"] == "31/4"
    assert recipe_from_obj(obj) == recipe


def test_recipe_decoder_reads_the_avoided_gonality():
    obj = recipe_to_obj(best_recipe(8, 5))
    assert obj["avoided_gonality"] == 3
    # a string, a bool, a gonality below 2, or one the prose does not state
    for value in ("3", True, 1, 4, None):
        with pytest.raises(InputError):
            recipe_from_obj({**obj, "avoided_gonality": value})


def test_certificate_round_trip_stack_and_coarse():
    for cert in (
        verify_stack(8, 3, best_recipe(8, 3)),
        verify_coarse(8, 3, best_recipe(8, 3)),
    ):
        obj = certificate_to_obj(cert)
        assert set(obj) == {
            "g",
            "k",
            "mode",
            "slope",
            "alpha",
            "indices",
            "hypotheses",
            "verdict",
        }
        assert certificate_from_obj(obj) == cert
        for entry in obj["indices"]:
            assert set(entry) == {"i", "mu", "margin", "sigma_bound", "sharp", "note"}
            assert entry["sharp"] in (0, 1)


def test_no_divisor_certificates_round_trip(capsys):
    for mode in (MODE_STACK, MODE_COARSE):
        cert = no_divisor_certificate(13, 3, mode)
        obj = certificate_to_obj(cert)
        assert (obj["slope"], obj["alpha"], obj["indices"]) == ("", "", [])
        assert certificate_from_obj(obj) == cert
    # the payloads the CLI writes for cells without a divisor decode and re-encode
    for command in ("verify stack --g 13 --k 3", "verify coarse --g 4 --k 5"):
        assert main(command.split()) == 1
        payload = json.loads(capsys.readouterr().out)["payload"]
        cert = certificate_from_obj(payload)
        assert cert.verdict == "NoDivisor"
        assert certificate_to_obj(cert) == payload


def _edited(obj: dict, **changes) -> dict:
    obj = json.loads(json.dumps(obj))
    for key, value in changes.items():
        if key == "margin":
            obj["indices"][0]["margin"] = value
        else:
            obj[key] = value
    return obj


def test_certificate_decoder_rejects_a_verdict_its_margins_contradict():
    stack = certificate_to_obj(verify_stack(10, 4, best_recipe(10, 4)))
    coarse = certificate_to_obj(verify_coarse(8, 3, best_recipe(8, 3)))
    no_divisor = certificate_to_obj(no_divisor_certificate(13, 3, MODE_STACK))
    assert stack["verdict"] == coarse["verdict"] == "Certified"
    assert any(entry["margin"] == "0" for entry in coarse["indices"])
    assert coarse["alpha"] == "0"
    for obj in (stack, coarse, no_divisor):
        assert certificate_to_obj(certificate_from_obj(obj)) == obj
    for obj in (
        _edited(stack, margin="-5"),
        _edited(stack, margin="0"),
        _edited(stack, alpha="-1"),
        _edited(stack, alpha=""),
        _edited(stack, verdict="Failed"),
        _edited(stack, verdict="Proved"),
        _edited(stack, mode="Both"),
        _edited(coarse, margin="-1/2"),
        _edited(no_divisor, slope="15/2"),
        _edited(no_divisor, alpha="1"),
        _edited(no_divisor, indices=stack["indices"]),
        _edited(no_divisor, verdict="Certified"),
        _edited(no_divisor, g="x"),
        _edited(no_divisor, k=[1]),
        _edited(no_divisor, mode="bogus"),
        _edited(no_divisor, hypotheses=["anything"]),
    ):
        with pytest.raises(InputError):
            certificate_from_obj(obj)
    # a verdict of Failed is consistent with a negative margin and alpha
    failed = _edited(stack, margin="-5", alpha="-1", verdict="Failed")
    assert certificate_from_obj(failed).verdict == "Failed"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emit_rejects_a_type_with_no_renderers(fmt):
    chunks = []
    with pytest.raises(InvariantError, match="no renderer for QuadraticClass"):
        emit(QuadraticClass.make(space_mg_pointed(3), {}), fmt, ["x"], chunks.append)
    assert chunks == []


_EMITTED = {
    "verify stack --g 1000 --k 10": lambda: verify_stack(1000, 10, best_recipe(1000, 10)),
    "verify coarse --g 1000 --k 10": lambda: verify_coarse(1000, 10, best_recipe(1000, 10)),
    "verify stack --g 2 --k 3": lambda: no_divisor_certificate(2, 3, MODE_STACK),
    "classes hodge --g 1000 --k 10": lambda: hodge_class(1000, 10),
    "classes empty --g 5 --k 3": lambda: HurwitzClass.make(5, 3, {}),
}


@pytest.mark.parametrize("command", list(_EMITTED))
def test_emit_writes_the_text_of_the_list_built_envelope(command):
    value = _EMITTED[command]()
    to_obj = certificate_to_obj if isinstance(value, BignessCertificate) else hurwitz_class_to_obj
    envelope = {
        "command": "hurwitzdiv " + command,
        "format": "json",
        "payload": to_obj(value),
        "payload_type": type(value).__name__,
        "tool_version": __version__,
    }
    chunks: list[str] = []
    emit(value, "json", command.split(), chunks.append)
    text = "".join(chunks)
    assert text == dumps_canonical(envelope)
    assert text == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    rows = envelope["payload"].get("indices", envelope["payload"].get("coefficients"))
    assert len(chunks) == max(1, -(-len(rows) // 1024))
    if command == "verify stack --g 2 --k 3":
        assert json.loads(text)["payload"]["indices"] == []


_LARGE = {
    "verify stack --g 1000 --k 10": lambda: verify_stack(1000, 10, best_recipe(1000, 10)),
    "classes canonical-coarse --g 1000 --k 10": lambda: canonical_class_coarse(1000, 10),
}


@pytest.fixture(scope="module", params=list(_LARGE))
def large_record(request):
    return _LARGE[request.param]()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_emitting_a_certificate_holds_few_of_its_rows(large_record, fmt):
    tracemalloc.start()
    try:
        emit(large_record, fmt, ["verify"], lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 21,104 rows, as JSON dicts or as text, take 2.5 to 10 MB when built in full
    cert = isinstance(large_record, BignessCertificate)
    assert len(large_record.per_index if cert else large_record.coeffs) > 20_000
    assert peak <= 2 * 2**20, peak


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_emit_writes_csv_and_text_a_chunk_of_lines_at_a_time(large_record, fmt):
    chunks: list[str] = []
    emit(large_record, fmt, ["verify"], chunks.append)
    lines = "".join(chunks).count("\n")
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert len(chunks) == -(-lines // 1024) == 21


def test_json_rows_csv_prints_lists_like_partitions():
    rows = [{"mu": [2, 1], "n": 3, "x": "-1/2"}]
    assert "".join(json_rows_csv(["mu", "n"], rows)) == 'mu,n\n"[2,1]",3\n'
    assert "".join(json_rows_csv(["mu"], rows)).splitlines()[1] == f'"{Partition((2, 1))}"'
    assert "".join(json_rows_csv(["mu", "n"], [])) == "mu,n\n"


_ENCODED = {
    space_from_obj: lambda: space_to_obj(space_mg(4)),
    divisor_class_from_obj: lambda: divisor_class_to_obj(weierstrass_class(3)),
    hurwitz_class_from_obj: lambda: hurwitz_class_to_obj(canonical_class_coarse(2, 3)),
    recipe_from_obj: lambda: recipe_to_obj(best_recipe(8, 5)),
    certificate_from_obj: lambda: certificate_to_obj(verify_coarse(8, 3, best_recipe(8, 3))),
    scan_table_from_obj: lambda: scan_table_to_obj(scan(3, 3, 8, 8)),
}


@pytest.mark.parametrize("decode", list(_ENCODED), ids=lambda decode: decode.__name__)
def test_decoders_reject_missing_keys(decode):
    # every key of the encoded object is required, and so is every key of its
    # first nested entry, except the optional `prime` flag of a class entry
    encode = _ENCODED[decode]
    for key, value in encode().items():
        obj = encode()
        del obj[key]
        with pytest.raises(InputError):
            decode(obj)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for inner in value[0].keys() - {"prime"}:
                obj = encode()
                del obj[key][0][inner]
                with pytest.raises(InputError):
                    decode(obj)


_RATIONAL_FIELDS = [
    (divisor_class_from_obj, ("coefficients", 0, "value")),
    (hurwitz_class_from_obj, ("coefficients", 0, "value")),
    (recipe_from_obj, ("slope",)),
    (recipe_from_obj, ("class", "coefficients", 0, "value")),
    (certificate_from_obj, ("slope",)),
    (certificate_from_obj, ("alpha",)),
    (certificate_from_obj, ("indices", 0, "margin")),
    (certificate_from_obj, ("indices", 0, "sigma_bound")),
    (scan_table_from_obj, ("rows", 0, "slope")),
    (scan_table_from_obj, ("rows", 0, "min_margin")),
]


@pytest.mark.parametrize("number", [31, 0.5, 0, None], ids=repr)
@pytest.mark.parametrize(
    "decode, path", _RATIONAL_FIELDS,
    ids=[f"{decode.__name__}:{'.'.join(map(str, path))}" for decode, path in _RATIONAL_FIELDS],
)
def test_decoders_reject_a_json_number_for_a_rational(decode, path, number):
    # rationals travel as "p/q" strings; a JSON number or null is an input error
    obj = _ENCODED[decode]()
    *parents, last = path
    target = obj
    for step in parents:
        target = target[step]
    assert isinstance(target[last], str) and target[last]
    target[last] = number
    with pytest.raises(InputError, match="string p or p/q"):
        decode(obj)


def _with_index_row(obj: dict, **changes) -> dict:
    obj = json.loads(json.dumps(obj))
    obj["indices"][0].update(changes)
    return obj


def test_certificate_decoder_rejects_index_rows_outside_the_index_set():
    # (g, k) = (10, 4): b = 24, so 2 <= i <= 12, and i >= k - l(mu) with its parity
    stack = certificate_to_obj(verify_stack(10, 4, best_recipe(10, 4)))
    coarse = certificate_to_obj(verify_coarse(8, 3, best_recipe(8, 3)))
    no_divisor = certificate_to_obj(no_divisor_certificate(13, 3, MODE_STACK))
    for obj in (stack, coarse, no_divisor):
        assert certificate_to_obj(certificate_from_obj(obj)) == obj
    # the reproducer: one row whose mu is not a partition of k
    lone = _with_index_row(stack, mu=[9, 9])
    lone["indices"] = lone["indices"][:1]
    rows = [
        dict(mu=[9, 9]),  # weight 18, not k = 4
        dict(mu=[3]),  # weight 3
        dict(mu=[1, 3]),  # not weakly decreasing
        dict(i=1, mu=[1, 1, 1, 1]),  # i < 2
        dict(i=13, mu=[1, 1, 1, 1]),  # i > b/2
        dict(i=3, mu=[3, 1]),  # k - l(mu) = 2: wrong parity
        dict(i=2, mu=[4]),  # k - l(mu) = 3 > i
        dict(i="2", mu=[3, 1]),
        dict(i=2.0, mu=[3, 1]),
    ]
    for obj in [lone] + [_with_index_row(stack, **row) for row in rows]:
        with pytest.raises(InputError, match="not a boundary index|parts must be"):
            certificate_from_obj(obj)


def test_decoders_reject_wrong_typed_fields():
    stack = certificate_to_obj(verify_stack(10, 4, best_recipe(10, 4)))
    recipe = recipe_to_obj(best_recipe(10, 4))
    hodge = hurwitz_class_to_obj(hodge_class(3, 3))
    hodge_row = hodge["coefficients"][0]  # (i, mu) = (2, (1, 1, 1))
    cases = [
        (certificate_from_obj, _with_index_row(stack, mu=5)),
        (certificate_from_obj, _with_index_row(stack, sharp="x")),
        (certificate_from_obj, _with_index_row(stack, sharp=2)),
        (certificate_from_obj, _with_index_row(stack, sharp=True)),
        (certificate_from_obj, _with_index_row(stack, note=5)),
        # True == 1 and 2.0 == 2: these once decoded, and re-encoded as true and 2.0
        (certificate_from_obj, _with_index_row(stack, i=2, mu=[True] * 4)),
        (hurwitz_class_from_obj, {**hodge, "coefficients": [{**hodge_row, "mu": [True] * 3}]}),
        (hurwitz_class_from_obj, {**hodge, "coefficients": [{**hodge_row, "i": 2.0}]}),
        # the prime flag was read by truthiness: these decoded as bools and re-encoded as such
        *((hurwitz_class_from_obj, {**hodge, "coefficients": [{**hodge_row, "prime": flag}]})
          for flag in (1, "no", 0, None)),
        (certificate_from_obj, {**stack, "hypotheses": 5}),
        (certificate_from_obj, {**stack, "hypotheses": ["ok", 5]}),
        (certificate_from_obj, {**stack, "indices": ""}),
        (recipe_from_obj, {**recipe, "class": 5}),
        (recipe_from_obj, {**recipe, "g": "10"}),
        (recipe_from_obj, {**recipe, "hypotheses": recipe["hypotheses"] + [5]}),
    ]
    for decode, obj in cases:
        with pytest.raises(InputError):
            decode(obj)


def _paths(obj, prefix=()):
    """The path of every field of a JSON value, following the first entry of each list."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:1])
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# Integers stay small: the recipe and divisor-class decoders build the basis
# of the g they are given, and nothing caps that g yet.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 16) | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)


@pytest.mark.parametrize("decode", list(_ENCODED), ids=lambda decode: decode.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decoders_accept_or_reject_any_json_in_one_field(decode, data):
    obj = _ENCODED[decode]()
    *parents, last = data.draw(st.sampled_from(list(_paths(obj))))
    target = obj
    for step in parents:
        target = target[step]
    target[last] = data.draw(_JSON)
    try:
        decode(obj)
    except InputError:
        pass


@pytest.mark.parametrize(
    "command, decode, encode",
    [
        ("verify stack --g 10 --k 4", certificate_from_obj, certificate_to_obj),
        ("classes hodge --g 3 --k 3", hurwitz_class_from_obj, hurwitz_class_to_obj),
    ],
    ids=["certificate", "hurwitz_class"],
)
def test_certificate_decoder_never_builds_the_index_set(monkeypatch, capsys, command, decode,
                                                         encode):
    # each index row or key is tested on its own, so a huge g costs no more than a small one
    assert main(command.split()) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    payload["g"] = 10**30

    def refuse(g, k):
        raise AssertionError(f"the index set of (g, k) = ({g}, {k}) was built")

    monkeypatch.setattr(hurwitz, "boundary_index_set", refuse)
    decoded = decode(payload)
    assert decoded.g == 10**30
    assert encode(decoded) == payload


def test_decoders_name_themselves_once_in_a_semantic_error():
    # InputError is a ValueError, so a generic clause would call it a wrong type
    stack = certificate_to_obj(verify_stack(10, 4, best_recipe(10, 4)))
    outside = _edited(stack)
    outside["indices"][0]["i"] = 1
    for decode, obj in (
        (certificate_from_obj, _edited(stack, verdict="Failed")),
        (certificate_from_obj, outside),
        (scan_table_from_obj, _scan_payload(recipe="x")),
    ):
        with pytest.raises(InputError) as info:
            decode(obj)
        message = str(info.value)
        assert message.startswith(f"{decode.__name__}: "), message
        assert message.count(decode.__name__) == 1 and "wrong type" not in message, message


def _scan_payload(**changes) -> dict:
    obj = scan_table_to_obj(scan(3, 3, 8, 8))
    obj["rows"][0].update(changes)
    return obj


@pytest.mark.parametrize(
    "changes",
    [
        dict(stack_verdict="x", g=-1),
        dict(g=-1),
        dict(g=1),
        dict(k=2),
        dict(stack_verdict="x"),
        dict(stack_verdict="n/a"),
        dict(coarse_verdict="Proved"),
        dict(coarse_verdict="none"),
        dict(recipe="x"),
        dict(recipe="n/a"),
    ],
    ids=repr,
)
def test_scan_decoder_rejects_rows_a_scan_never_writes(changes):
    assert scan_table_to_obj(scan_table_from_obj(_scan_payload())) == _scan_payload()
    with pytest.raises(InputError, match="scan_table_from_obj"):
        scan_table_from_obj(_scan_payload(**changes))


def test_scan_payload_round_trips(capsys):
    assert main("scan --k 3 10 --g 6 60".split()) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    table = scan_table_from_obj(payload)
    assert len(table.rows) == 440
    assert scan_table_to_obj(table) == payload


def test_certificate_csv_header():
    text = "".join(certificate_csv(verify_stack(8, 3, best_recipe(8, 3))))
    assert text.splitlines()[0] == "i,mu,margin,sigma_bound,sharp,note"


def test_scan_table_round_trip_and_csv():
    table = scan(3, 4, 6, 10)
    assert scan_table_from_obj(scan_table_to_obj(table)) == table
    text = "".join(scan_table_csv(table))
    lines = text.splitlines()
    assert lines[0] == "g,k,recipe,slope,stack_verdict,coarse_verdict,min_margin"
    assert len(lines) == len(table.rows) + 1
    assert "\r" not in text


def test_hurwitz_class_random_round_trip():
    # random sparse classes over the (3, 4) index set survive the round trip
    from fractions import Fraction as Fr
    from itertools import islice

    from hurwitzdiv import boundary_index_set
    from hurwitzdiv.hurwitz import HurwitzClass

    indices = boundary_index_set(3, 4)
    values = [Fr(-7, 3), Fr(0), Fr(1), Fr(55, 8), Fr(-2), Fr(9, 11)]
    coeffs = {
        index.key: values[n % len(values)]
        for n, index in enumerate(islice(indices, 0, None, 2))
    }
    marks = {key for key in coeffs if 2 in key[1]}
    cls = HurwitzClass.make(3, 4, coeffs, marks)
    assert hurwitz_class_from_obj(hurwitz_class_to_obj(cls)) == cls


def test_dumps_canonical_is_key_sorted_and_stable():
    obj = certificate_to_obj(verify_stack(8, 3, best_recipe(8, 3)))
    text = dumps_canonical(obj)
    assert text == dumps_canonical(json.loads(text))
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


# Strings mix ASCII, control characters, quotes, backslashes, non-ASCII and
# astral characters with arbitrary text.
_TEXT = st.text(st.sampled_from('\x00\x1f\n\t"\\/ aZé\u2028\ufeff\U0001d11e') | st.characters())
_WRITABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_WRITABLE)
def test_dumps_canonical_writes_the_text_of_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [0.5, float("nan"), F(1, 2), (1, 2), {1: "a"}, {"a": 1, 2: "b"}, [[{"a": 1.0}]]],
    ids=repr,
)
def test_dumps_canonical_rejects_values_no_payload_holds(value):
    for obj in (value, {"payload": value}, [value]):
        with pytest.raises(InvariantError):
            dumps_canonical(obj)


def test_dumps_canonical_writes_bools_as_bools():
    assert dumps_canonical([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]\n"


def _collected(obj) -> list[str]:
    chunks: list[str] = []
    write_canonical(obj, chunks.append)
    return chunks


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_write_canonical_writes_the_text_of_json_dumps(n):
    rows = [{"i": j, "mu": [j % 7 + 1, 1], "note": "é" * (j % 3)} for j in range(n)]
    for value in (
        rows,
        {"payload": {"rows": rows, "tail": list(range(n))}, "z": [[], {}]},
        [list(range(n)), [list(range(n))], "x"],
    ):
        expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert "".join(_collected(value)) == dumps_canonical(value) == expected


def test_write_canonical_writes_a_long_list_a_chunk_at_a_time():
    assert len(_collected(list(range(1024)))) == 1
    assert len(_collected(list(range(1025)))) == 2
    assert len(_collected({"a": list(range(2049)), "b": list(range(2049))})) == 5


def test_certificate_is_written_in_few_chunks():
    cert = verify_stack(1000, 10, best_recipe(1000, 10))
    rows = len(cert.per_index)
    assert rows > 20_000
    assert len(_collected(certificate_to_obj(cert))) <= rows // 1024 + 2


def test_writing_a_certificate_holds_far_less_than_its_text():
    obj = certificate_to_obj(verify_stack(200, 10, best_recipe(200, 10)))
    length = len(dumps_canonical(obj))
    tracemalloc.start()
    try:
        write_canonical(obj, lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a writer that builds the whole text first peaks above its length
    assert peak < length * 2 // 3, (peak, length)


def test_write_canonical_rejects_a_late_float_after_writing_earlier_chunks():
    chunks: list[str] = []
    with pytest.raises(InvariantError):
        write_canonical({"rows": list(range(3000)) + [0.5]}, chunks.append)
    assert len(chunks) == 2
    assert "".join(chunks).startswith('{\n  "rows": [\n    0,')


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_write_canonical_writes_a_map_as_the_equal_list(n):
    rows = [{"i": j, "mu": [j % 7 + 1, 1]} for j in range(n)]
    for as_list, as_map in (
        (rows, map(dict, rows)),
        ({"payload": {"rows": rows}}, {"payload": {"rows": map(dict, rows)}}),
        ([rows, "x"], [map(dict, rows), "x"]),
    ):
        assert _collected(as_map) == _collected(as_list)


def test_write_canonical_rejects_a_late_float_in_a_map_after_writing_earlier_chunks():
    chunks: list[str] = []
    with pytest.raises(InvariantError):
        rows = map(lambda j: 0.5 if j == 3000 else j, range(3001))
        write_canonical({"rows": rows}, chunks.append)
    assert len(chunks) == 2
    assert "".join(chunks).startswith('{\n  "rows": [\n    0,')


def test_write_canonical_writes_no_tuple_nor_iterable_but_a_map():
    for rows in (map(tuple, [[1]]), (row for row in [1]), iter([1]), range(1)):
        with pytest.raises(InvariantError):
            dumps_canonical({"rows": rows})


# -- row tables written from one template per row shape ------------------------------


def _emitted_and_listed(value) -> tuple[str, str]:
    """The json `emit` writes for `value`, and `json.dumps` of the same envelope built of lists."""
    to_obj = certificate_to_obj if isinstance(value, BignessCertificate) else hurwitz_class_to_obj
    envelope = {
        "command": "hurwitzdiv x",
        "format": "json",
        "payload": to_obj(value),
        "payload_type": type(value).__name__,
        "tool_version": __version__,
    }
    chunks: list[str] = []
    emit(value, "json", ["x"], chunks.append)
    return "".join(chunks), json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _rows_by_partition(cert: BignessCertificate) -> dict[tuple[int, ...], list[int]]:
    """{mu: positions of its rows in `cert.per_index`}."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for n, entry in enumerate(cert.per_index):
        rows.setdefault(entry.index.mu.parts, []).append(n)
    return rows


# A note with control characters, quotes, backslashes, non-ASCII and astral text, and one
# holding the JSON text of a filled certificate row.
_ODD_NOTES = [
    '\x00\x1f\n\t"quoted" \\ / é ﻿\U0001d11e',
    '\n    {\n      "i": 2,\n      "margin": "7/3",\n      "mu": [\n        3\n      ],'
    '\n      "note": "",\n      "sharp": 0,\n      "sigma_bound": "0"\n    }',
]


def test_a_decoded_certificate_whose_rows_of_one_partition_differ_is_written_as_json_dumps():
    obj = certificate_to_obj(verify_coarse(12, 4, best_recipe(12, 4)))
    cert = certificate_from_obj(obj)
    rows = [n for n in _rows_by_partition(cert).values() if len(n) >= 4]
    assert len(rows) >= 3
    for n in rows[0][1::2]:
        obj["indices"][n]["sigma_bound"] = "5/2"
    for n in rows[1][::3]:
        obj["indices"][n]["sharp"] = 1 - obj["indices"][n]["sharp"]
    for n, note in zip(rows[2], _ODD_NOTES + ["", "absorbed by ample term"] * 8):
        obj["indices"][n]["note"] = note
    edited = certificate_from_obj(obj)
    assert certificate_to_obj(edited) == obj
    emitted, listed = _emitted_and_listed(edited)
    assert emitted == listed
    assert json.loads(emitted)["payload"] == obj


def test_rows_whose_fields_are_equal_but_distinct_are_written_as_json_dumps():
    # within one partition the generated rows share their sigma, sharp and note objects;
    # a row that holds an equal but distinct or a different field must not reuse its template
    cert = verify_stack(10, 5, best_recipe(10, 5))
    entries = list(cert.per_index)
    rows = [n for n in _rows_by_partition(cert).values() if len(n) >= 3]
    first, second, third = rows[0], rows[1], rows[2]
    middle = first[len(first) // 2]
    entries[middle] = entries[middle]._replace(note="".join(["absorbed ", "by ample term"]))
    for n in second[1::2]:
        entries[n] = entries[n]._replace(sharp=bool(entries[n].sharp))
    for n, note in zip(third, _ODD_NOTES * 4):
        entries[n] = entries[n]._replace(note=note, sigma_bound=F(n, 3))
    changed = cert._replace(per_index=tuple(entries))
    emitted, listed = _emitted_and_listed(changed)
    assert emitted == listed
    assert emitted.count('"sharp": false') + emitted.count('"sharp": true') == len(second[1::2])


def test_a_class_marked_on_some_indices_of_a_partition_is_written_as_json_dumps():
    cls = hodge_class(9, 4)
    keys = [key for key, _ in cls.coeffs if key[1] == (2, 1, 1)]
    assert len(keys) >= 4
    marked = HurwitzClass.make(9, 4, dict(cls.coeffs), set(keys[::3]) | {keys[-1]})
    assert 0 < len(marked.branch_marks) < len(keys)
    emitted, listed = _emitted_and_listed(marked)
    assert emitted == listed
    primes = [row["prime"] for row in json.loads(emitted)["payload"]["coefficients"]
              if row["mu"] == [2, 1, 1]]
    assert primes == [key in marked.branch_marks for key in keys]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_certificates_and_classes_are_written_as_json_dumps(data):
    # fields are drawn from small pools, so rows of one partition may share an object,
    # hold an equal but distinct one (1 and True, two equal strings) or differ outright
    g, k = data.draw(st.sampled_from([(2, 3), (3, 4), (4, 5)]))
    indices = boundary_index_set(g, k)
    notes = ["", "".join(["", ""]), *_ODD_NOTES, data.draw(_TEXT)]
    sigmas = [F(0), F(1), F(2), F(1, 2)]
    margins = st.fractions(max_denominator=50, min_value=-10, max_value=10)
    entries = tuple(
        IndexMargin(
            index,
            data.draw(margins),
            data.draw(st.sampled_from(sigmas)),
            data.draw(st.sampled_from([0, 1, True, False])),
            data.draw(st.sampled_from(notes)),
        )
        for index in indices
    )
    cert = verify_stack(g, k, None)._replace(per_index=entries)
    emitted, listed = _emitted_and_listed(cert)
    assert emitted == listed
    coeffs = {index.key: data.draw(margins) for index in indices}
    marks = {key for key in coeffs if data.draw(st.booleans())}
    emitted, listed = _emitted_and_listed(HurwitzClass.make(g, k, coeffs, marks))
    assert emitted == listed


@pytest.mark.parametrize("field", ["i", "note"])
def test_a_row_field_with_no_json_encoding_raises_after_earlier_chunks(field):
    # i fills a hole of the row template, and the note is part of the template itself
    cert = verify_stack(200, 10, best_recipe(200, 10))
    last = cert.per_index[-1]
    if field == "i":
        last = last._replace(index=last.index._replace(i=float(last.index.i)))
    else:
        last = last._replace(note=0.5)
    broken = cert._replace(per_index=cert.per_index[:-1] + (last,))
    chunks: list[str] = []
    with pytest.raises(InvariantError, match="no JSON encoding"):
        emit(broken, "json", ["x"], chunks.append)
    assert len(chunks) == len(cert.per_index) // 1024


def test_emitting_a_large_certificate_calls_put_per_row_shape_not_per_row(monkeypatch):
    cert = verify_stack(1000, 10, best_recipe(1000, 10))
    shapes = len(partition_table(10))
    chunks = -(-len(cert.per_index) // 1024)
    assert (shapes, chunks) == (42, 21)
    put, calls = serialize._put, [0]

    def counted(*args):
        calls[0] += 1
        return put(*args)

    monkeypatch.setattr(serialize, "_put", counted)
    written: list[str] = []
    emit(cert, "json", ["x"], written.append)
    # a row template is one row object of at most 17 JSON values; the rest of the envelope
    # is a few dozen values; writing each of the 21,104 rows through `_put` took 244,298 calls
    assert calls[0] <= 20 * (shapes + chunks), calls[0]
    monkeypatch.undo()
    assert "".join(written) == _emitted_and_listed(cert)[1]

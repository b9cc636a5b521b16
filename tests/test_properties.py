"""Property tests: hostile Turtle input ends in a result or one error line
for every read command, every timestamp the tool writes reads back as the
same instant, parse_instant agrees with its reference, utc_key orders and
prints every timestamp text as the instant parse_instant reads, sorting rendered
rows as strings gives the order of sorting them as token tuples, the
escaped-id rules in terms agree with the copies each module kept before,
and the JSONL writer agrees with one json.dumps per record.

Needs hypothesis; without it the module is skipped.
"""

import contextlib
import io
import re
from datetime import datetime, timedelta, timezone

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oced_forge import (  # noqa: E402
    Iri,
    OcedEvent,
    OcedGraph,
    OcedObject,
    PlainLiteral,
    SerializationError,
    Triple,
    TypedLiteral,
    TypedValue,
    escape_id,
    parse_turtle,
    write_turtle,
)
from oced_forge.analyses import records_to_jsonl  # noqa: E402
from oced_forge.cli import main  # noqa: E402
from oced_forge.terms import _LANGTAG, EX, PREFIXES, _iri_token, is_escaped_id, unescape_id  # noqa: E402
from oced_forge.triple_query import TripleStore  # noqa: E402
from oced_forge.turtle_parser import _TurtleParser  # noqa: E402
from oced_forge.timeutil import (  # noqa: E402
    format_offset_millis,
    format_utc_millis,
    parse_instant,
    to_utc_millis,
)

from conftest import turtle_text  # noqa: E402
from oracles import (  # noqa: E402
    assert_utc_key_contract,
    reference_escape_id,
    reference_is_escaped_id,
    reference_langtag,
    reference_parse_instant,
    reference_prefixes_local,
    reference_records_to_jsonl,
    reference_unescape_id,
    tuple_order_turtle,
)

_code_points = st.one_of(
    st.integers(0xD7F0, 0xE010),  # around the surrogates
    st.integers(0x10FFF0, 0x110010),  # around the last code point
    st.integers(0, 0xFFFFFFFF),
)
_escape = st.one_of(
    _code_points.filter(lambda c: c <= 0xFFFF).map(lambda c: f"\\u{c:04X}"),
    _code_points.map(lambda c: f"\\U{c:08X}"),
    st.sampled_from(["\\u12", "\\U0001F60", "\\q", "\\", '\\"', "\\n", "\\t"]),
)
_body = st.lists(st.one_of(_escape, st.text(max_size=4)), max_size=6).map("".join)

_PREFIXES = (
    "@prefix ext: <https://w3id.org/ocedo/ext#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    "@prefix ex: <http://example.org/oced/> .\n"
)


def _document(body: str, layout: str) -> str:
    literal = f'"{body}"'
    if layout == "lines":  # one statement per line, as convert writes it
        return _PREFIXES + (
            "ex:n rdf:type ext:EventObject .\n"
            "ex:n ext:event ex:e .\n"
            "ex:n ext:object ex:o .\n"
            f"ex:n ext:classifier {literal} .\n"
            f"ex:e ext:event_type {literal} .\n"
        )
    grouped = _PREFIXES + (
        f"ex:n a ext:EventObject ; ext:event ex:e ; ext:object ex:o ;\n"
        f"    ext:classifier {literal} .\n"
        f"ex:e ext:event_type {literal} .\n"
    )
    if layout == "general":  # read with the fast path declining every statement
        return "PREFIX g: <http://g.example/>\n" + grouped
    return grouped


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI, with stdout a strict UTF-8 stream."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
        stdout.flush()
    return code, stderr.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    body=_body,
    layout=st.sampled_from(["lines", "grouped", "general"]),
    analysis=st.sampled_from(["event-objects", "teams"]),
)
def test_string_escapes_never_crash_analyze(tmp_path_factory, body, layout, analysis):
    path = tmp_path_factory.getbasetemp() / "escapes.ttl"
    path.write_bytes(_document(body, layout).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        if layout == "general":
            patch.setattr(_TurtleParser, "_fast_statements", lambda self, pos: pos)
        code, err = _run(["analyze", str(path), "--analysis", analysis, "--quiet"])
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("oced-forge: ") and err.count("\n") == 1, err


_offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)


@example(datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(hours=-5))))
@settings(max_examples=500, derandomize=True, deadline=None)
@given(moment=st.datetimes(timezones=_offsets))
def test_formatted_instants_parse_back_truncated(moment):
    try:
        truncated = to_utc_millis(moment)
    except OverflowError:  # the UTC instant falls outside years 1..9999
        assume(False)
    assert parse_instant(format_utc_millis(moment)) == truncated
    if abs(moment.utcoffset()) <= timedelta(hours=14):
        assert parse_instant(format_offset_millis(moment)) == truncated
    else:  # past xsd:dateTime's zone range
        with pytest.raises(ValueError):
            parse_instant(format_offset_millis(moment))


_TIMES = [
    "2012-01-01T10:00:00.000Z",
    "2012-01-01T11:00:00.000+01:00",
    "0001-01-01T00:30:00.000+01:00",  # UTC instant in year 0
    "9999-12-31T23:30:00.000-01:00",  # UTC instant in year 10000
    "0001-01-01T00:00:00-14:00",
    "9999-12-31T23:59:59.9999+14:00",
    "not a date",
]
_OBJECTS = st.one_of(
    st.sampled_from(_TIMES).map(lambda t: f'"{t}"^^xsd:dateTime'),
    # non-ASCII digits (one not even \d), numbers, stray punctuation and terms
    st.sampled_from(["²", "٣", "5٣", "+٣", ".²", "-2.5", "1e3", "true", ";", ",", "ex:x", '"s"@en', "<rel>"]),
)
_EVENTS = st.lists(
    st.tuples(st.sampled_from(["c1", "c2"]), st.sampled_from(["A", "B"]), _OBJECTS),
    min_size=1,
    max_size=5,
)


def _read_document(events) -> str:
    """Events with a case, a team and a time, each also an EventObject node."""
    lines = [
        "@prefix ocedo: <https://w3id.org/ocedo/core#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        _PREFIXES,
    ]
    for i, (case, team, time) in enumerate(events):
        lines.append(
            f"ex:e{i} a ext:T ; ext:event_case ex:{case} ; ext:handled_by_support_team ex:{team} ;\n"
            f"    ocedo:observed_at {time} .\n"
            f"ex:n{i} a ext:EventObject ; ext:event ex:e{i} ; ext:object ex:{case} ."
        )
    return "\n".join(lines) + "\n"


_READ_COMMANDS = [
    ["analyze", "--analysis", "ping-pong"],
    ["analyze", "--analysis", "event-objects"],
    ["analyze", "--analysis", "teams"],
    ["export-dot"],
    ["stats"],
]


@example(events=[("c1", "A", "²")])
@example(events=[("c1", "A", '"0001-01-01T00:30:00.000+01:00"^^xsd:dateTime')])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(events=_EVENTS)
def test_read_commands_never_crash(tmp_path_factory, events):
    path = tmp_path_factory.getbasetemp() / "read.ttl"
    path.write_bytes(_read_document(events).encode("utf-8"))
    for command in _READ_COMMANDS:
        code, err = _run([command[0], str(path), *command[1:]])
        assert code in (0, 3), err
        if code == 3:
            assert err.startswith("oced-forge: ") and err.count("\n") == 1, err


# Digits as \\d reads them: mostly ASCII, some Arabic-Indic and fullwidth,
# and a superscript, which \\d does not read.
_digit = st.one_of(st.sampled_from("0123456789"), st.sampled_from("٠١٢٣٩０９²"))


def _number(width: int, low: int, high: int):
    return st.one_of(
        st.integers(low, high).map(lambda n: f"{n:0{width}d}"),
        st.lists(_digit, min_size=width, max_size=width).map("".join),
    )


_offset_texts = st.one_of(
    st.sampled_from(["Z", "z", "-00:00", "+00:00", "+0100", "-0530", "+23:59", "+24:00", "+1:00", "", "+01:0"]),
    st.tuples(st.sampled_from("+-"), _number(2, 0, 25), st.sampled_from(["", ":"]), _number(2, 0, 61)).map("".join),
)
_instant_texts = st.tuples(
    st.sampled_from(["", " ", "\t", "\n "]),
    _number(4, 0, 10000),
    st.just("-"),
    _number(2, 0, 13),
    st.just("-"),
    _number(2, 0, 32),
    st.sampled_from("Tt "),
    _number(2, 0, 24),
    st.just(":"),
    _number(2, 0, 60),
    st.just(":"),
    _number(2, 0, 61),
    st.one_of(st.just(""), st.lists(_digit, min_size=0, max_size=10).map(lambda ds: "." + "".join(ds))),
    _offset_texts,
    st.sampled_from(["", " ", "\n", "x"]),
).map("".join)


@st.composite
def _timestamp_texts(draw):
    """An aware datetime written as a timestamp text: 0-9 fraction digits,
    and a zone as Z, z, +HH:MM or +HHMM."""
    moment = draw(st.datetimes(timezones=st.one_of(st.just(timezone.utc), _offsets)))
    digits = draw(st.integers(0, 9))
    fraction = (f"{moment.microsecond:06d}" + draw(st.text("0123456789", min_size=3, max_size=3)))[:digits]
    minutes = moment.utcoffset() // timedelta(minutes=1)
    sign, (hours, minutes) = "-" if minutes < 0 else "+", divmod(abs(minutes), 60)
    zones = [f"{sign}{hours:02d}:{minutes:02d}", f"{sign}{hours:02d}{minutes:02d}"]
    zone = draw(st.sampled_from(zones if hours or minutes else [*zones, "Z", "z"]))
    return moment.replace(tzinfo=None).isoformat(timespec="seconds") + ("." + fraction if fraction else "") + zone


# the form convert writes, with fields that may name no date or time
_canonical_shaped = st.tuples(
    st.sampled_from(["0000", "0001", "2011", "2012", "9999"]),
    st.sampled_from(["00", "01", "02", "12", "13"]),
    st.sampled_from(["00", "01", "28", "29", "30", "31", "32"]),
    st.sampled_from(["00", "23", "24"]),
    st.sampled_from(["00", "59", "60"]),
    st.sampled_from(["00", "59", "60"]),
    _number(3, 0, 999),
).map(lambda fields: "{}-{}-{}T{}:{}:{}.{}Z".format(*fields))


@example(texts=["0000-01-01T00:00:00.000Z", "2011-01-01T24:00:00.000Z", "2011-13-01T00:00:00.000Z"])
@example(texts=["2011-02-30T00:00:00.000Z", "2012-02-29T23:59:59.999Z", "2012-03-01T00:59:59.9995+01:00"])
@example(texts=["0001-01-01T00:30:00.0001+00:30", "0001-01-01T00:00:00.0002Z", "9999-12-31T23:59:59.9999999Z"])
@example(texts=["9999-12-31T23:30:00.000-01:00", "0001-01-01T00:30:00.000+01:00", "٢٠١١-٠٥-٠٢T08:00:00.000Z"])
@example(texts=["2012-01-01T10:00:00.000Z", "2012-01-01T11:00:00+01:00", "2012-01-01t10:00:00.000z"])
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(texts=st.lists(st.one_of(_timestamp_texts(), _canonical_shaped, _instant_texts), min_size=1, max_size=4))
def test_utc_key_orders_and_prints_as_the_instant(texts):
    assert_utc_key_contract(texts)


def _instant_outcome(parse, text):
    try:
        moment = parse(text)
    except ValueError as exc:
        return ValueError, str(exc)
    return moment, moment.utcoffset()


@example(text="2012-01-01T00:00:00.123456789Z")
@example(text=" 2012-01-01t00:00:00.1-00:00\n")
@example(text="٢٠١٢-٠١-٠١T٠٠:٠٠:٠٠.٥+٠١:٠٠")
@example(text="2012-01-01T00:00:00+24:00")
@example(text="2012-01-01T00:00:00.000+01:99")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(text=_instant_texts)
def test_parse_instant_equals_its_reference(text):
    assert _instant_outcome(parse_instant, text) == _instant_outcome(reference_parse_instant, text)


# characters at and below ' ' (some escaped in literals, some not), and
# quote, backslash and the IRI-illegal ones
_odd_text = st.text(st.sampled_from(["a", "Z", "0", "_", "-", "%", "é", " ", "\t", "\n", "\r", "\x00", "\x01",
                                     "\x1f", '"', "\\", "<", ">", ":", "."]), min_size=1, max_size=5)
_graph_ids = st.one_of(
    _odd_text.map(escape_id),
    st.from_regex(r"-[A-Za-z0-9_\-]{0,3}", fullmatch=True),  # not a prefixed name: written as <...>
    st.from_regex(r"(%[0-9A-Fa-f]{2}){1,2}[a-z]?", fullmatch=True),
)
_values = st.one_of(
    _odd_text.map(lambda text: TypedValue("string", text)),
    _odd_text.map(lambda text: TypedValue("id", text)),
    st.integers(-(2**63), 2**63 - 1).map(lambda n: TypedValue("int", n)),
    st.floats().map(lambda x: TypedValue("float", x)),
    st.booleans().map(lambda b: TypedValue("boolean", b)),
    st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 1, 1), timezones=_offsets).map(
        lambda moment: TypedValue("date", moment)
    ),
)


@st.composite
def _graphs(draw):
    graph = OcedGraph()
    objects = draw(st.lists(_graph_ids, unique=True, max_size=4))
    for object_id in objects:
        graph.add_object(OcedObject(object_id, draw(_odd_text)))
    events = draw(st.lists(_graph_ids, unique=True, max_size=4))
    for event_id in events:
        event_type = draw(_odd_text)
        attributes = draw(st.dictionaries(_odd_text, _values, max_size=3))
        if draw(st.booleans()):  # a passthrough attribute that repeats the event's ext:event_type
            attributes["event_type"] = TypedValue("string", event_type)
        moment = draw(st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 1, 1), timezones=_offsets))
        graph.add_event(OcedEvent(event_id, event_type, moment, attributes))
    if events and objects:
        for event_id, object_id, qualifier in draw(
            st.lists(
                st.tuples(st.sampled_from(events), st.sampled_from(objects), st.none() | _odd_text),
                unique=True,
                max_size=4,
            )
        ):
            graph.relate_event_object(event_id, object_id, qualifier)
    if len(objects) >= 2:
        for source, target in draw(st.lists(st.permutations(objects).map(lambda ids: ids[:2]), max_size=3)):
            graph.relate_objects(source, target, draw(_odd_text))
    return graph


def _turtle_outcome(render, graph):
    try:
        return render(graph)
    except SerializationError as exc:  # an id used by an event and an object, say
        return SerializationError, str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(graph=_graphs())
def test_rows_sorted_as_strings_are_in_token_tuple_order(graph):
    assert _turtle_outcome(turtle_text, graph) == _turtle_outcome(tuple_order_turtle, graph)


# -- escaped ids -------------------------------------------------------------

# pieces around the rules' edges: a '%' without two hex digits, lower-case
# hex, escapes that are not UTF-8, a leading '-', characters outside the alphabet
_ID_PIECES = ["a", "Z", "0", "f", "F", "g", "_", "-", "%", "%4", "%41", "%C3", "%a9", "%e2%82%ac", "%FF", "%25",
              "é", " ", "\n", "/"]
_id_texts = st.lists(st.sampled_from(_ID_PIECES), max_size=8).map("".join)


def _unicode_outcome(code, text):
    try:
        return code(text)
    except UnicodeError as exc:
        return type(exc)


@example(raw="a\udc80")
@example(raw="\U0010ffff\x7f\x80")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(raw=st.text(st.one_of(st.characters(), st.sampled_from(["\ud800", "\udfff", "%", "-"]))))
def test_escape_id_equals_its_reference(raw):
    assert _unicode_outcome(escape_id, raw) == _unicode_outcome(reference_escape_id, raw)


@example(text="")
@example(text="-")
@example(text="a\n")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(text=_id_texts)
def test_is_escaped_id_accepts_what_the_graph_model_accepted(text):
    assert is_escaped_id(text) == reference_is_escaped_id(text)


def _prefixed(local: str) -> bool:
    try:
        return _iri_token(EX + local).startswith("ex:")
    except SerializationError:  # written as <...>, which holds a character Turtle forbids
        return False


@example(local="-a")
@example(local="a-")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(local=_id_texts)
def test_writer_prefixes_the_local_names_it_prefixed(local):
    assert _prefixed(local) == reference_prefixes_local(local)


# absolute IRIs (RFC 3986's scheme, then RDF 1.1 Turtle's IRIREF characters),
# literal text the writer escapes nothing in, and RDF 1.1 Turtle's LANGTAG
_absolute_iris = st.builds(
    str.__add__,
    st.from_regex(r"[A-Za-z][A-Za-z0-9+.\-]*:", fullmatch=True),
    st.text(st.characters(min_codepoint=0x21, exclude_categories=("Cs",), exclude_characters='<>"{}|^`\\')),
).map(Iri)
_unescaped_text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters='"\\\n\r\t'))
_written_terms = st.one_of(
    _absolute_iris,
    st.builds(TypedLiteral, _unescaped_text, _absolute_iris),
    st.builds(PlainLiteral, _unescaped_text, st.from_regex(r"[A-Za-z]+(-[A-Za-z0-9]+)*", fullmatch=True)),
)


def _fast_path(text: str) -> _TurtleParser:
    """A parser of text, the table's prefixes bound, whose fast path has
    read what it reads of text."""
    parser = _TurtleParser(text)
    for prefix, namespace in PREFIXES:
        parser._bind(prefix, namespace)
    parser.pos = parser._fast_statements(0)
    return parser


@settings(max_examples=500, derandomize=True, deadline=None)
@given(subject=_absolute_iris, term=_written_terms)
def test_both_readers_read_each_written_token_as_its_term(subject, term):
    """The writer's tokens for an IRI, a typed literal and a language-tagged
    literal read back as the same terms by the fast path, and by the general
    reader when an escaped string first in the statement makes the fast path
    decline it."""
    triple = Triple(subject, Iri(EX + "p"), term)
    text = write_turtle(TripleStore([triple]))
    row = text.rpartition("\n\n")[2]
    fast = _fast_path(row)
    assert fast.pos == len(row)
    assert set(fast.store) == {triple}

    subject_token, predicate_token, rest = row.split(" ", 2)
    declined = f'{subject_token} {predicate_token} "\\t", {rest}'
    assert _fast_path(declined).pos == 0
    general = parse_turtle(text.replace(row, declined))
    assert set(general) == {triple, (subject, triple.predicate, PlainLiteral("\t"))}


@example(text="q%4")
@example(text="%C3%A9%C3")
@example(text="é%C3%A9%41A-%e2%82%ac")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(text=_id_texts)
def test_unescape_id_equals_its_reference_or_rejects_a_bad_percent(text):
    if any(not re.fullmatch("[0-9A-Fa-f]{2}", text[i + 1 : i + 3]) for i, c in enumerate(text) if c == "%"):
        with pytest.raises(ValueError, match="does not start a %XX escape"):
            unescape_id(text)
    else:
        assert _unicode_outcome(unescape_id, text) == _unicode_outcome(reference_unescape_id, text)


# -- language tags -----------------------------------------------------------

# pieces around LANGTAG's edges: an empty, doubled or trailing '-', a digit in
# the first subtag, characters outside ASCII letters and digits
_TAG_PIECES = ["a", "Z", "en", "0", "9", "-", "_", " ", "é", "\n"]


@example(tag="en-")
@example(tag="x1")
@example(tag="de-CH-1996")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(tag=st.lists(st.sampled_from(_TAG_PIECES), max_size=8).map("".join))
def test_langtag_equals_its_reference(tag):
    assert (re.fullmatch(_LANGTAG, tag) is not None) == reference_langtag(tag)


# -- JSONL -------------------------------------------------------------------

# few characters and short texts, so cells repeat and the writer's memo is
# hit: non-ASCII, quotes, backslashes, control characters, U+2028
_JSON_CHARACTERS = ["a", "é", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "💡"]
_JSON_TEXTS = st.one_of(st.none(), st.text(st.sampled_from(_JSON_CHARACTERS), max_size=3))
_JSON_COLUMNS = ("text", "one", "zero", 'k\u00e9y"\\')
# True == 1 and False == 0 hash alike, so a memo keyed on the value alone
# would write one where the other is
_JSON_RECORDS = st.lists(
    st.tuples(_JSON_TEXTS, st.sampled_from([True, 1, 2, None]), st.sampled_from([False, 0, None]), _JSON_TEXTS),
    max_size=12,
)


@example(records=[("a", True, False, None), ("a", 1, 0, None), ("a", True, False, None)])
@example(records=[("a", 1, 0, None), ("a", True, False, None)])
# columns of str and None cells are memoized on the cell alone: an all-None
# column, and text that reads like the bool beside it
@example(records=[(None, None, None, None), (None, 2, 0, None)])
@example(records=[("true", True, False, "1"), ("1", 1, 0, "true"), ("true", True, None, "false")])
@example(records=[])
@settings(max_examples=500, derandomize=True, deadline=None)
@given(records=_JSON_RECORDS)
def test_records_to_jsonl_equals_one_dumps_per_record(records):
    assert records_to_jsonl(records, _JSON_COLUMNS) == reference_records_to_jsonl(records, _JSON_COLUMNS)

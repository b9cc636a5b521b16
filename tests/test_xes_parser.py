import gzip
import random
import zlib
from datetime import datetime, timedelta, timezone

import pytest

from oced_forge import TypedValue, XesParseError, XesStructureError, parse_xes

from conftest import BPIC_STYLE_XES
from oracles import fromstring_parse_xes
from xes_writer import write_xes

MINIMAL = b'<log xes.version="1.0"/>'

ONE_EVENT = b"""<?xml version="1.0"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="c1"/>
    <event>
      <string key="concept:name" value="Accepted"/>
      <date key="time:timestamp" value="2012-01-01T10:00:00.000+01:00"/>
      <string key="org:group" value="V3_2"/>
    </event>
  </trace>
</log>
"""


def _event_attributes(body: str):
    """The attributes parse_xes reads from one event holding body, by key."""
    log = parse_xes(f'<log xes.version="1.0"><trace><event>{body}</event></trace></log>'.encode())
    return log.traces[0].events[0]


def test_minimal_log():
    log = parse_xes(MINIMAL)
    assert log.traces == ()
    assert log.warnings == ()


def test_one_event_fixture():
    log = parse_xes(ONE_EVENT)
    assert len(log.traces) == 1
    trace = log.traces[0]
    assert len(trace.events) == 1
    event = trace.events[0]
    assert len(event) == 3
    stamp = event.get("time:timestamp")
    assert stamp.kind == "date"
    # 10:00+01:00 is 09:00Z; independent expectation, not derived from the parser
    assert stamp.value == datetime(2012, 1, 1, 9, 0, tzinfo=timezone.utc)
    assert stamp.value.utcoffset() == timedelta(hours=1)
    assert event.get("concept:name").value == "Accepted"


def test_duplicate_event_key_is_structural_error():
    doc = b"""<log xes.version="1.0"><trace><event>
      <string key="concept:name" value="a"/>
      <string key="concept:name" value="b"/>
    </event></trace></log>"""
    with pytest.raises(XesStructureError, match="duplicate key 'concept:name'"):
        parse_xes(doc)


def test_malformed_xml_reports_location():
    with pytest.raises(XesParseError) as info:
        parse_xes(b"<log><trace></log>")
    assert info.value.line == 1
    assert info.value.column is not None


def test_bad_date_names_key_and_text():
    doc = b'<log xes.version="1.0"><trace><event><date key="time:timestamp" value="yesterday"/></event></trace></log>'
    with pytest.raises(XesStructureError, match="time:timestamp.*yesterday"):
        parse_xes(doc)


def test_date_requires_zone_offset():
    doc = b'<log xes.version="1.0"><trace><event><date key="t" value="2012-01-01T10:00:00.000"/></event></trace></log>'
    with pytest.raises(XesStructureError):
        parse_xes(doc)


def test_list_attribute_rejected():
    doc = b'<log xes.version="1.0"><trace><event><list key="many"><values/></list></event></trace></log>'
    with pytest.raises(XesStructureError, match="list"):
        parse_xes(doc)


def test_unknown_element_warns_but_parses():
    doc = b'<log xes.version="1.0"><mystery/><trace><event><string key="k" value="v"/></event></trace></log>'
    log = parse_xes(doc)
    assert log.event_count == 1
    assert any("mystery" in w for w in log.warnings)


def test_duplicate_extension_prefix_rejected():
    doc = (
        b'<log xes.version="1.0">'
        b'<extension name="A" prefix="p" uri="http://a"/>'
        b'<extension name="B" prefix="p" uri="http://b"/>'
        b"</log>"
    )
    with pytest.raises(XesStructureError, match="duplicate extension prefix"):
        parse_xes(doc)


def test_gzip_detected_by_magic_bytes():
    plain = parse_xes(ONE_EVENT)
    zipped = parse_xes(gzip.compress(ONE_EVENT))
    assert zipped == plain


def _corrupt_gzip(data: bytes) -> bytes:
    """gzip of data with one byte of the deflate stream flipped."""
    zipped = bytearray(gzip.compress(data))
    zipped[12] ^= 0xFF
    return bytes(zipped)


def test_corrupt_gzip_is_a_parse_error():
    corrupt = _corrupt_gzip(ONE_EVENT)
    with pytest.raises(zlib.error):
        gzip.decompress(corrupt)
    with pytest.raises(XesParseError, match="bad gzip stream"):
        parse_xes(corrupt)


def test_int_parsing_and_64bit_range():
    assert _event_attributes('<int key="n" value="-42"/>')["n"].value == -42
    with pytest.raises(XesStructureError, match="64-bit"):
        parse_xes(b'<log xes.version="1.0"><int key="n" value="9223372036854775808"/></log>')


def test_boolean_and_float_values():
    attributes = _event_attributes('<boolean key="b" value="true"/><float key="f" value="1.5"/>')
    assert attributes["b"].value is True
    assert attributes["f"].value == 1.5


@pytest.mark.parametrize(
    "kind, raw",
    [("int", "1_2"), ("int", "١٢"), ("int", "１２"), ("float", "1_000.5"), ("float", "١.٥")],
)
def test_digit_separators_and_non_ascii_digits_rejected(kind, raw):
    doc = f'<log xes.version="1.0"><{kind} key="org:group" value="{raw}"/></log>'.encode()
    with pytest.raises(XesStructureError, match=f"unparseable {kind} for key 'org:group': '{raw}'"):
        parse_xes(doc)


@pytest.mark.parametrize("kind, raw", [("float", "abc"), ("boolean", "yes")])
def test_unparseable_float_and_boolean_name_key_and_text(kind, raw):
    doc = f'<log xes.version="1.0"><{kind} key="org:group" value="{raw}"/></log>'.encode()
    with pytest.raises(XesStructureError, match=f"unparseable {kind} for key 'org:group': '{raw}'"):
        parse_xes(doc)


@pytest.mark.parametrize(
    "kind, raw, value",
    [("int", " 12 ", 12), ("int", "+7", 7), ("float", "inf", float("inf")), ("float", "-1.5e3 ", -1500.0)],
)
def test_numbers_keep_surrounding_whitespace_signs_and_infinity(kind, raw, value):
    assert _event_attributes(f'<{kind} key="n" value="{raw}"/>')["n"].value == value


def test_float_nan_accepted():
    (nan,) = _event_attributes('<float key="n" value="NaN"/>').values()
    assert nan.value != nan.value


NESTED_PLACES = {
    "log": '<log xes.version="1.0">{}</log>',
    "global": '<log xes.version="1.0"><global scope="event">{}</global></log>',
    "trace": '<log xes.version="1.0"><trace>{}</trace></log>',
    "event": '<log xes.version="1.0"><trace><event>{}</event></trace></log>',
}


@pytest.mark.parametrize("place", sorted(NESTED_PLACES))
def test_nested_attributes_are_checked_but_not_kept(place):
    def nested(inner):
        doc = NESTED_PLACES[place].format(
            f'<string key="outer" value="o"><string key="mid" value="m">{inner}</string></string>'
        )
        return doc.encode()

    with pytest.raises(XesStructureError, match="unparseable int for key 'inner': 'x'"):
        parse_xes(nested('<int key="inner" value="x"/>'))
    with pytest.raises(XesStructureError, match="<int> element for key 'inner' without a value"):
        parse_xes(nested('<int key="inner"/>'))
    log = parse_xes(nested('<widget><int key="inner" value="x"/></widget><gadget/>'))
    assert log.warnings == ("skipped unknown element <widget>", "skipped unknown element <gadget>")
    if place == "event":
        assert log.traces[0].events[0] == {"outer": TypedValue("string", "o")}


def test_event_count_matches_raw_element_count(bpic_xes_bytes):
    log = parse_xes(bpic_xes_bytes)
    # independent count straight off the source text
    assert log.event_count == bpic_xes_bytes.count(b"<event>")


def test_same_instant_different_zones_compare_equal():
    (a,) = _event_attributes('<date key="t" value="2012-01-01T10:00:00.000+01:00"/>').values()
    (b,) = _event_attributes('<date key="t" value="2012-01-01T09:00:00.000Z"/>').values()
    assert a.value == b.value


class TestRoundTrip:
    def test_fixture_round_trips_structurally(self, bpic_xes_bytes):
        log = parse_xes(bpic_xes_bytes)
        again = parse_xes(write_xes(log).encode("utf-8"))
        assert again == log

    def test_one_event_round_trips(self):
        log = parse_xes(ONE_EVENT)
        assert parse_xes(write_xes(log).encode("utf-8")) == log

    def test_date_literal_round_trips_at_millisecond_precision(self):
        doc = (
            b'<log xes.version="1.0"><trace><event>'
            b'<date key="t" value="2012-06-01T12:34:56.789+05:30"/></event></trace></log>'
        )
        log = parse_xes(doc)
        text = write_xes(log)
        assert 'value="2012-06-01T12:34:56.789+05:30"' in text
        assert parse_xes(text.encode("utf-8")) == log

    def test_special_characters_survive(self):
        doc = (
            '<log xes.version="1.0"><trace>'
            '<string key="k" value="a&amp;b &lt;c&gt; &quot;d&quot;"/></trace></log>'
        )
        log = parse_xes(doc.encode("utf-8"))
        assert log.traces[0].attributes["k"].value == 'a&b <c> "d"'
        assert parse_xes(write_xes(log).encode("utf-8")) == log


def _many_traces(copies: int) -> bytes:
    """The fixture log with its traces repeated, long enough that the
    reader sees it in several chunks."""
    head, _, rest = BPIC_STYLE_XES.partition("  <trace>")
    traces, _, tail = ("  <trace>" + rest).rpartition("</log>")
    return (head + traces * copies + tail + "</log>\n").encode("utf-8")


def _outcome(parse, data: bytes):
    try:
        log = parse(data)
    except Exception as exc:  # the comparison covers every way either reader can end
        return ("raised", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    return ("parsed", log, log.warnings)


_FILLER = '<trace><string key="concept:name" value="filler"/><event/></trace>' * 1500
STREAMING_CORPUS = {
    "syntax error after a structural error": (
        b'<log xes.version="1.0"><trace><int key="n" value="x"/></trace><trace></log>'
    ),
    "syntax error chunks after a structural error": (
        '<log xes.version="1.0"><trace><int key="n" value="x"/></trace>' + _FILLER + "<trace></log>"
    ).encode(),
    "structural error chunks after a warning": (
        '<log xes.version="1.0"><widget/>' + _FILLER + '<trace><list key="l"/></trace></log>'
    ).encode(),
    "wrong root followed by a syntax error": b"<foo><bar></foo>",
    "wrong root": b'<foo xes.version="1.0"><trace/></foo>',
    "truncated document": b'<log xes.version="1.0"><trace><event>',
    "truncated after the root": b'<log xes.version="1.0"><trace/></log',
    "empty document": b"",
    "junk after the root": b'<log xes.version="1.0"/>junk',
    "second root element": b"<log/><log/>",
    "undefined entity": b'<log><string key="k" value="&nope;"/></log>',
    "duplicate extension prefix": (
        b'<log xes.version="1.0"><extension name="A" prefix="p" uri="u1"/>'
        b'<extension name="B" prefix="p" uri="u2"/></log>'
    ),
    "list attribute": b'<log xes.version="1.0"><trace><list key="l"><string key="a" value="b"/></list></trace></log>',
    "duplicate event key": (
        b'<log xes.version="1.0"><trace><event><string key="k" value="1"/>'
        b'<string key="k" value="2"/></event></trace></log>'
    ),
    "warnings in document order": (
        b'<log><mystery/><trace><widget/><event><gadget/></event></trace>'
        b'<extension name="x"/><global scope="odd"/><classifier name="c"/>'
        b'<global scope="event"><string key="g" value="v"/><thing/></global></log>'
    ),
    "byte order mark and encoding declaration": (
        b'\xef\xbb\xbf<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">'
        b'<trace><string key="k" value="\xc3\xa9"/></trace></log>'
    ),
    "latin-1 declaration": (
        '<?xml version="1.0" encoding="ISO-8859-1"?><log xes.version="1.0">'
        '<trace><string key="k" value="\u00e9"/></trace></log>'
    ).encode("latin-1"),
    "utf-16 with byte order mark": (
        '<?xml version="1.0" encoding="UTF-16"?><log xes.version="1.0">'
        '<trace><string key="k" value="\u65e5\u672c"/></trace></log>'
    ).encode("utf-16"),
    "default namespace": b'<log xmlns="http://www.xes-standard.org/" xes.version="1.0"><trace/></log>',
    "gzip": gzip.compress(BPIC_STYLE_XES.encode()),
    "truncated gzip": gzip.compress(BPIC_STYLE_XES.encode())[:-12],
    "corrupt gzip": _corrupt_gzip(BPIC_STYLE_XES.encode()),
    "fixture over several chunks": _many_traces(12),
    "undeclared entity after an external DTD subset": b'<!DOCTYPE log SYSTEM "x.dtd"><log>&e;</log>',
    "undeclared entity after a parameter entity": (
        b'<!DOCTYPE log [<!ENTITY % p "x"> %p;]><log xes.version="1.0">\n  &e;</log>'
    ),
    "external entity": b'<!DOCTYPE log [<!ENTITY e SYSTEM "file:///etc/passwd">]><log>&e;</log>',
    "external entity in a trace after a structural error": (
        b'<!DOCTYPE log [<!ENTITY e SYSTEM "file:///etc/passwd">]><log xes.version="1.0">'
        b'<trace><int key="n" value="x"/></trace><trace>&e;</trace></log>'
    ),
    "external entity inside internal ones": (
        b'<!DOCTYPE log [<!ENTITY e SYSTEM "x.xml"><!ENTITY a "1&e;"><!ENTITY b "2&a;">'
        b'<!ENTITY c "3&b;">]><log xes.version="1.0">\n <trace>&c;</trace></log>'
    ),
    "undeclared entity name over 100 bytes": (
        '<!DOCTYPE log SYSTEM "x.dtd"><log>&' + "\u00e9" * 60 + ";</log>"
    ).encode(),
    "external parameter entity only": (
        b'<!DOCTYPE log [<!ENTITY % q SYSTEM "q.dtd"> %q;]><log xes.version="1.0"/>'
    ),
    "duplicate event key holding a nested error": (
        b'<log xes.version="1.0"><trace><event><string key="k" value="1"/>'
        b'<string key="k" value="2"><int key="n" value="x"/></string></event></trace></log>'
    ),
}


class TestStreamingReader:
    """parse_xes reads the document as a stream; the whole-document reader in
    tests/oracles.py is its reference for the result and for the error."""

    @pytest.mark.parametrize("name", sorted(STREAMING_CORPUS))
    def test_hand_corpus_matches_whole_document_reader(self, name):
        data = STREAMING_CORPUS[name]
        assert _outcome(parse_xes, data) == _outcome(fromstring_parse_xes, data)

    def test_seeded_truncations_and_byte_flips_match_whole_document_reader(self):
        base = _many_traces(8)
        rng = random.Random(20260601)
        kinds = []
        for i in range(300):
            if i % 2 == 0:
                data = base[: rng.randrange(len(base))]
            else:
                mutated = bytearray(base)
                for _ in range(rng.randint(1, 3)):
                    mutated[rng.randrange(len(mutated))] = rng.choice(b'<>/"=&\x00\xff a7-:')
                data = bytes(mutated)
            expected = _outcome(fromstring_parse_xes, data)
            assert _outcome(parse_xes, data) == expected, f"mutation {i}"
            kinds.append(expected[1] if expected[0] == "raised" else "parsed")
        assert kinds.count(XesParseError) >= 100
        assert kinds.count(XesStructureError) >= 5
        assert kinds.count("parsed") >= 20

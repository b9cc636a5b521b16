import gzip
from datetime import datetime, timedelta, timezone

import pytest

from oced_forge import XesParseError, XesStructureError, parse_xes

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


def test_minimal_log():
    log = parse_xes(MINIMAL)
    assert log.xes_version == "1.0"
    assert log.traces == ()
    assert log.extensions == ()


def test_one_event_fixture():
    log = parse_xes(ONE_EVENT)
    assert len(log.traces) == 1
    trace = log.traces[0]
    assert len(trace.events) == 1
    event = trace.events[0]
    assert len(event.attributes) == 3
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


def test_int_parsing_and_64bit_range():
    ok = parse_xes(b'<log xes.version="1.0"><int key="n" value="-42"/></log>')
    assert ok.attributes[0].value == -42
    with pytest.raises(XesStructureError, match="64-bit"):
        parse_xes(b'<log xes.version="1.0"><int key="n" value="9223372036854775808"/></log>')


def test_boolean_and_float_values():
    log = parse_xes(
        b'<log xes.version="1.0"><boolean key="b" value="true"/><float key="f" value="1.5"/></log>'
    )
    assert log.attributes[0].value is True
    assert log.attributes[1].value == 1.5


def test_nested_attributes_preserved():
    doc = b"""<log xes.version="1.0">
      <string key="outer" value="o"><int key="inner" value="3"/></string>
    </log>"""
    log = parse_xes(doc)
    outer = log.attributes[0]
    assert outer.children[0].key == "inner"
    assert outer.children[0].value == 3


def test_event_count_matches_raw_element_count(bpic_xes_bytes):
    log = parse_xes(bpic_xes_bytes)
    # independent count straight off the source text
    assert log.event_count == bpic_xes_bytes.count(b"<event>")


def test_same_instant_different_zones_compare_equal():
    a = parse_xes(b'<log xes.version="1.0"><date key="t" value="2012-01-01T10:00:00.000+01:00"/></log>')
    b = parse_xes(b'<log xes.version="1.0"><date key="t" value="2012-01-01T09:00:00.000Z"/></log>')
    assert a.attributes[0].value == b.attributes[0].value


class TestRoundTrip:
    def test_fixture_round_trips_structurally(self, bpic_xes_bytes):
        log = parse_xes(bpic_xes_bytes)
        again = parse_xes(write_xes(log).encode("utf-8"))
        assert again == log

    def test_one_event_round_trips(self):
        log = parse_xes(ONE_EVENT)
        assert parse_xes(write_xes(log).encode("utf-8")) == log

    def test_date_literal_round_trips_at_millisecond_precision(self):
        doc = b'<log xes.version="1.0"><date key="t" value="2012-06-01T12:34:56.789+05:30"/></log>'
        log = parse_xes(doc)
        text = write_xes(log)
        assert 'value="2012-06-01T12:34:56.789+05:30"' in text
        assert parse_xes(text.encode("utf-8")) == log

    def test_special_characters_survive(self):
        doc = '<log xes.version="1.0"><string key="k" value="a&amp;b &lt;c&gt; &quot;d&quot;"/></log>'
        log = parse_xes(doc.encode("utf-8"))
        assert log.attributes[0].value == 'a&b <c> "d"'
        assert parse_xes(write_xes(log).encode("utf-8")) == log

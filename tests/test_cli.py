import errno
import gzip
import json
import os
import resource
import signal
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from oced_forge import (
    OcedEvent,
    OcedGraph,
    OcedObject,
    TripleStore,
    Var,
    graph_to_triples,
    parse_turtle,
    parse_xes,
    transform_log,
    write_turtle,
)
from oced_forge.cli import main
from oced_forge.xes_parser import MAX_OPEN_ELEMENTS

from conftest import BPIC_STYLE_XES, cli_env


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_turtle_output_matches_in_memory_pipeline(self, bpic_xes_path, tmp_path, capsys):
        out = tmp_path / "out.ttl"
        code, _, err = run(["convert", str(bpic_xes_path), "--output", str(out)], capsys)
        assert code == 0
        store = parse_turtle(out.read_text())
        graph, _ = transform_log(parse_xes(bpic_xes_path.read_bytes()))
        assert set(store.triples()) == set(graph_to_triples(graph).triples())
        assert "events emitted" in err

    def test_gzip_input_same_output(self, bpic_xes_bytes, tmp_path, capsys):
        plain = tmp_path / "a.xes"
        plain.write_bytes(bpic_xes_bytes)
        zipped = tmp_path / "a.xes.gz"
        zipped.write_bytes(gzip.compress(bpic_xes_bytes))
        code1, out1, _ = run(["convert", str(plain)], capsys)
        code2, out2, _ = run(["convert", str(zipped)], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(["convert", "/no/such/file.xes"], capsys)
        assert code == 2
        assert "file" in err.lower()

    @pytest.mark.parametrize("command", [["convert", "xes"], ["analyze", "ttl", "--analysis", "teams"]])
    def test_output_in_a_missing_directory_exits_74(
        self, command, bpic_xes_path, converted_ttl, tmp_path, capsys
    ):
        source = bpic_xes_path if command[1] == "xes" else converted_ttl
        target = tmp_path / "missing" / "out"
        code, out, err = run([command[0], str(source), *command[2:], "-o", str(target), "-q"], capsys)
        assert (code, out) == (74, "")
        assert err == f"oced-forge: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(target)!r}\n"

    def test_bad_xml_exits_3_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.xes"
        bad.write_text("<log><trace></log>")
        code, _, err = run(["convert", str(bad)], capsys)
        assert code == 3
        assert "line" in err

    def test_quiet_suppresses_summary(self, bpic_xes_path, capsys):
        _, _, err = run(["convert", str(bpic_xes_path), "--quiet"], capsys)
        assert err == ""

    def test_skipped_events_still_exit_0(self, bpic_xes_path, capsys):
        code, _, err = run(["convert", str(bpic_xes_path)], capsys)
        assert code == 0
        assert "skipped trace 2 event 1: missing timestamp" in err

    def test_custom_config(self, bpic_xes_path, tmp_path, capsys):
        config = tmp_path / "map.json"
        config.write_text(
            json.dumps(
                {
                    "config_version": 1,
                    "object_rules": [
                        {
                            "xes_key": "org:resource",
                            "object_type": "resource",
                            "eo_qualifier": "performed_by",
                        }
                    ],
                }
            )
        )
        code, out, _ = run(["convert", str(bpic_xes_path), "--config", str(config)], capsys)
        assert code == 0
        assert "ext:performed_by" in out
        assert "handled_by_support_team" not in out

    def test_passthrough_date_out_of_range_keeps_event(self, tmp_path, capsys):
        xes = tmp_path / "one.xes"
        xes.write_text(
            '<log xes.version="1.0"><trace><string key="concept:name" value="c1"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>'
            '<date key="seen" value="9999-12-31T23:59:59.000-05:00"/>'
            "</event></trace></log>"
        )
        config = tmp_path / "map.json"
        config.write_text(json.dumps({"config_version": 1, "attribute_passthrough": ["seen"]}))
        code, out, err = run(["convert", str(xes), "--config", str(config)], capsys)
        assert code == 0
        assert "ex:e1 ext:event_case ex:c1 ." in out
        assert "ext:seen" not in out
        assert "1 events emitted, 0 skipped" in err and "1 warnings" in err

    def test_int_group_with_digit_separator_exits_3(self, tmp_path, capsys):
        # read as int() would, "1_2" is group 12 and the trace would bounce 12 -> 3 -> 12
        events = "".join(
            f'<event><date key="time:timestamp" value="2012-01-01T{hour}:00:00.000Z"/>'
            f'<int key="org:group" value="{group}"/></event>'
            for hour, group in (("10", "12"), ("11", "3"), ("12", "1_2"))
        )
        xes = tmp_path / "one.xes"
        xes.write_text(
            f'<log xes.version="1.0"><trace><string key="concept:name" value="c1"/>{events}</trace></log>'
        )
        code, out, err = run(["convert", str(xes)], capsys)
        assert code == 3
        assert out == ""
        assert err == "oced-forge: unparseable int for key 'org:group': '1_2'\n"

    @pytest.mark.parametrize(
        "trace, event, expected",
        [
            ('value=""', 'value="Queued"', "ex:trace_0 rdf:type ext:case ."),
            ('value="c1"', 'value=""', "ex:e1 rdf:type ext:unknown ."),
        ],
        ids=["empty case id", "empty event type"],
    )
    def test_empty_name_takes_the_default(self, trace, event, expected, tmp_path, capsys):
        xes = tmp_path / "one.xes"
        xes.write_text(
            f'<log xes.version="1.0"><trace><string key="concept:name" {trace}/><event>'
            f'<string key="concept:name" {event}/>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        code, out, err = run(["convert", str(xes)], capsys)
        assert code == 0
        assert "Traceback" not in err
        assert expected in out

    def test_repeated_trace_key_keeps_its_first_value(self, tmp_path, capsys):
        xes = tmp_path / "one.xes"
        xes.write_bytes(
            b'<log xes.version="1.0"><trace><string key="concept:name" value="first"/>'
            b'<string key="concept:name" value="second"/><event>'
            b'<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        (trace,) = parse_xes(xes.read_bytes()).traces
        assert trace.attributes["concept:name"].value == "first"
        code, out, err = run(["convert", str(xes)], capsys)
        assert code == 0
        assert "ex:e1 ext:event_case ex:first ." in out
        assert "second" not in out
        # a later repeat is not kept, but its value is still checked
        second = b'<string key="concept:name" value="second"/>'
        xes.write_bytes(xes.read_bytes().replace(second, b'<int key="concept:name" value="x"/>'))
        code, _, err = run(["convert", str(xes)], capsys)
        assert code == 3
        assert err == "oced-forge: unparseable int for key 'concept:name': 'x'\n"

    def test_object_type_outside_id_alphabet_is_escaped(self, tmp_path, capsys):
        xes = tmp_path / "one.xes"
        xes.write_text(
            '<log xes.version="1.0"><trace><string key="concept:name" value="c1"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>'
            '<string key="org:group" value="G1"/></event></trace></log>'
        )
        rule = {"xes_key": "org:group", "object_type": "support team", "eo_qualifier": "handled"}
        config = tmp_path / "map.json"
        config.write_text(json.dumps({"config_version": 1, "object_rules": [rule]}))
        code, out, err = run(["convert", str(xes), "--config", str(config)], capsys)
        assert code == 0
        assert "Traceback" not in err
        assert "ex:support%20team_G1 rdf:type ext:support%20team ." in out
        assert "ex:e1 ext:handled ex:support%20team_G1 ." in out

    @pytest.mark.parametrize("version, shown", [(7, "7"), (True, "True"), (1.0, "1.0")])
    def test_invalid_config_exits_2(self, version, shown, bpic_xes_path, tmp_path, capsys):
        config = tmp_path / "map.json"
        config.write_text(json.dumps({"config_version": version}))
        code, out, err = run(["convert", str(bpic_xes_path), "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"oced-forge: {config}: config_version must be 1, got {shown}\n"

    @pytest.mark.parametrize("field", ["case_eo_qualifier", "eo_qualifier", "oo_qualifier"])
    @pytest.mark.parametrize("name", ["object_type", "event_type", "classifier"])
    def test_qualifier_named_like_a_fixed_predicate_exits_2(self, field, name, bpic_xes_path, tmp_path, capsys):
        rule = {"xes_key": "org:group", "object_type": "team", "eo_qualifier": "handled", "oo_qualifier": "involves"}
        if field == "case_eo_qualifier":
            fields, shown = {"case_eo_qualifier": name}, field
        else:
            fields, shown = {"object_rules": [{**rule, field: name}]}, f"object_rules[0].{field}"
        config = tmp_path / "map.json"
        config.write_text(json.dumps({"config_version": 1, **fields}))
        out_path = tmp_path / "out.ttl"
        code, out, err = run(["convert", str(bpic_xes_path), "--config", str(config), "-o", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"oced-forge: {shown} {name!r} names a fixed ext: predicate\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"object_rules": 5},
            {"object_rules": None},
            {"case_object_type": 5},
            {"attribute_passthrough": 7},
            {"event_type_keys": "concept:name"},
            {"event_type_keys": None},
            {"attribute_passthrough": None},
            {"object_rules": [{"xes_key": 5, "object_type": "team", "eo_qualifier": "q"}]},
            {"case_id_key": ["x"]},
            {"case_object_type": "\ud800"},
            {"object_rules": [{"xes_key": "k", "object_type": "t\udc80", "eo_qualifier": "q"}]},
            {"object_rules": [{"xes_key": "k", "object_type": "t", "eo_qualifier": "q", "oo_qualifier": ""}]},
        ],
        ids=lambda fields: json.dumps(fields),
    )
    def test_ill_typed_config_exits_2(self, fields, bpic_xes_path, tmp_path, capsys):
        config = tmp_path / "map.json"
        config.write_text(json.dumps({"config_version": 1, **fields}))
        code, out, err = run(["convert", str(bpic_xes_path), "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("oced-forge: ") and err.count("\n") == 1, err

    def test_config_not_utf8_exits_2(self, bpic_xes_path, tmp_path, capsys):
        config = tmp_path / "map.json"
        config.write_bytes(b'{"config_version": 1, "case_object_type": "\xff"}')
        code, out, err = run(["convert", str(bpic_xes_path), "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"oced-forge: {config}: not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_deeply_nested_config_exits_2(self, bpic_xes_path, tmp_path, capsys):
        config = tmp_path / "map.json"
        config.write_text("[" * 200_000)
        code, out, err = run(["convert", str(bpic_xes_path), "--config", str(config)], capsys)
        assert (code, out, err) == (2, "", f"oced-forge: {config}: JSON nested too deeply\n")

    @pytest.mark.parametrize(
        "case, kind", [("e1", "event and object"), ("eo_1", "object and relation")]
    )
    def test_case_id_colliding_with_a_generated_id_exits_2(self, case, kind, tmp_path, capsys):
        xes = tmp_path / "one.xes"
        xes.write_text(
            f'<log xes.version="1.0"><trace><string key="concept:name" value="{case}"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        code, out, err = run(["convert", str(xes)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"oced-forge: id {case!r} is used as both {kind}; "
            "ids share one IRI namespace in Turtle output\n"
        )

    def test_case_named_like_an_object_object_relation_id_is_an_ordinary_case(self, tmp_path, capsys):
        """Object-object relations are written as direct qualifier triples, so
        their minted oo_<n> ids never reach the Turtle and a case may take one."""
        events = "".join(
            f'<event><date key="time:timestamp" value="2012-01-01T{hour}:00:00.000Z"/>'
            f'<string key="org:group" value="{team}"/></event>'
            for hour, team in (("10", "A"), ("11", "B"), ("12", "A"))
        )
        xes = tmp_path / "oo_1.xes"
        xes.write_text(
            f'<log xes.version="1.0"><trace><string key="concept:name" value="oo_1"/>{events}</trace></log>'
        )
        ttl = tmp_path / "oo_1.ttl"
        code, out, err = run(["convert", str(xes), "--output", str(ttl)], capsys)
        assert (code, out) == (0, "")
        assert err == "convert: 1 traces, 3 events emitted, 0 skipped, 3 objects, 47 triples, 0 warnings\n"
        assert "ex:oo_1 ext:involves_team ex:support_team_A .\n" in ttl.read_text()
        code, out, err = run(["analyze", str(ttl), "--analysis", "ping-pong", "--quiet"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "case,has_ping_pong,min_time,max_time",
            "http://example.org/oced/oo_1,true,2012-01-01T10:00:00.000Z,2012-01-01T12:00:00.000Z",
        ]

    def test_failed_convert_leaves_the_output_file_alone(self, tmp_path, capsys):
        xes = tmp_path / "e1.xes"
        xes.write_text(
            '<log xes.version="1.0"><trace><string key="concept:name" value="e1"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        absent, existing = tmp_path / "absent.ttl", tmp_path / "existing.ttl"
        existing.write_bytes(b"@prefix ex: <http://example.org/oced/> .\nex:a ex:b ex:c .\n")
        for output in (absent, existing):
            code, out, err = run(["convert", str(xes), "--output", str(output)], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("oced-forge: id 'e1' is used as both event and object")
        assert not absent.exists()
        assert existing.read_bytes() == b"@prefix ex: <http://example.org/oced/> .\nex:a ex:b ex:c .\n"

    def test_deeply_nested_attribute_is_checked_without_recursion(self, tmp_path, capsys):
        # <log>, <trace>, <event>, the nested attributes and the innermost
        # element fill the reader's limit exactly
        depth = MAX_OPEN_ELEMENTS - 4
        xes = tmp_path / "deep.xes"

        def write(inner):
            xes.write_text(
                '<log xes.version="1.0"><trace><string key="concept:name" value="c1"/><event>'
                '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/>'
                + '<string key="note" value="n">' * depth
                + inner
                + "</string>" * depth
                + "</event></trace></log>"
            )

        write("<widget/>")
        code, out, err = run(["convert", str(xes)], capsys)
        assert code == 0
        assert "ex:e1 ext:event_case ex:c1 ." in out
        assert err.startswith("convert: 1 traces, 1 events emitted, 0 skipped") and "1 warnings" in err
        code, out, err = run(["stats", str(xes)], capsys)
        assert code == 0
        assert (out, err) == ("format  xes\ntraces  1\nevents  1\ncases   1\n", "")
        write('<int key="n" value="1.5"/>')
        code, out, err = run(["convert", str(xes)], capsys)
        assert (code, out, err) == (3, "", "oced-forge: unparseable int for key 'n': '1.5'\n")
        write("<widget><gadget/></widget>")
        for command in ("convert", "stats"):
            code, out, err = run([command, str(xes)], capsys)
            assert (code, out, err) == (3, "", "oced-forge: more than 1000 elements open at once\n")


@pytest.mark.parametrize("command", ["convert", "stats"])
@pytest.mark.parametrize(
    "encoding, message",
    [
        ("bogus", "unknown encoding: bogus"),
        ("utf-32", "multi-byte encodings are not supported"),
        ("shift_jis", "multi-byte encodings are not supported"),
    ],
)
def test_encoding_expat_cannot_read_exits_3(command, encoding, message, tmp_path, capsys):
    xes = tmp_path / "encoded.xes"
    xes.write_bytes(f'<?xml version="1.0" encoding="{encoding}"?><log/>'.encode())
    code, out, err = run([command, str(xes)], capsys)
    assert (code, out, err) == (3, "", f"oced-forge: {message} (line 1, column 30)\n")

def test_years_below_1000_keep_their_ping_pong_row(tmp_path, capsys):
    events = "".join(
        f'<event><date key="time:timestamp" value="0999-01-01T{hour}:00:00.000Z"/>'
        f'<string key="org:group" value="{team}"/></event>'
        for hour, team in (("10", "A"), ("11", "B"), ("12", "A"))
    )
    xes = tmp_path / "old.xes"
    xes.write_text(
        f'<log xes.version="1.0"><trace><string key="concept:name" value="c1"/>{events}</trace></log>'
    )
    ttl = tmp_path / "old.ttl"
    assert main(["convert", str(xes), "--output", str(ttl), "--quiet"]) == 0
    assert '"0999-01-01T10:00:00.000Z"^^xsd:dateTime' in ttl.read_text()
    code, out, _ = run(["analyze", str(ttl), "--analysis", "ping-pong", "--quiet"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "case,has_ping_pong,min_time,max_time",
        "http://example.org/oced/c1,true,0999-01-01T10:00:00.000Z,0999-01-01T12:00:00.000Z",
    ]


@pytest.mark.parametrize(
    "lexical", ["0001-01-01T00:30:00.000+01:00", "9999-12-31T23:30:00.000-01:00"]
)
def test_time_without_utc_instant_in_years_1_to_9999_is_left_out(lexical, tmp_path, capsys):
    events = "".join(
        f'<event><date key="time:timestamp" value="2012-01-01T{hour}:00:00.000Z"/>'
        f'<string key="org:group" value="{team}"/></event>'
        for hour, team in (("10", "A"), ("11", "B"), ("12", "A"))
    )
    xes = tmp_path / "c1.xes"
    xes.write_text(
        f'<log xes.version="1.0"><trace><string key="concept:name" value="c1"/>{events}</trace></log>'
    )
    ttl = tmp_path / "c1.ttl"
    assert main(["convert", str(xes), "--output", str(ttl), "--quiet"]) == 0
    ttl.write_text(ttl.read_text().replace("2012-01-01T12:00:00.000Z", lexical))
    code, out, err = run(["analyze", str(ttl), "--analysis", "ping-pong", "--quiet"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "case,has_ping_pong,min_time,max_time",
        "http://example.org/oced/c1,false,2012-01-01T10:00:00.000Z,2012-01-01T11:00:00.000Z",
    ]
    code, out, err = run(["analyze", str(ttl), "--analysis", "event-objects", "--quiet"], capsys)
    assert (code, err) == (0, "")
    e3 = [line for line in out.splitlines() if line.startswith("http://example.org/oced/e3,")]
    assert [line.split(",")[4] for line in e3] == ["", ""]


def test_offset_minutes_past_59_are_no_date(tmp_path, capsys):
    """`+01:99` names no offset, and neither does `+15:00`, past
    xsd:dateTime's ±14:00: the XES reader rejects each, and the read side
    drops such a literal as it drops "not a date", so the case's events G1,
    G2, G1 do not show ping-pong (read as an instant, either would put the
    first G1 before G2)."""
    for offset in ("+01:99", "+15:00"):
        times = (f"2012-01-01T10:00:00.000{offset}", "2012-01-01T09:00:00.000Z", "2012-01-01T10:00:00.000Z")
        events = "".join(
            f'<event><date key="time:timestamp" value="{time}"/><string key="org:group" value="{team}"/></event>'
            for time, team in zip(times, ("G1", "G2", "G1"))
        )
        trace = f'<trace><string key="concept:name" value="c1"/>{events}</trace>'
        xes = tmp_path / "c1.xes"
        xes.write_text(f'<log xes.version="1.0">{trace}</log>')
        code, out, err = run(["convert", str(xes), "--quiet"], capsys)
        assert (code, out) == (3, ""), offset
        assert "unparseable date for key 'time:timestamp'" in err
        stand_in = "2012-01-01T08:00:00.000Z"
        xes.write_text(f'<log xes.version="1.0">{trace.replace(times[0], stand_in)}</log>')
        ttl = tmp_path / "c1.ttl"
        assert main(["convert", str(xes), "--output", str(ttl), "--quiet"]) == 0
        ttl.write_text(ttl.read_text().replace(stand_in, times[0]))
        code, out, err = run(["analyze", str(ttl), "--analysis", "ping-pong", "--quiet"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "case,has_ping_pong,min_time,max_time",
            "http://example.org/oced/c1,false,2012-01-01T09:00:00.000Z,2012-01-01T10:00:00.000Z",
        ], offset


@pytest.fixture
def converted_ttl(bpic_xes_path, tmp_path):
    path = tmp_path / "sample.ttl"
    code = main(["convert", str(bpic_xes_path), "--output", str(path), "--quiet"])
    assert code == 0
    return path


class TestAnalyze:
    def test_ping_pong_csv(self, converted_ttl, capsys):
        code, out, err = run(
            ["analyze", str(converted_ttl), "--analysis", "ping-pong"], capsys
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "case,has_ping_pong,min_time,max_time"
        # trace 1 bounces V3_2 -> V5_3 -> V3_2; traces 2 and 3 do not
        data = dict(line.split(",", 1) for line in lines[1:] if line)
        assert data["http://example.org/oced/1-364285768"].startswith("true,")
        assert data["http://example.org/oced/1-364285769"].startswith("false,")
        assert "3 rows" in err

    def test_ping_pong_jsonl(self, converted_ttl, capsys):
        code, out, _ = run(
            ["analyze", str(converted_ttl), "--analysis", "ping-pong", "--format", "jsonl"],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        flagged = [r for r in records if r["has_ping_pong"]]
        assert [r["case"] for r in flagged] == ["http://example.org/oced/1-364285768"]

    def test_event_objects_on_empty_graph_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.ttl"
        empty.write_text("@prefix ex: <http://example.org/oced/> .\n")
        code, out, _ = run(["analyze", str(empty), "--analysis", "event-objects"], capsys)
        assert code == 0
        assert out == "event,object,classifier,event_type,time,object_type\r\n"

    def test_teams_header_only_without_ping_pong(self, tmp_path, bpic_xes_bytes, capsys):
        # only trace 2 (no bounce): strip trace 1 and 3
        doc = BPIC_STYLE_XES.split("<trace>")
        xes = tmp_path / "quiet.xes"
        xes.write_text(doc[0] + "<trace>" + doc[2].replace("</log>", "") + "</log>")
        ttl = tmp_path / "quiet.ttl"
        assert main(["convert", str(xes), "--output", str(ttl), "--quiet"]) == 0
        code, out, _ = run(["analyze", str(ttl), "--analysis", "teams"], capsys)
        assert code == 0
        assert out == "team,cases_involved,witness_count\r\n"

    def test_teams_ranking(self, converted_ttl, capsys):
        code, out, _ = run(["analyze", str(converted_ttl), "--analysis", "teams"], capsys)
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "team,cases_involved,witness_count"
        assert lines[1] == "http://example.org/oced/support_team_V3_2,1,1"
        assert lines[2] == "http://example.org/oced/support_team_V5_3,1,1"

    def test_unknown_analysis_exits_64(self, converted_ttl, capsys):
        code, _, err = run(["analyze", str(converted_ttl), "--analysis", "nope"], capsys)
        assert code == 64
        assert "analysis" in err

    def test_missing_analysis_exits_64(self, converted_ttl, capsys):
        code, _, _ = run(["analyze", str(converted_ttl)], capsys)
        assert code == 64

    def test_format_incompatible_with_command_exits_64(self, converted_ttl, capsys):
        code, _, _ = run(
            ["analyze", str(converted_ttl), "--analysis", "ping-pong", "--format", "dot"],
            capsys,
        )
        assert code == 64

    def test_turtle_syntax_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text("@prefix ex: <http://e/> .\nex:s ex:p [ ] .")
        code, _, err = run(["analyze", str(bad), "--analysis", "ping-pong"], capsys)
        assert code == 3
        assert "blank node" in err

    @pytest.mark.parametrize("char", ["\t", "\x01"])
    @pytest.mark.parametrize(
        "command", [["stats"], ["analyze", "--analysis", "event-objects"], ["export-dot"]]
    )
    def test_control_character_in_an_iri_exits_3_for_every_read(self, command, char, tmp_path, capsys):
        bad = tmp_path / "bad.ttl"
        bad.write_text(
            "@prefix ext: <https://w3id.org/ocedo/ext#> .\n"
            f'<http://example.org/oced/e{char}1> ext:event_type "x" .\n'
        )
        code, out, err = run([command[0], str(bad), *command[1:]], capsys)
        assert code == 3
        assert out == ""
        assert err == f"oced-forge: character {char!r} is illegal inside an IRI (line 2, column 27)\n"


@pytest.mark.parametrize(
    "command, source",
    [
        (["analyze", "--analysis", "ping-pong"], "ttl"),
        (["export-dot"], "ttl"),
        (["convert"], "xes"),
        (["stats"], "ttl"),
        (["stats"], "xes"),
    ],
    ids=["analyze", "export-dot", "convert", "stats-ttl", "stats-xes"],
)
def test_truncated_gzip_turtle_exits_2(
    command, source, converted_ttl, bpic_xes_bytes, tmp_path, capsys
):
    """Every command inflates through one reader: a truncated or corrupt
    gzip stream exits 2 with one line, whatever the payload."""
    zipped = gzip.compress(converted_ttl.read_bytes() if source == "ttl" else bpic_xes_bytes)
    corrupt = bytearray(zipped)
    corrupt[12] ^= 0xFF  # breaks the deflate stream itself (a zlib error, not EOF)
    for name, broken in (("truncated", zipped[: len(zipped) // 2]), ("corrupt", bytes(corrupt))):
        path = tmp_path / f"{name}.{source}.gz"
        path.write_bytes(broken)
        code, out, err = run([command[0], str(path), *command[1:]], capsys)
        assert code == 2, name
        assert out == ""
        assert err.startswith(f"oced-forge: {path}: bad gzip stream: ")
        assert err.count("\n") == 1


def test_doubly_gzipped_xes_is_inflated_once(bpic_xes_bytes, tmp_path, capsys):
    """The CLI inflates an input once, so XES gzipped twice is XES to
    neither command: convert reads the inner gzip stream as XML."""
    path = tmp_path / "log.xes.gz.gz"
    path.write_bytes(gzip.compress(gzip.compress(bpic_xes_bytes)))
    assert run(["convert", str(path)], capsys) == (
        3,
        "",
        "oced-forge: not well-formed (invalid token) (line 1, column 0)\n",
    )
    assert run(["stats", str(path)], capsys) == (65, "", f"stats: {path}: not XES or Turtle\n")


@pytest.mark.parametrize("source", ["fixture", "hostile"])
def test_every_cli_query_reads_the_predicate_index(source, converted_ttl, monkeypatch, capsys):
    """The store is its predicate partitions: every pattern the analyses,
    stats and export-dot scan has a constant predicate, and none of them
    iterates the whole store."""
    path = converted_ttl if source == "fixture" else Path(__file__).parent / "golden" / "hostile.ttl"
    lookups = []
    scan, pairs = TripleStore._scan, TripleStore.pairs

    def scanned(self, pattern):
        lookups.append(pattern.predicate)
        return scan(self, pattern)

    def read(self, predicate):
        lookups.append(predicate)
        return pairs(self, predicate)

    def iterated(self):
        raise AssertionError("a read command iterated the whole store")

    monkeypatch.setattr(TripleStore, "_scan", scanned)
    monkeypatch.setattr(TripleStore, "pairs", read)
    monkeypatch.setattr(TripleStore, "__iter__", iterated)
    for command in (
        *(["analyze", "--analysis", analysis] for analysis in ("ping-pong", "event-objects", "teams")),
        ["stats"],
        ["export-dot"],
    ):
        lookups.clear()
        code, _, _ = run([command[0], str(path), *command[1:]], capsys)
        assert code == 0
        assert lookups, command
        assert [p for p in lookups if isinstance(p, Var)] == [], command


@pytest.mark.parametrize(
    "command, option",
    [("convert", "--format=ttl"), ("export-dot", "--format=dot"), ("stats", "--quiet"), ("export-dot", "-q")],
)
def test_option_a_command_does_not_take_exits_64(command, option, converted_ttl, capsys):
    code, out, err = run([command, str(converted_ttl), option], capsys)
    assert (code, out) == (64, "")
    assert f"unrecognized arguments: {option}" in err


class TestStats:
    def test_ttl_counts_match_graph_stats(self, converted_ttl, bpic_xes_bytes, capsys):
        code, out, _ = run(["stats", str(converted_ttl)], capsys)
        assert code == 0
        graph, _ = transform_log(parse_xes(bpic_xes_bytes))
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert values["format"] == "ttl"
        assert int(values["events"]) == len(graph.events)
        assert int(values["objects"]) == len(graph.objects)
        assert int(values["eo_relations"]) == len(graph.event_object_relations)
        assert int(values["oo_relations"]) == len(graph.object_object_relations)
        assert int(values["event_types"]) == len({e.event_type for e in graph.events.values()})
        assert int(values["object_types"]) == len({o.object_type for o in graph.objects.values()})
        assert int(values["cases"]) == 3

    def test_empty_graph_all_zero(self, tmp_path, capsys):
        ttl = tmp_path / "empty.ttl"
        ttl.write_text(write_turtle(graph_to_triples(OcedGraph())))
        code, out, _ = run(["stats", str(ttl)], capsys)
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert values.pop("format") == "ttl"
        assert values == {
            name: "0"
            for name in (
                "triples",
                "events",
                "objects",
                "eo_relations",
                "oo_relations",
                "event_types",
                "object_types",
                "cases",
            )
        }

    def test_types_counted_once_each(self, tmp_path, capsys):
        when = datetime(2012, 1, 1, 9, tzinfo=timezone.utc)
        graph = OcedGraph()
        graph.add_object(OcedObject(id="c1", object_type="case"))
        graph.add_object(OcedObject(id="t1", object_type="support_team"))
        graph.add_object(OcedObject(id="t2", object_type="support_team"))
        for event_id, event_type in (("e1", "Queued"), ("e2", "Queued"), ("e3", "Accepted")):
            graph.add_event(OcedEvent(id=event_id, event_type=event_type, observed_at=when))
            graph.relate_event_object(event_id, "c1", "event_case")
        graph.relate_objects("c1", "t1", "involves_team")
        ttl = tmp_path / "types.ttl"
        ttl.write_text(write_turtle(graph_to_triples(graph)))
        code, out, _ = run(["stats", str(ttl)], capsys)
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert int(values["events"]) == 3
        assert int(values["event_types"]) == 2
        assert int(values["objects"]) == 3
        assert int(values["object_types"]) == 2
        assert int(values["eo_relations"]) == 3
        assert int(values["oo_relations"]) == 1
        assert int(values["cases"]) == 1

    def test_xes_counts_match_parse(self, bpic_xes_path, capsys):
        code, out, _ = run(["stats", str(bpic_xes_path)], capsys)
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert values["format"] == "xes"
        assert int(values["traces"]) == 3
        assert int(values["events"]) == 7
        assert int(values["cases"]) == 3

    def test_xes_reader_warnings_are_printed_as_convert_prints_them(self):
        golden = Path(__file__).resolve().parent / "golden"
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "stats", str(golden / "hostile.xes")],
            env=cli_env(),
            capture_output=True,
        )
        convert_stderr = (golden / "hostile.convert.stderr").read_text(encoding="utf-8")
        reader_warnings = [
            line for line in convert_stderr.splitlines() if line.startswith("WARNING oced_forge.xes_parser: ")
        ]
        assert result.returncode == 0
        assert len(reader_warnings) == 3
        assert result.stderr.decode("utf-8").splitlines() == reader_warnings
        assert result.stdout == b"format  xes\ntraces  4\nevents  8\ncases   3\n"

    def test_xes_cases_count_merged_traces_once_as_convert_does(self, tmp_path, capsys):
        xes = tmp_path / "twice.xes"
        xes.write_text(
            '<log xes.version="1.0">'
            + '<trace><string key="concept:name" value="c1"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace>' * 2
            + "</log>"
        )
        ttl = tmp_path / "twice.ttl"
        assert run(["convert", str(xes), "-o", str(ttl)], capsys)[0] == 0
        for path, traces in ((xes, "2"), (ttl, None)):
            code, out, _ = run(["stats", str(path)], capsys)
            assert code == 0
            values = dict(line.split(None, 1) for line in out.strip().splitlines())
            assert values.get("traces") == traces
            assert values["cases"] == "1"

    def test_turtle_starting_with_an_absolute_iri(self, tmp_path, capsys):
        ttl = tmp_path / "abs.ttl"
        ttl.write_text("<http://a.example/s> <http://a.example/p> <http://a.example/o> .\n")
        code, out, _ = run(["stats", str(ttl)], capsys)
        assert code == 0
        values = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert values["format"] == "ttl"
        assert values["triples"] == "1"

    def test_latin1_xes_counts_as_its_utf8_twin(self, tmp_path, capsys):
        body = (
            '<log xes.version="1.0"><trace><string key="concept:name" value="caf\u00e9"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        outs = []
        for encoding in ("ISO-8859-1", "UTF-8"):
            xes = tmp_path / f"{encoding}.xes"
            xes.write_bytes(f'<?xml version="1.0" encoding="{encoding}"?>\n{body}'.encode(encoding))
            code, out, _ = run(["stats", str(xes)], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "format  xes\n" in outs[0]

    def test_utf16_xes_counts_as_its_utf8_twin(self, tmp_path, capsys):
        body = (
            '<log xes.version="1.0"><trace><string key="concept:name" value="caf\u00e9"/><event>'
            '<date key="time:timestamp" value="2012-01-01T00:00:00.000Z"/></event></trace></log>'
        )
        outs = []
        for bom, declared, codec in (
            (b"\xff\xfe", "UTF-16", "utf-16-le"),
            (b"\xfe\xff", "UTF-16", "utf-16-be"),
            (b"", "UTF-8", "utf-8"),
        ):
            xes = tmp_path / f"{codec}.xes"
            xes.write_bytes(bom + f'<?xml version="1.0" encoding="{declared}"?>\n{body}'.encode(codec))
            code, out, _ = run(["stats", str(xes)], capsys)
            assert code == 0, codec
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert "format  xes\n" in outs[0]

    def test_malformed_xml_keeps_its_xml_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xes"
        bad.write_text("<log><trace></log>")
        code, out, err = run(["stats", str(bad)], capsys)
        assert code == 3
        assert out == ""
        assert err == "oced-forge: mismatched tag (line 1, column 14)\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("@prefix ex: <http://e/> .\nex:s ex:p $ .\n", "unexpected character '$' (line 2, column 11)"),
            ("@Prefix ex: <http://e/> .\nex:s ex:p $ .\n", "unexpected character '$' (line 2, column 11)"),
            ("@base <http://e/> .\n", "@base directive (line 1, column 1)"),
            ("BASE <http://e/>\n", "BASE directive (line 1, column 1)"),
        ],
        ids=["@prefix", "@Prefix", "@base", "BASE"],
    )
    def test_turtle_by_its_header_keeps_the_readers_error(self, text, error, tmp_path, capsys):
        """A directive keyword opens Turtle in any case, as both readers take
        it, so stats reports the reader's error (exit 3) as analyze does."""
        ttl = tmp_path / "header.ttl"
        ttl.write_text(text)
        expected = (3, "", f"oced-forge: {error}\n")
        assert run(["stats", str(ttl)], capsys) == expected
        assert run(["analyze", str(ttl), "--analysis", "teams"], capsys) == expected

    @pytest.mark.parametrize(
        "command", [["stats"], ["analyze", "--analysis", "teams"], ["export-dot"]], ids=lambda c: c[0]
    )
    def test_turtle_that_is_not_utf8_exits_3_for_every_read(self, command, tmp_path, capsys):
        """Every read command decodes Turtle text in one place, so a file that
        opens as Turtle and holds a byte that is not UTF-8 is one parse error."""
        ttl = tmp_path / "latin1.ttl"
        ttl.write_bytes(b'@prefix ex: <http://example.org/oced/> .\nex:a ex:p "caf\xe9" .\n')
        code, out, err = run([command[0], str(ttl), *command[1:]], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"oced-forge: {ttl}: not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_binary_junk_exits_65(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(bytes(range(256)))
        code, _, err = run(["stats", str(junk)], capsys)
        assert code == 65
        assert "not XES or Turtle" in err

    def test_text_junk_exits_65(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("hello world, plain prose\n")
        code, _, _ = run(["stats", str(junk)], capsys)
        assert code == 65


class TestExportDot:
    def test_dot_output(self, converted_ttl, capsys):
        code, out, _ = run(["export-dot", str(converted_ttl)], capsys)
        assert code == 0
        assert out.startswith("digraph")
        assert '"ex:e1" -> "ex:1-364285768" [label="event_case"];' in out

    def test_unknown_command_exits_64(self, capsys):
        code, _, _ = run(["frobnicate", "x"], capsys)
        assert code == 64

    @pytest.mark.parametrize(
        "qualifier, label",
        [("<https://w3id.org/ocedo/ext#q%ZZ>", "q%ZZ"), ("ext:q%FF", "q%FF"), ("<https://w3id.org/ocedo/ext#q%4>", "q%4")],
    )
    def test_malformed_qualifier_escape_labels_the_edge_as_written(
        self, qualifier, label, tmp_path, capsys
    ):
        ttl = tmp_path / "qualifier.ttl"
        ttl.write_text(
            "@prefix ext: <https://w3id.org/ocedo/ext#> .\n"
            "@prefix ex: <http://example.org/oced/> .\n"
            'ex:a ext:object_type "case" .\n'
            'ex:b ext:object_type "team" .\n'
            f"ex:a {qualifier} ex:b .\n"
        )
        code, out, err = run(["export-dot", str(ttl)], capsys)
        assert code == 0
        assert err == ""
        assert f'"ex:a" -> "ex:b" [label="{label}"];' in out


class TestDeterminismAcrossProcesses:
    READS = [
        ["analyze", "--analysis", "ping-pong"],
        ["analyze", "--analysis", "teams"],
        ["analyze", "--analysis", "event-objects"],
        ["stats"],
        ["export-dot"],
    ]

    @staticmethod
    def outputs(env: dict, ttl: Path, tmp_path: Path) -> list[tuple[bytes, bytes]]:
        """Output file and stderr of each read command on ttl."""
        outputs = []
        for index, command in enumerate(TestDeterminismAcrossProcesses.READS):
            out = tmp_path / f"read{index}.out"
            result = subprocess.run(
                [sys.executable, "-m", "oced_forge", command[0], str(ttl), *command[1:], "-o", str(out)],
                env=env,
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
            outputs.append((out.read_bytes(), result.stderr))
        return outputs

    def test_convert_analyze_byte_identical_under_different_hash_seeds(
        self, bpic_xes_path, tmp_path
    ):
        outputs = []
        for seed in ("1", "2"):
            ttl = tmp_path / f"out{seed}.ttl"
            env = cli_env(PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-m", "oced_forge", "convert", str(bpic_xes_path), "-o", str(ttl)],
                env=env,
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
            outputs.append((ttl.read_bytes(), self.outputs(env, ttl, tmp_path)))
        assert outputs[0] == outputs[1]

    def test_read_commands_on_hostile_turtle_byte_identical_under_different_hash_seeds(self, tmp_path):
        hostile = Path(__file__).parent / "golden" / "hostile.ttl"
        first, second = (self.outputs(cli_env(PYTHONHASHSEED=seed), hostile, tmp_path) for seed in ("1", "2"))
        assert first == second

    def test_stdin_input(self, bpic_xes_bytes):
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "convert", "-", "--quiet"],
            input=bpic_xes_bytes,
            env=cli_env(),
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        assert b"@prefix ocedo:" in result.stdout

    def test_stdout_holds_the_bytes_output_writes_under_an_ascii_locale(self, tmp_path):
        ttl, out = tmp_path / "cafe.ttl", tmp_path / "out.csv"
        hostile = (Path(__file__).parent / "golden" / "hostile.ttl").read_text("utf-8")
        ttl.write_text(hostile.replace('"first"', '"café"'), "utf-8")
        argv = [sys.executable, "-m", "oced_forge", "analyze", str(ttl), "--analysis", "event-objects"]
        env = cli_env(PYTHONIOENCODING="ascii")
        result = subprocess.run(argv, env=env, capture_output=True)
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        assert subprocess.run([*argv, "-o", str(out)], env=env).returncode == 0
        assert "café".encode() in result.stdout
        assert result.stdout == out.read_bytes()


class TestPipelineComposition:
    def test_analyze_file_equals_in_memory_analysis(self, bpic_xes_path, converted_ttl, capsys):
        from oced_forge.analyses import PING_PONG_COLUMNS, ping_pong_records, records_to_csv
        from oced_forge import detect_ping_pong

        code, out, _ = run(["analyze", str(converted_ttl), "--analysis", "ping-pong"], capsys)
        assert code == 0
        graph, _ = transform_log(parse_xes(bpic_xes_path.read_bytes()))
        direct = records_to_csv(
            ping_pong_records(detect_ping_pong(graph_to_triples(graph).freeze())),
            PING_PONG_COLUMNS,
        )
        assert out == direct


class TestDiagnostics:
    def test_malformed_event_object_warning_reaches_stderr(self, tmp_path):
        ttl = tmp_path / "broken.ttl"
        ttl.write_text(
            "@prefix ext: <https://w3id.org/ocedo/ext#> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            "@prefix ex: <http://example.org/oced/> .\n"
            "ex:n1 rdf:type ext:EventObject .\n"
            "ex:n1 ext:event ex:e1 .\n"
        )
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "analyze", str(ttl), "--analysis", "event-objects", "-q"],
            capture_output=True,
            env=cli_env(OCED_FORGE_LOG="warning"),
        )
        assert result.returncode == 0
        assert b"lacks ext:object" in result.stderr
        # data on stdout stays clean: header only
        assert result.stdout == b"event,object,classifier,event_type,time,object_type\r\n"

    @pytest.mark.parametrize(
        "level, shown",
        [("error", False), ("critical", False), ("Critical", False), ("debug", True), ("info", True)]
        + [("warning", True), ("loud", True), (None, True)],
    )
    def test_oced_forge_log_rule_holds_with_logging_set_up_at_the_first_warning(self, level, shown):
        """Nothing is logged below WARNING, so every level up to it, an
        unknown one and none print the default lines; ERROR and CRITICAL
        silence them."""
        golden = Path(__file__).parent / "golden"
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "convert", str(golden / "hostile.xes")]
            + ["--config", str(golden / "hostile.config.json")],
            env=cli_env() if level is None else cli_env(OCED_FORGE_LOG=level),
            capture_output=True,
        )
        assert result.returncode == 0
        default = (golden / "hostile.convert.stderr").read_bytes()
        silenced = b"".join(line for line in default.splitlines(True) if not line.startswith(b"WARNING "))
        assert silenced != default
        assert result.stderr == (default if shown else silenced)
        assert result.stdout == (golden / "hostile.convert.stdout").read_bytes()


@pytest.fixture(scope="module")
def bench_log(tmp_path_factory) -> dict[str, Path]:
    """The benchmark's seeded log at 60 cases as XES and as Turtle; every
    command's output on it is several times a pipe's 64 KiB buffer."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(bench))
        from loggen import generate, to_xes

        xes = to_xes(generate(1, 60)).encode()
    directory = tmp_path_factory.mktemp("bench_log")
    paths = {"xes": directory / "log.xes", "ttl": directory / "log.ttl"}
    paths["xes"].write_bytes(xes)
    graph, _ = transform_log(parse_xes(xes))
    paths["ttl"].write_text(write_turtle(graph_to_triples(graph)), "utf-8")
    return paths


class TestProcessFailures:
    """Failures that come from outside the input end in a documented code,
    with no traceback.  Each test acts only on the child process it starts."""

    @pytest.mark.parametrize(
        "command",
        [["convert", "xes"], ["analyze", "ttl", "--analysis", "event-objects"], ["export-dot", "ttl"]],
        ids=lambda command: command[0],
    )
    def test_a_reader_that_closes_stdout_early_gets_exit_141(self, command, bench_log):
        argv = [sys.executable, "-m", "oced_forge", command[0], str(bench_log[command[1]]), *command[2:]]
        with subprocess.Popen(argv, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.readline()
            child.stdout.close()  # the output left is bigger than the pipe's buffer
            stderr = child.stderr.read()
        assert (child.returncode, stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv, to_stdout",
        [
            (["convert", "hostile.xes", "--config", "hostile.config.json", "-o", "/dev/full"], False),
            (["convert", "hostile.xes", "--config", "hostile.config.json"], True),
            (["analyze", "hostile.ttl", "--analysis", "event-objects"], True),
        ],
        ids=["convert-output", "convert-stdout", "analyze-stdout"],
    )
    def test_a_full_output_device_prints_one_line_and_exits_74(self, argv, to_stdout):
        golden = Path(__file__).parent / "golden"
        argv = [str(golden / arg) if arg.startswith("hostile.") else arg for arg in argv]
        with open("/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "oced_forge", *argv],
                env=cli_env(OCED_FORGE_LOG="error"),  # the inputs' own warnings
                stdout=full if to_stdout else subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        assert (result.returncode, result.stdout or b"", result.stderr) == (
            74,
            b"",
            f"oced-forge: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n".encode(),
        )

    @pytest.mark.parametrize("stage", ["inflate", "xes-parse"])
    def test_running_out_of_memory_prints_one_line_and_exits_71(self, stage, tmp_path):
        """The child's own address space is capped at 128 MiB: it starts in
        about 20 MiB, and either input needs more than 200 MiB.  A gzip
        stream of 1 GiB of spaces runs out while it is inflated; a 48 MiB
        attribute value runs out in expat's own buffers."""
        if stage == "inflate":
            data = gzip.compress(b" " * (4 << 20)) * 256  # 256 gzip members
        else:
            value = b"x" * (48 << 20)
            data = b'<log xes.version="1.0"><trace><event><string key="k" value="%s"/></event></trace></log>' % value
        source = tmp_path / "input"
        source.write_bytes(data)
        del data
        limit = 128 << 20
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "convert", str(source)],
            env=cli_env(),
            capture_output=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (result.returncode, result.stderr) == (71, b"oced-forge: out of memory in convert\n")
        assert result.stdout == b""

    def test_sigint_prints_one_line_and_exits_130(self, tmp_path):
        fifo = tmp_path / "input.xes"
        os.mkfifo(fifo)
        with subprocess.Popen(
            [sys.executable, "-m", "oced_forge", "convert", str(fifo)],
            env=cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            # a shell that runs the tests in the background passes SIGINT on ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        ) as child:
            writer = None
            try:
                # the FIFO opens for writing once convert opens it to read its
                # input, so the signal reaches the command while it runs
                deadline = time.monotonic() + 60
                while writer is None:
                    try:
                        writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    except OSError as exc:
                        assert exc.errno == errno.ENXIO and child.poll() is None and time.monotonic() < deadline
                        time.sleep(0.01)
                child.send_signal(signal.SIGINT)
                stdout, stderr = child.communicate(timeout=60)
            finally:
                if writer is not None:
                    os.close(writer)
                child.kill()
        assert (child.returncode, stdout, stderr) == (130, b"", b"oced-forge: interrupted\n")

"""Property tests: hostile Turtle input ends in a result or one error line
for every read command, and every timestamp the tool writes reads back as
the same instant.

Needs hypothesis; without it the module is skipped.
"""

import contextlib
import io
from datetime import datetime, timedelta, timezone

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oced_forge.cli import main  # noqa: E402
from oced_forge.timeutil import (  # noqa: E402
    format_offset_millis,
    format_utc_millis,
    parse_instant,
    to_utc_millis,
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
    if layout == "general":  # a leading SPARQL-style PREFIX line is outside the fast path
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


@settings(max_examples=300, deadline=None)
@given(
    body=_body,
    layout=st.sampled_from(["lines", "grouped", "general"]),
    analysis=st.sampled_from(["event-objects", "teams"]),
)
def test_string_escapes_never_crash_analyze(tmp_path_factory, body, layout, analysis):
    path = tmp_path_factory.getbasetemp() / "escapes.ttl"
    path.write_bytes(_document(body, layout).encode("utf-8"))
    code, err = _run(["analyze", str(path), "--analysis", analysis, "--quiet"])
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("oced-forge: ") and err.count("\n") == 1, err


_offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
    lambda minutes: timezone(timedelta(minutes=minutes))
)


@example(datetime(999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(hours=-5))))
@given(moment=st.datetimes(timezones=_offsets))
def test_formatted_instants_parse_back_truncated(moment):
    try:
        truncated = to_utc_millis(moment)
    except OverflowError:  # the UTC instant falls outside years 1..9999
        assume(False)
    assert parse_instant(format_utc_millis(moment)) == truncated
    assert parse_instant(format_offset_millis(moment)) == truncated


_TIMES = [
    "2012-01-01T10:00:00.000Z",
    "2012-01-01T11:00:00.000+01:00",
    "0001-01-01T00:30:00.000+01:00",  # UTC instant in year 0
    "9999-12-31T23:30:00.000-01:00",  # UTC instant in year 10000
    "0001-01-01T23:59:00-23:59",
    "9999-12-31T00:00:00.0001+23:59",
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

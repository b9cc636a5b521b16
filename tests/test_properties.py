"""Property tests: hostile Turtle input ends in a result or one error line,
and every timestamp the tool writes reads back as the same instant.

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


def _document(body: str, grouped: bool) -> str:
    literal = f'"{body}"'
    if grouped:  # read by the general tokenizer
        return _PREFIXES + (
            f"ex:n a ext:EventObject ; ext:event ex:e ; ext:object ex:o ;\n"
            f"    ext:classifier {literal} .\n"
            f"ex:e ext:event_type {literal} .\n"
        )
    return _PREFIXES + (  # one statement per line: the line fast path
        "ex:n rdf:type ext:EventObject .\n"
        "ex:n ext:event ex:e .\n"
        "ex:n ext:object ex:o .\n"
        f"ex:n ext:classifier {literal} .\n"
        f"ex:e ext:event_type {literal} .\n"
    )


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI, with stdout a strict UTF-8 stream."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
        stdout.flush()
    return code, stderr.getvalue()


@settings(max_examples=300, deadline=None)
@given(body=_body, grouped=st.booleans(), analysis=st.sampled_from(["event-objects", "teams"]))
def test_string_escapes_never_crash_analyze(tmp_path_factory, body, grouped, analysis):
    path = tmp_path_factory.getbasetemp() / "escapes.ttl"
    path.write_bytes(_document(body, grouped).encode("utf-8"))
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

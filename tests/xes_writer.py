"""Canonical XES writer for the round-trip tests: writes a parsed log back
as XES so a test can check that parsing keeps every trace, event and
attribute it reads.  Not a general-purpose XES exporter."""

import io

from oced_forge.oced_model import TypedValue
from oced_forge.xes_parser import XesLog, _attribute_text


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _write_attribute(out: io.StringIO, key: str, attr: TypedValue, indent: int):
    value = _attribute_text(attr)
    out.write(
        f'{"  " * indent}<{attr.kind} key="{_xml_escape(key)}" value="{_xml_escape(value)}"/>\n'
    )


def write_xes(log: XesLog) -> str:
    """Serialize a log back to canonical XES."""
    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write('<log xes.version="1.0">\n')
    for trace in log.traces:
        out.write("  <trace>\n")
        for key, attr in trace.attributes.items():
            _write_attribute(out, key, attr, 2)
        for event in trace.events:
            out.write("    <event>\n")
            for key, attr in event.items():
                _write_attribute(out, key, attr, 3)
            out.write("    </event>\n")
        out.write("  </trace>\n")
    out.write("</log>\n")
    return out.getvalue()

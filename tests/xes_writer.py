"""Canonical XES writer for the round-trip tests: writes a parsed log back
as XES so a test can check that parsing is lossless.  Not a general-purpose
XES exporter."""

import io

from oced_forge.xes_parser import XesAttribute, XesLog, _attribute_text


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _write_attribute(out: io.StringIO, attr: XesAttribute, indent: int):
    pad = "  " * indent
    value = _attribute_text(attr)
    head = f'{pad}<{attr.kind} key="{_xml_escape(attr.key)}" value="{_xml_escape(value)}"'
    if attr.children:
        out.write(head + ">\n")
        for child in attr.children:
            _write_attribute(out, child, indent + 1)
        out.write(f"{pad}</{attr.kind}>\n")
    else:
        out.write(head + "/>\n")


def write_xes(log: XesLog) -> str:
    """Serialize a log back to canonical XES."""
    out = io.StringIO()
    out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    out.write(f'<log xes.version="{_xml_escape(log.xes_version)}">\n')
    for ext in log.extensions:
        out.write(
            f'  <extension name="{_xml_escape(ext.name)}" '
            f'prefix="{_xml_escape(ext.prefix)}" uri="{_xml_escape(ext.uri)}"/>\n'
        )
    for scope, attrs in (("trace", log.globals.trace), ("event", log.globals.event)):
        if attrs:
            out.write(f'  <global scope="{scope}">\n')
            for attr in attrs:
                _write_attribute(out, attr, 2)
            out.write("  </global>\n")
    for clf in log.classifiers:
        out.write(
            f'  <classifier name="{_xml_escape(clf.name)}" '
            f'keys="{_xml_escape(" ".join(clf.keys))}"/>\n'
        )
    for attr in log.attributes:
        _write_attribute(out, attr, 1)
    for trace in log.traces:
        out.write("  <trace>\n")
        for attr in trace.attributes:
            _write_attribute(out, attr, 2)
        for event in trace.events:
            out.write("    <event>\n")
            for attr in event.attributes:
                _write_attribute(out, attr, 3)
            out.write("    </event>\n")
        out.write("  </trace>\n")
    out.write("</log>\n")
    return out.getvalue()

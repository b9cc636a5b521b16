import io
from pathlib import Path

import pytest

import oced_forge
from oced_forge.turtle_io import graph_to_turtle

# Directory holding the oced_forge package this test process imported:
# ``src`` in a source checkout, site-packages after an install.
PACKAGE_ROOT = str(Path(oced_forge.__file__).resolve().parent.parent)


def turtle_text(graph) -> tuple[str, int]:
    """graph_to_turtle's text, written to a string, and its triple count."""
    out = io.StringIO()
    count = graph_to_turtle(graph, out)
    return out.getvalue(), count


def cli_env(**extra: str) -> dict:
    """Environment for a ``python -m oced_forge`` child process.

    Holds only ``PATH``, a ``PYTHONPATH`` that finds the package under test,
    and the given variables, so runs differ only in what a test sets.
    """
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT, **extra}


# BPIC-2013-incidents-style log: three traces, team handovers on org:group,
# one event without a timestamp (trace 3) to exercise skip reporting.
BPIC_STYLE_XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>
  <extension name="Organizational" prefix="org" uri="http://www.xes-standard.org/org.xesext"/>
  <extension name="Lifecycle" prefix="lifecycle" uri="http://www.xes-standard.org/lifecycle.xesext"/>
  <global scope="trace">
    <string key="concept:name" value="UNKNOWN"/>
  </global>
  <global scope="event">
    <string key="concept:name" value="UNKNOWN"/>
  </global>
  <classifier name="Activity" keys="concept:name"/>
  <string key="concept:name" value="BPIC2013 style sample"/>
  <trace>
    <string key="concept:name" value="1-364285768"/>
    <event>
      <string key="concept:name" value="Accepted"/>
      <string key="lifecycle:transition" value="In Progress"/>
      <date key="time:timestamp" value="2012-03-20T09:00:00.000+01:00"/>
      <string key="org:group" value="V3_2"/>
      <string key="org:resource" value="Frederic"/>
      <string key="impact" value="Medium"/>
      <string key="product" value="PROD582"/>
    </event>
    <event>
      <string key="concept:name" value="Accepted"/>
      <string key="lifecycle:transition" value="Wait"/>
      <date key="time:timestamp" value="2012-03-20T11:30:00.000+01:00"/>
      <string key="org:group" value="V5_3"/>
      <string key="org:resource" value="Loes"/>
      <string key="impact" value="Medium"/>
      <string key="product" value="PROD582"/>
    </event>
    <event>
      <string key="concept:name" value="Completed"/>
      <string key="lifecycle:transition" value="Resolved"/>
      <date key="time:timestamp" value="2012-03-21T08:15:00.000+01:00"/>
      <string key="org:group" value="V3_2"/>
      <string key="org:resource" value="Frederic"/>
      <string key="impact" value="Medium"/>
      <string key="product" value="PROD582"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="1-364285769"/>
    <event>
      <string key="concept:name" value="Queued"/>
      <string key="lifecycle:transition" value="Awaiting Assignment"/>
      <date key="time:timestamp" value="2012-04-02T10:00:00.000+02:00"/>
      <string key="org:group" value="V5_3"/>
    </event>
    <event>
      <string key="concept:name" value="Completed"/>
      <string key="lifecycle:transition" value="Closed"/>
      <date key="time:timestamp" value="2012-04-03T10:00:00.000+02:00"/>
      <string key="org:group" value="V5_3"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="1-364285770"/>
    <event>
      <string key="concept:name" value="Accepted"/>
      <string key="lifecycle:transition" value="In Progress"/>
      <date key="time:timestamp" value="2012-05-01T08:00:00.000+02:00"/>
      <string key="org:group" value="V2"/>
    </event>
    <event>
      <string key="concept:name" value="Unmatched"/>
    </event>
  </trace>
</log>
"""


@pytest.fixture
def bpic_xes_bytes() -> bytes:
    return BPIC_STYLE_XES.encode("utf-8")


@pytest.fixture
def bpic_xes_path(tmp_path, bpic_xes_bytes):
    path = tmp_path / "sample.xes"
    path.write_bytes(bpic_xes_bytes)
    return path

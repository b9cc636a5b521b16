"""Parser for XES event logs.

Reads XES XML (optionally gzip-compressed, detected by magic bytes) into an
in-memory log of what the conversion reads: the traces, their events, and
the top-level attributes of each.  An event is its attributes by key, a
dict of TypedValue; a repeated key in an event is an error.  A trace keeps
the first value of a repeated key; later repeats are still checked.  The
log header (extensions, globals, classifiers, log-level attributes) and
attributes nested in other attributes are checked but not kept; the XES
list/container construct is rejected.  Unknown elements are skipped and
recorded as warnings on the returned log.

The XML is read as a stream (ElementTree.iterparse): each direct child of
<log> is turned into log data when its end tag is read and then dropped, so
only one trace's elements are in memory at a time.  The first structural
error is held until the whole document has been read, so malformed XML
anywhere in it is reported instead, as a whole-document parse would.
"""

import gzip
import io
import zlib
from dataclasses import dataclass, field
from xml.etree import ElementTree

from .errors import XesParseError, XesStructureError
from .oced_model import TypedValue
from .timeutil import format_offset_millis, parse_instant

VALUE_KINDS = ("string", "date", "int", "float", "boolean", "id")
_LIST_TAGS = ("list", "container", "values")
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class XesTrace:
    attributes: dict[str, TypedValue]
    events: tuple[dict[str, TypedValue], ...]


@dataclass(frozen=True)
class XesLog:
    traces: tuple[XesTrace, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def event_count(self) -> int:
        return sum(len(t.events) for t in self.traces)


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _attribute_text(attr: TypedValue) -> str:
    """Canonical string form of an attribute value (used for ids and types)."""
    if attr.kind == "date":
        return format_offset_millis(attr.value)
    if attr.kind == "boolean":
        return "true" if attr.value else "false"
    if attr.kind == "float":
        return repr(attr.value)
    return str(attr.value)


class _Parser:
    """Reads one log: open_log with the root element, then add_child with
    each direct child of the root in document order, then log()."""

    def __init__(self):
        self.warnings: list[str] = []
        self.traces: list[XesTrace] = []
        self.prefixes: set[str] = set()

    def warn(self, message: str):
        self.warnings.append(message)

    def parse_value(self, kind: str, key: str, raw: str):
        if kind == "string" or kind == "id":
            return raw
        if kind == "date":
            try:
                return parse_instant(raw)
            except ValueError:
                raise XesStructureError(
                    f"unparseable date for key {key!r}: {raw!r}"
                ) from None
        # int() and float() also read "1_2" and non-ASCII digits such as
        # "١٢", which xsd:long and xsd:double do not allow
        if kind in ("int", "float") and ("_" in raw or not raw.isascii()):
            raise XesStructureError(f"unparseable {kind} for key {key!r}: {raw!r}")
        if kind == "int":
            try:
                value = int(raw)
            except ValueError:
                raise XesStructureError(f"unparseable int for key {key!r}: {raw!r}") from None
            if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
                raise XesStructureError(f"int out of 64-bit range for key {key!r}: {raw!r}")
            return value
        if kind == "float":
            try:
                return float(raw)
            except ValueError:
                raise XesStructureError(f"unparseable float for key {key!r}: {raw!r}") from None
        if kind == "boolean":
            lowered = raw.strip().lower()
            if lowered not in ("true", "false"):
                raise XesStructureError(f"unparseable boolean for key {key!r}: {raw!r}")
            return lowered == "true"
        raise XesStructureError(f"unknown attribute kind {kind!r}")

    def _attribute(self, elem) -> tuple[str, TypedValue] | None:
        tag = _local(elem.tag)
        if tag in _LIST_TAGS:
            raise XesStructureError(
                f"list attributes are not supported (element <{tag}>, key={elem.get('key')!r})"
            )
        if tag not in VALUE_KINDS:
            self.warn(f"skipped unknown element <{tag}>")
            return None
        key = elem.get("key")
        if not key:
            raise XesStructureError(f"<{tag}> element without a key")
        raw = elem.get("value")
        if raw is None:
            raise XesStructureError(f"<{tag}> element for key {key!r} without a value")
        return key, TypedValue(tag, self.parse_value(tag, key, raw))

    def parse_attribute(self, elem) -> tuple[str, TypedValue] | None:
        """Parse one attribute element into (key, value); None when the
        element is not an attribute (skipped with a warning).  The attributes
        nested in it are checked in document order, without recursion, and
        not kept; an element that is not an attribute is skipped with what it
        contains."""
        parsed = self._attribute(elem)
        if parsed is not None:
            stack = list(reversed(elem))
            while stack:
                child = stack.pop()
                if self._attribute(child) is not None:
                    stack.extend(reversed(child))
        return parsed

    def parse_event(self, elem) -> dict[str, TypedValue]:
        attributes = {}
        for child in elem:
            parsed = self.parse_attribute(child)
            if parsed is None:
                continue
            key, value = parsed
            if key in attributes:
                raise XesStructureError(f"duplicate key {key!r} in event")
            attributes[key] = value
        return attributes

    def parse_trace(self, elem) -> XesTrace:
        attributes = {}
        events = []
        for child in elem:
            tag = _local(child.tag)
            if tag == "event":
                events.append(self.parse_event(child))
            else:
                parsed = self.parse_attribute(child)
                if parsed is not None:
                    attributes.setdefault(*parsed)
        return XesTrace(attributes=attributes, events=tuple(events))

    def open_log(self, root):
        if _local(root.tag) != "log":
            raise XesStructureError(f"root element is <{_local(root.tag)}>, expected <log>")
        if not root.get("xes.version"):
            self.warn("log element has no xes.version attribute")

    def add_child(self, child):
        tag = _local(child.tag)
        if tag == "extension":
            prefix = child.get("prefix")
            if not (child.get("name") and prefix and child.get("uri")):
                self.warn("skipped extension element missing name/prefix/uri")
            elif prefix in self.prefixes:
                raise XesStructureError(f"duplicate extension prefix {prefix!r}")
            else:
                self.prefixes.add(prefix)
        elif tag == "global":
            scope = child.get("scope")
            if scope in ("trace", "event"):
                for attr in child:
                    self.parse_attribute(attr)
            else:
                self.warn(f"skipped global element with scope {scope!r}")
        elif tag == "classifier":
            if not (child.get("name") and child.get("keys")):
                self.warn("skipped classifier element missing name/keys")
        elif tag == "trace":
            self.traces.append(self.parse_trace(child))
        else:
            self.parse_attribute(child)

    def log(self) -> XesLog:
        return XesLog(traces=tuple(self.traces), warnings=tuple(self.warnings))


def _log_elements(data: bytes):
    """Yield ("start", root) for the root element, then ("end", child) for
    each direct child of the root once it is complete.  A child is dropped
    from the tree when the caller resumes, so the tree holds only the child
    being read and what the current input chunk has added after it."""
    depth = 0
    for event, elem in ElementTree.iterparse(io.BytesIO(data), ("start", "end")):
        if event == "start":
            depth += 1
            if depth == 1:
                root = elem
                yield event, elem
        else:
            depth -= 1
            if depth == 1:
                yield event, elem
                root.clear()


def parse_xes(data: bytes) -> XesLog:
    """Parse XES XML bytes (gzip-compressed input is detected and inflated).

    Raises XesParseError for malformed XML (with line/column) and
    XesStructureError for XES-level violations.  The first structural error
    is raised only once the whole document has been read, so malformed XML
    anywhere in it is reported instead, as a whole-document parse would.
    """
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise XesParseError(f"bad gzip stream: {exc}") from exc
    parser = _Parser()
    held: XesStructureError | None = None
    try:
        for event, elem in _log_elements(data):
            if held is not None:
                continue
            try:
                if event == "start":
                    parser.open_log(elem)
                else:
                    parser.add_child(elem)
            except XesStructureError as exc:
                held = exc
    except ElementTree.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        message = str(exc).rsplit(": line ", 1)[0]
        raise XesParseError(message, line, column) from exc
    if held is not None:
        raise held
    return parser.log()

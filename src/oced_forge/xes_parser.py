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

The XML is read in one expat pass, with no element tree: the start handler
keeps one entry per open element (the log, a trace, an event, an element
whose attributes are only checked, or one that is skipped with its content)
and fills the trace's and event's dicts as the tags go by; the end handler
closes events and traces.  The first structural error is held until the
whole document has been read, so malformed XML anywhere in it is reported
instead.  A reference to an undeclared or an external entity is an
"undefined entity" parse error, as in ElementTree; no DTD or entity is read.
"""

import gzip
import zlib
from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import XesParseError, XesStructureError
from .oced_model import TypedValue
from .timeutil import format_offset_millis, parse_instant

VALUE_KINDS = ("string", "date", "int", "float", "boolean", "id")
_LIST_TAGS = ("list", "container", "values")
_INT64_MAX = 2**63 - 1

# what an open element is, by the entry the reader keeps for it
_LOG, _TRACE, _EVENT, _CHECK, _SKIP = "log", "trace", "event", "check", "skip"


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


def _attribute_text(attr: TypedValue) -> str:
    """Canonical string form of an attribute value (used for ids and types)."""
    if attr.kind == "date":
        return format_offset_millis(attr.value)
    if attr.kind == "boolean":
        return "true" if attr.value else "false"
    if attr.kind == "float":
        return repr(attr.value)
    return str(attr.value)


def parse_value(kind: str, key: str, raw: str):
    """The value of the XES attribute text raw, for a kind in VALUE_KINDS."""
    if kind == "string" or kind == "id":
        return raw
    if kind == "date":
        try:
            return parse_instant(raw)
        except ValueError:
            raise XesStructureError(f"unparseable date for key {key!r}: {raw!r}") from None
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
    lowered = raw.strip().lower()
    if lowered not in ("true", "false"):
        raise XesStructureError(f"unparseable boolean for key {key!r}: {raw!r}")
    return lowered == "true"


class _Reader:
    """The element handlers for one document.  stack holds the kind of each
    open element, innermost last; an event attribute that repeats a key is
    entered as its error, raised at its end tag so that the attributes
    nested in it are checked first."""

    def __init__(self):
        self.stack: list = [None]  # None stands for the document, the root's parent
        self.warnings: list[str] = []
        self.traces: list[XesTrace] = []
        self.prefixes: set[str] = set()
        self.held: XesStructureError | None = None
        self.trace_attributes: dict[str, TypedValue] = {}
        self.events: list[dict[str, TypedValue]] = []
        self.event: dict[str, TypedValue] = {}

    def start(self, name: str, attrs: dict[str, str]):
        if self.held is None:
            try:
                self.stack.append(self._kind(name.rpartition("}")[2], attrs, self.stack[-1]))
            except XesStructureError as exc:
                self.held = exc

    def end(self, name: str):
        if self.held is None:
            kind = self.stack.pop()
            if kind is _EVENT:
                self.events.append(self.event)
            elif kind is _TRACE:
                self.traces.append(XesTrace(self.trace_attributes, tuple(self.events)))
            elif isinstance(kind, XesStructureError):
                self.held = kind

    def _kind(self, tag: str, attrs: dict[str, str], parent):
        if parent is _SKIP:
            return _SKIP
        if parent is None:
            if tag != "log":
                raise XesStructureError(f"root element is <{tag}>, expected <log>")
            if not attrs.get("xes.version"):
                self.warnings.append("log element has no xes.version attribute")
            return _LOG
        if parent is _LOG:
            return self._log_child(tag, attrs)
        if parent is _TRACE and tag == "event":
            self.event = {}
            return _EVENT
        parsed = self._attribute(tag, attrs)
        if parsed is None:
            return _SKIP
        if parent is _EVENT:
            key, value = parsed
            if key in self.event:
                return XesStructureError(f"duplicate key {key!r} in event")
            self.event[key] = value
        elif parent is _TRACE:
            self.trace_attributes.setdefault(*parsed)
        return _CHECK

    def _log_child(self, tag: str, attrs: dict[str, str]):
        if tag == "trace":
            self.trace_attributes, self.events = {}, []
            return _TRACE
        if tag == "extension":
            prefix = attrs.get("prefix")
            if not (attrs.get("name") and prefix and attrs.get("uri")):
                self.warnings.append("skipped extension element missing name/prefix/uri")
            elif prefix in self.prefixes:
                raise XesStructureError(f"duplicate extension prefix {prefix!r}")
            else:
                self.prefixes.add(prefix)
            return _SKIP
        if tag == "global":
            scope = attrs.get("scope")
            if scope in ("trace", "event"):
                return _CHECK
            self.warnings.append(f"skipped global element with scope {scope!r}")
            return _SKIP
        if tag == "classifier":
            if not (attrs.get("name") and attrs.get("keys")):
                self.warnings.append("skipped classifier element missing name/keys")
            return _SKIP
        return _SKIP if self._attribute(tag, attrs) is None else _CHECK

    def _attribute(self, tag: str, attrs: dict[str, str]) -> tuple[str, TypedValue] | None:
        """(key, value) of an attribute element; None, with a warning, for
        an element that is not one."""
        if tag in _LIST_TAGS:
            raise XesStructureError(
                f"list attributes are not supported (element <{tag}>, key={attrs.get('key')!r})"
            )
        if tag not in VALUE_KINDS:
            self.warnings.append(f"skipped unknown element <{tag}>")
            return None
        key = attrs.get("key")
        if not key:
            raise XesStructureError(f"<{tag}> element without a key")
        raw = attrs.get("value")
        if raw is None:
            raise XesStructureError(f"<{tag}> element for key {key!r} without a value")
        return key, TypedValue(tag, parse_value(tag, key, raw))


def parse_xes(data: bytes) -> XesLog:
    """Parse XES XML bytes (gzip-compressed input is detected and inflated,
    once); see parse_xes_xml."""
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise XesParseError(f"bad gzip stream: {exc}") from exc
    return parse_xes_xml(data)


def parse_xes_xml(data: bytes) -> XesLog:
    """Parse XES XML bytes as they are, never inflated.

    Raises XesParseError for malformed XML (with line/column) and
    XesStructureError for XES-level violations.  The first structural error
    is raised only once the whole document has been read, so malformed XML
    anywhere in it is reported instead, as a whole-document parse would.
    """
    reader = _Reader()
    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = reader.start
    parser.EndElementHandler = reader.end
    external: set[str] = set()  # the external general entities declared

    def declared(name, is_parameter_entity, value, *_):
        if value is None and not is_parameter_entity:
            external.add(name)

    def undefined(name, is_parameter_entity=False):
        # ElementTree's message, which keeps at most 100 bytes of the reference
        if not is_parameter_entity:
            reference = f"&{name};".encode()[:100].decode("utf-8", "replace")
            line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
            raise XesParseError(f"undefined entity {reference}", line, column)

    def external_reference(context, *_):
        # context names the open entities (and namespace bindings); the
        # referenced one is the only external one among them
        undefined(next(name for name in context.split("\x0c") if name in external))

    parser.EntityDeclHandler = declared
    parser.SkippedEntityHandler = undefined
    parser.ExternalEntityRefHandler = external_reference
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XesParseError(expat.ErrorString(exc.code), exc.lineno, exc.offset) from exc
    except (LookupError, ValueError) as exc:
        # an encoding the XML declaration names that expat cannot read
        raise XesParseError(str(exc), parser.ErrorLineNumber, parser.ErrorColumnNumber) from exc
    finally:
        parser = None  # drop the cycle through the entity handlers, which hold it
    if reader.held is not None:
        raise reader.held
    return XesLog(traces=tuple(reader.traces), warnings=tuple(reader.warnings))

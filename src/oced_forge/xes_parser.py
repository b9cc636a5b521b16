"""Parser for XES event logs.

Reads XES XML (optionally gzip-compressed, detected by magic bytes) into an
in-memory log of what the conversion reads: the traces, their events, and
the top-level attributes of each.  An event is its attributes by key, a
dict of TypedValue; a repeated key in an event is an error.  A trace keeps
the first value of a repeated key; later repeats are still checked.  The
log header (extensions, globals, classifiers, log-level attributes) and
attributes nested in other attributes are checked but not kept; the XES
list/container construct is rejected.  Unknown elements are skipped with a
warning: once a document is read, each warning is logged (errors.warn,
under this module's name) and kept on the returned log.

The XML is read in one expat pass, with no element tree: the start handler
keeps one entry per open element (the log, a trace, an event, an element
whose attributes are only checked, or one that is skipped with its content)
and fills the trace's and event's dicts as the tags go by; the end handler
closes events and traces.  An attribute element, at any level, is the
start handler's first case after skipped content: one branch checks and
parses it and keeps an event's or a trace's value; every other element is
one dispatch on its parent's entry.  The first structural error
is held until the whole document has been read, so malformed XML anywhere
in it is reported instead.  The one exception is depth: a start tag that
would make more than MAX_OPEN_ELEMENTS elements open raises
XesStructureError at once and ends the parse, since expat keeps state for
each open element whatever the handlers do.  A reference to an undeclared
or an external entity is an "undefined entity" parse error, as in
ElementTree; no DTD or entity is read.  expat failing to allocate memory
raises MemoryError, not a parse error.

Per document, the reader keeps one TypedValue per distinct string value and
one key string per distinct event-attribute key.  The events and traces
that repeat a value (a team, a product, an activity) share its object
instead of each holding its own key, text and tuple; values are immutable,
so sharing them changes no result.
"""

import gzip
import zlib
from typing import NamedTuple
from xml.parsers import expat

from .errors import XesParseError, XesStructureError, warn
from .oced_model import TypedValue
from .terms import _Memo
from .timeutil import format_offset_millis, parse_instant

VALUE_KINDS = ("string", "date", "int", "float", "boolean", "id")
_LIST_TAGS = ("list", "container", "values")
_INT64_MAX = 2**63 - 1

# the most elements open at once; a deeper document is an error at once
MAX_OPEN_ELEMENTS = 1000

# expat's own allocation failure, which is no fault of the document
_EXPAT_NO_MEMORY = expat.errors.codes[expat.errors.XML_ERROR_NO_MEMORY]

# what an open element is, by the entry the reader keeps for it
_LOG, _TRACE, _EVENT, _CHECK, _SKIP = "log", "trace", "event", "check", "skip"


class XesTrace(NamedTuple):
    attributes: dict[str, TypedValue]
    events: tuple[dict[str, TypedValue], ...]


class XesLog(NamedTuple):
    traces: tuple[XesTrace, ...]
    warnings: tuple[str, ...] = ()  # the reader's; equality and hash ignore them

    def __eq__(self, other):
        return self.traces == other.traces if isinstance(other, XesLog) else NotImplemented

    def __ne__(self, other):
        return self.traces != other.traces if isinstance(other, XesLog) else NotImplemented

    def __hash__(self):
        return hash(self.traces)

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
    nested in it are checked first.  Once an error is held, every element
    is entered as skipped."""

    def __init__(self):
        self.stack: list = [None]  # None stands for the document, the root's parent
        self.warnings: list[str] = []
        self.traces: list[XesTrace] = []
        self.prefixes: set[str] = set()
        self.held: XesStructureError | None = None
        self.trace_attributes: dict[str, TypedValue] = {}
        self.events: list[dict[str, TypedValue]] = []
        self.event: dict[str, TypedValue] = {}
        # one object per distinct string value and per distinct event key
        self.strings = _Memo(lambda raw: tuple.__new__(TypedValue, ("string", raw)))
        self.keys: dict[str, str] = {}

    def start(self, name: str, attrs: dict[str, str]):
        stack = self.stack
        if len(stack) > MAX_OPEN_ELEMENTS:
            raise XesStructureError(f"more than {MAX_OPEN_ELEMENTS} elements open at once")
        parent = stack[-1]
        tag = name.rpartition("}")[2]
        try:
            if parent is _SKIP or self.held is not None:
                stack.append(_SKIP)
            # the common case: an attribute, of an event, a trace, the log or
            # an attribute; only an event's or a trace's is kept
            elif tag in VALUE_KINDS and parent is not None:
                key = attrs.get("key")
                if not key:
                    raise XesStructureError(f"<{tag}> element without a key")
                raw = attrs.get("value")
                if raw is None:
                    raise XesStructureError(f"<{tag}> element for key {key!r} without a value")
                if tag == "string":
                    value = self.strings[raw]
                else:
                    value = tuple.__new__(TypedValue, (tag, parse_value(tag, key, raw)))
                entry = _CHECK
                if parent is _EVENT:
                    key = self.keys.setdefault(key, key)
                    if key in self.event:
                        entry = XesStructureError(f"duplicate key {key!r} in event")
                    else:
                        self.event[key] = value
                elif parent is _TRACE:
                    self.trace_attributes.setdefault(key, value)
                stack.append(entry)
            elif parent is None:
                if tag != "log":
                    raise XesStructureError(f"root element is <{tag}>, expected <log>")
                if not attrs.get("xes.version"):
                    self.warnings.append("log element has no xes.version attribute")
                stack.append(_LOG)
            elif parent is _LOG:
                stack.append(self._log_child(tag, attrs))
            elif parent is _TRACE and tag == "event":
                self.event = {}
                stack.append(_EVENT)
            else:  # not an attribute
                stack.append(self._not_attribute(tag, attrs))
        except XesStructureError as exc:
            self.held = exc
            stack.append(_SKIP)

    def end(self, name: str):
        kind = self.stack.pop()
        if self.held is None:
            if kind is _EVENT:
                self.events.append(self.event)
            elif kind is _TRACE:
                self.traces.append(XesTrace(self.trace_attributes, tuple(self.events)))
            elif isinstance(kind, XesStructureError):
                self.held = kind

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
        return self._not_attribute(tag, attrs)

    def _not_attribute(self, tag: str, attrs: dict[str, str]):
        """_SKIP, with a warning, for an unknown element; a list element is
        an error."""
        if tag in _LIST_TAGS:
            raise XesStructureError(
                f"list attributes are not supported (element <{tag}>, key={attrs.get('key')!r})"
            )
        self.warnings.append(f"skipped unknown element <{tag}>")
        return _SKIP


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
    The reader's warnings are logged once the document is read, so a
    document that raises logs none.
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
        if exc.code == _EXPAT_NO_MEMORY:
            raise MemoryError from exc
        raise XesParseError(expat.ErrorString(exc.code), exc.lineno, exc.offset) from exc
    except (LookupError, ValueError) as exc:
        # an encoding the XML declaration names that expat cannot read
        raise XesParseError(str(exc), parser.ErrorLineNumber, parser.ErrorColumnNumber) from exc
    finally:
        parser = None  # drop the cycle through the entity handlers, which hold it
    if reader.held is not None:
        raise reader.held
    for warning in reader.warnings:
        warn(__name__, "%s", warning)
    return XesLog(traces=tuple(reader.traces), warnings=tuple(reader.warnings))

"""Independent brute-force oracles and random input generators.

Everything here re-derives expected results from first principles (full
scans, exhaustive enumeration over ordered event triples) so the fast
implementations are checked against a path they share no code with.
"""

import gzip
import json
import random
import re
import zlib
from datetime import datetime, timedelta, timezone
from xml.etree import ElementTree

from oced_forge.errors import XesParseError, XesStructureError
from oced_forge.oced_model import OcedEvent, OcedGraph, OcedObject, TypedValue, escape_id
from oced_forge.terms import EX, PREFIXES, _iri_token, _literal_token, _Memo
from oced_forge.timeutil import format_utc_millis, has_utc_instant, parse_instant, utc_key
from oced_forge.triple_query import TriplePattern, Var
from oced_forge.turtle_io import _statements
from oced_forge.xes_parser import VALUE_KINDS, XesLog, XesTrace, parse_value

BASE_TIME = datetime(2012, 1, 1, tzinfo=timezone.utc)


# -- basic graph pattern join (left to right, full scan, no indexes) ---------


def _unify(pattern: TriplePattern, triple, binding):
    merged = dict(binding)
    pairs = zip(
        (pattern.subject, pattern.predicate, pattern.object),
        (triple.subject, triple.predicate, triple.object),
    )
    for want, got in pairs:
        if isinstance(want, Var):
            if want.name in merged:
                if merged[want.name] != got:
                    return None
            else:
                merged[want.name] = got
        elif want != got:
            return None
    return merged


def nested_loop_bgp(triples, patterns, limit=None):
    """Join oracle: patterns evaluated in the given order over a plain list.

    Returns None when an intermediate result exceeds `limit` rows (used to
    skip pathological random cases deterministically).
    """
    solutions = [{}]
    for pattern in patterns:
        out = []
        for solution in solutions:
            for triple in triples:
                merged = _unify(pattern, triple, solution)
                if merged is not None:
                    out.append(merged)
                    if limit is not None and len(out) > limit:
                        return None
        solutions = out
    return solutions


def _compatible(solution, match):
    return all(match[name] == value for name, value in solution.items() if name in match)


def nested_loop_optional(triples, required, optional_groups, limit=None):
    """Left-outer-join oracle: each group's matches come from nested_loop_bgp
    once, unbound; every solution is merged with each compatible match, in
    match order, or kept as-is when none is compatible.

    Returns None when a result exceeds `limit` rows, like nested_loop_bgp.
    """
    solutions = nested_loop_bgp(triples, required, limit)
    for group in optional_groups:
        matches = nested_loop_bgp(triples, group, limit)
        if solutions is None or matches is None:
            return None
        extended = []
        for solution in solutions:
            compatible = [match for match in matches if _compatible(solution, match)]
            if compatible:
                extended.extend({**solution, **match} for match in compatible)
            else:
                extended.append(solution)
            if limit is not None and len(extended) > limit:
                return None
        solutions = extended
    return solutions


def as_bag(solutions):
    """Order-insensitive multiset view of a solution sequence."""
    bag: dict[frozenset, int] = {}
    for solution in solutions:
        key = frozenset(solution.items())
        bag[key] = bag.get(key, 0) + 1
    return bag


# -- ping-pong over raw (team, time) rows -------------------------------------


def brute_force_ping_pong(rows):
    """Exhaustive scan over all ordered row triples.

    rows: list of (team, time).  Returns (has_ping_pong, min_time, max_time);
    None for an empty row list.
    """
    if not rows:
        return None
    has = False
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                team_a, t1 = rows[i]
                team_b, t2 = rows[j]
                team_c, t3 = rows[k]
                if team_a == team_c and team_a != team_b and t1 < t2 < t3:
                    has = True
                    break
            if has:
                break
        if has:
            break
    times = [t for _, t in rows]
    return has, min(times), max(times)


def brute_force_witnesses(rows):
    """Per-team count of witnessing ordered row triples, by exhaustive scan."""
    counts: dict[str, int] = {}
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                team_a, t1 = rows[i]
                team_b, t2 = rows[j]
                team_c, t3 = rows[k]
                if team_a == team_c and team_a != team_b and t1 < t2 < t3:
                    counts[team_a] = counts.get(team_a, 0) + 1
                    counts[team_b] = counts.get(team_b, 0) + 1
    return counts


# -- generators ---------------------------------------------------------------


def build_handoff_graph(handoffs):
    """Graph from (case, team, time) triples: one event per entry, related to
    its case ('event_case') and team ('handled_by_support_team')."""
    graph = OcedGraph()
    for ordinal, (case, team, time) in enumerate(handoffs, start=1):
        if case not in graph.objects:
            graph.add_object(OcedObject(id=case, object_type="case"))
        if team is not None and team not in graph.objects:
            graph.add_object(OcedObject(id=team, object_type="support_team"))
        event = graph.add_event(
            OcedEvent(id=f"e{ordinal}", event_type="handover", observed_at=time)
        )
        graph.relate_event_object(event.id, case, "event_case")
        if team is not None:
            graph.relate_event_object(event.id, team, "handled_by_support_team")
    return graph


def random_handoff_graph(rng: random.Random, max_cases=20, max_events=15, max_teams=5):
    """Random ping-pong input with ground truth.

    Returns (graph, records) where records maps case IRI -> list of
    (team IRI, time) rows, written down at generation time so the oracle
    never consults the graph machinery.
    """
    teams = [f"team_{chr(ord('A') + i)}" for i in range(rng.randint(1, max_teams))]
    records: dict[str, list] = {}
    handoffs = []
    for c in range(rng.randint(1, max_cases)):
        case = f"case_{c}"
        count = rng.randint(1, max_events)
        # narrow second range so duplicate timestamps are frequent
        seconds_pool = max(1, int(count * 0.7))
        rows = []
        for _ in range(count):
            team = rng.choice(teams)
            time = BASE_TIME + timedelta(seconds=rng.randint(0, seconds_pool))
            rows.append((EX + team, time))
            handoffs.append((case, team, time))
        records[EX + case] = rows
    return build_handoff_graph(handoffs), records


_WEIRD = ["plain", "with space", "tab\there", 'quo"te', "back\\slash", "新值", "a+b:c", "line\nbreak"]


def _random_typed_value(rng: random.Random) -> TypedValue:
    kind = rng.choice(["string", "date", "int", "float", "boolean", "id"])
    if kind == "string":
        return TypedValue("string", rng.choice(_WEIRD) + str(rng.randint(0, 99)))
    if kind == "date":
        return TypedValue(
            "date", BASE_TIME + timedelta(seconds=rng.randint(0, 10**6), milliseconds=rng.randint(0, 999))
        )
    if kind == "int":
        return TypedValue("int", rng.randint(-(2**40), 2**40))
    if kind == "float":
        return TypedValue("float", round(rng.uniform(-1e6, 1e6), 6))
    if kind == "boolean":
        return TypedValue("boolean", rng.random() < 0.5)
    return TypedValue("id", f"{rng.randint(0, 2**32):08x}")


def random_oced_graph(rng: random.Random, max_events=8, max_objects=6) -> OcedGraph:
    """Random graph exercising every value kind, odd characters in ids and
    types, optional qualifiers, and object-object relations."""
    graph = OcedGraph()
    object_ids = []
    for i in range(rng.randint(1, max_objects)):
        object_id = f"o{i}_" + escape_id(rng.choice(_WEIRD))
        graph.add_object(
            OcedObject(id=object_id, object_type=rng.choice(["case", "team", "strange type"]))
        )
        object_ids.append(object_id)
    event_ids = []
    for i in range(rng.randint(1, max_events)):
        event_id = f"e{i}_" + escape_id(rng.choice(_WEIRD))
        attributes = {
            f"k{j}:{rng.choice(['a', 'b'])}": _random_typed_value(rng)
            for j in range(rng.randint(0, 3))
        }
        graph.add_event(
            OcedEvent(
                id=event_id,
                event_type=rng.choice(["Accepted+In Progress", "Queued", "weird type"]),
                observed_at=BASE_TIME + timedelta(seconds=rng.randint(0, 10**6)),
                attributes=attributes,
            )
        )
        event_ids.append(event_id)
    seen = set()
    for _ in range(rng.randint(0, 2 * len(event_ids))):
        event_id = rng.choice(event_ids)
        object_id = rng.choice(object_ids)
        qualifier = rng.choice([None, "event_case", "handled_by_support_team", "odd qualifier"])
        if (event_id, object_id, qualifier) in seen:
            continue
        seen.add((event_id, object_id, qualifier))
        graph.relate_event_object(event_id, object_id, qualifier)
    if len(object_ids) >= 2:
        for _ in range(rng.randint(0, 3)):
            source, target = rng.sample(object_ids, 2)
            graph.relate_objects(source, target, rng.choice(["involves_team", "rel x"]))
    return graph


def random_xes(rng: random.Random):
    """Random XES text plus ground truth counted from the generation plan.

    Returns (xml_text, total_events, retained_events, distinct_groups) where
    retained counts events carrying a date-kind time:timestamp and
    distinct_groups the org:group values among retained events.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    total = 0
    retained = 0
    groups = set()
    for t in range(rng.randint(0, 6)):
        lines.append("  <trace>")
        lines.append(f'    <string key="concept:name" value="case {t}"/>')
        for e in range(rng.randint(0, 10)):
            total += 1
            lines.append("    <event>")
            lines.append(f'      <string key="concept:name" value="act{rng.randint(0, 3)}"/>')
            roll = rng.random()
            if roll < 0.8:
                stamp = BASE_TIME + timedelta(seconds=rng.randint(0, 9999))
                lines.append(
                    f'      <date key="time:timestamp" '
                    f'value="{stamp.strftime("%Y-%m-%dT%H:%M:%S")}.000+00:00"/>'
                )
                retained += 1
                has_stamp = True
            elif roll < 0.9:
                lines.append('      <string key="time:timestamp" value="not a date"/>')
                has_stamp = False
            else:
                has_stamp = False
            if rng.random() < 0.7:
                group = f"V{rng.randint(1, 4)}"
                lines.append(f'      <string key="org:group" value="{group}"/>')
                if has_stamp:
                    groups.add(group)
            lines.append("    </event>")
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines), total, retained, len(groups)


# -- whole-document XES reader (ElementTree.fromstring, then an Element walk) --


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _tree_attribute(elem, warnings) -> tuple[str, TypedValue] | None:
    tag = _local(elem.tag)
    if tag in ("list", "container", "values"):
        raise XesStructureError(
            f"list attributes are not supported (element <{tag}>, key={elem.get('key')!r})"
        )
    if tag not in VALUE_KINDS:
        warnings.append(f"skipped unknown element <{tag}>")
        return None
    key = elem.get("key")
    if not key:
        raise XesStructureError(f"<{tag}> element without a key")
    raw = elem.get("value")
    if raw is None:
        raise XesStructureError(f"<{tag}> element for key {key!r} without a value")
    return key, TypedValue(tag, parse_value(tag, key, raw))


def _tree_checked_attribute(elem, warnings) -> tuple[str, TypedValue] | None:
    """_tree_attribute, after which the attributes nested in elem are checked
    in document order, without recursion; an element that is not an
    attribute is skipped with what it contains."""
    parsed = _tree_attribute(elem, warnings)
    if parsed is not None:
        stack = list(reversed(elem))
        while stack:
            child = stack.pop()
            if _tree_attribute(child, warnings) is not None:
                stack.extend(reversed(child))
    return parsed


def _tree_event(elem, warnings) -> dict[str, TypedValue]:
    attributes = {}
    for child in elem:
        parsed = _tree_checked_attribute(child, warnings)
        if parsed is None:
            continue
        key, value = parsed
        if key in attributes:
            raise XesStructureError(f"duplicate key {key!r} in event")
        attributes[key] = value
    return attributes


def _tree_trace(elem, warnings) -> XesTrace:
    attributes = {}
    events = []
    for child in elem:
        if _local(child.tag) == "event":
            events.append(_tree_event(child, warnings))
        else:
            parsed = _tree_checked_attribute(child, warnings)
            if parsed is not None:
                attributes.setdefault(*parsed)
    return XesTrace(attributes=attributes, events=tuple(events))


def fromstring_parse_xes(data: bytes) -> XesLog:
    """Reference for parse_xes: the whole DOM is built first, so any XML
    syntax error wins over every structural error, and then the <log>
    children are walked in document order, stopping at the first structural
    error.  Only value parsing (parse_value) is the package's.
    """
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise XesParseError(f"bad gzip stream: {exc}") from exc
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        message = str(exc).rsplit(": line ", 1)[0]
        raise XesParseError(message, line, column) from exc

    warnings = []
    if _local(root.tag) != "log":
        raise XesStructureError(f"root element is <{_local(root.tag)}>, expected <log>")
    if not root.get("xes.version"):
        warnings.append("log element has no xes.version attribute")
    traces = []
    prefixes = set()
    for child in root:
        tag = _local(child.tag)
        if tag == "extension":
            name, prefix, uri = child.get("name"), child.get("prefix"), child.get("uri")
            if not (name and prefix and uri):
                warnings.append("skipped extension element missing name/prefix/uri")
                continue
            if prefix in prefixes:
                raise XesStructureError(f"duplicate extension prefix {prefix!r}")
            prefixes.add(prefix)
        elif tag == "global":
            scope = child.get("scope")
            if scope == "trace" or scope == "event":
                for attribute in child:
                    _tree_checked_attribute(attribute, warnings)
            else:
                warnings.append(f"skipped global element with scope {scope!r}")
        elif tag == "classifier":
            if not (child.get("name") and child.get("keys")):
                warnings.append("skipped classifier element missing name/keys")
        elif tag == "trace":
            traces.append(_tree_trace(child, warnings))
        else:
            _tree_checked_attribute(child, warnings)
    return XesLog(traces=tuple(traces), warnings=tuple(warnings))


# -- convert's Turtle rows in token-tuple order ---------------------------------


def tuple_order_turtle(graph: OcedGraph) -> tuple[str, int]:
    """Reference for graph_to_turtle: the graph's distinct rows sorted as
    (subject, predicate, object) token tuples, then joined after the prefix
    header; and the number of rows."""
    iri = _Memo(_iri_token)
    rows = sorted(
        {
            (iri[s], iri[p], iri[o] if o.__class__ is str else _literal_token(o[0], o[1] and iri[o[1]]))
            for s, p, o in _statements(graph)
        }
    )
    header = "".join(f"@prefix {prefix}: <{namespace}> .\n" for prefix, namespace in PREFIXES)
    if not rows:
        return header, 0
    return header + "\n" + "".join(f"{s} {p} {o} .\n" for s, p, o in rows), len(rows)


# -- timestamps ---------------------------------------------------------------

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,9}))?"
    r"(Z|z|[+-]\d{2}:?\d{2})$"
)


def reference_parse_instant(text: str) -> datetime:
    """Reference for timeutil.parse_instant: each field converted on its own
    and a new tzinfo per call.  Offset minutes past 59 name no offset, and
    nor does an offset past 14:00 either way (xsd:dateTime's zone range)."""
    m = _ISO_RE.match(text.strip())
    if m is None or (
        m.group(8) not in ("Z", "z")
        and (int(m.group(8)[-2:]) > 59 or (int(m.group(8)[1:3]), int(m.group(8)[-2:])) > (14, 0))
    ):
        raise ValueError(f"not an ISO-8601 timestamp with zone offset: {text!r}")
    year, month, day, hour, minute, second = (int(g) for g in m.groups()[:6])
    frac = m.group(7) or ""
    micros = int(frac.ljust(6, "0")[:6]) if frac else 0
    off = m.group(8)
    if off in ("Z", "z"):
        tz = timezone.utc
    else:
        sign = 1 if off[0] == "+" else -1
        oh = int(off[1:3])
        om = int(off[-2:])
        tz = timezone(sign * timedelta(hours=oh, minutes=om))
    return datetime(year, month, day, hour, minute, second, micros, tzinfo=tz)



def assert_utc_key_contract(texts):
    """timeutil.utc_key against the datetime path it replaces on the read
    side: over the texts, a key is None exactly when parse_instant raises or
    has_utc_instant is False; otherwise it is the instant's UTC text to the
    microsecond, its cut to milliseconds is format_utc_millis' text, and key
    order (and equality) is the order of the parsed instants.  Plain asserts, so a script can run
    it on a Python with no test tools installed."""
    keyed = []
    for text in texts:
        key = utc_key(text)
        try:
            instant = parse_instant(text)
        except ValueError:
            instant = None
        if instant is None or not has_utc_instant(instant):
            assert key is None, (text, key)
            continue
        utc = instant.astimezone(timezone.utc)
        assert key == utc.isoformat(timespec="microseconds")[:-6] + "Z", (text, key)
        assert key[:23] + "Z" == format_utc_millis(instant), (text, key)
        keyed.append((key, instant, text))
    for key, instant, text in keyed:
        for other_key, other_instant, other_text in keyed:
            assert (key < other_key) == (instant < other_instant), (text, other_text)
            assert (key == other_key) == (instant == other_instant), (text, other_text)

# -- escaped ids: the rules each module wrote for itself before terms held them


_REFERENCE_SAFE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")
_REFERENCE_BAD_PERCENT_RE = re.compile(r"%(?![0-9A-Fa-f]{2})")
_REFERENCE_ID_RE = re.compile(r"[A-Za-z0-9_%\-]+")
_REFERENCE_PN_LOCAL_RE = re.compile(r"[A-Za-z0-9_%][A-Za-z0-9_%\-]*")


def reference_escape_id(raw: str) -> str:
    """Reference for terms.escape_id: one list entry per character."""
    out = []
    for ch in raw:
        if ch in _REFERENCE_SAFE:
            out.append(ch)
        else:
            out.extend(f"%{b:02X}" for b in ch.encode("utf-8"))
    return "".join(out)


def reference_unescape_id(escaped: str) -> str:
    """Reference for terms.unescape_id: a loop over characters, each '%'
    read with the two characters after it as one byte."""
    data = bytearray()
    i = 0
    while i < len(escaped):
        ch = escaped[i]
        if ch == "%":
            data.append(int(escaped[i + 1 : i + 3], 16))
            i += 3
        else:
            data.extend(ch.encode("utf-8"))
            i += 1
    return data.decode("utf-8")


def reference_is_escaped_id(value: str) -> bool:
    """Reference for terms.is_escaped_id: the id check of the graph model."""
    return bool(_REFERENCE_ID_RE.fullmatch(value)) and not ("%" in value and _REFERENCE_BAD_PERCENT_RE.search(value))


def reference_prefixes_local(local: str) -> bool:
    """Reference for the Turtle writer's choice to write namespace + local as
    a prefixed name."""
    return bool(_REFERENCE_PN_LOCAL_RE.fullmatch(local)) and not (
        "%" in local and _REFERENCE_BAD_PERCENT_RE.search(local)
    )


_REFERENCE_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def reference_langtag(tag: str) -> bool:
    """Reference for terms._LANGTAG, from RDF 1.1 Turtle's production
    LANGTAG ::= '@' [a-zA-Z]+ ('-' [a-zA-Z0-9]+)* without its '@': split at
    each '-', the first subtag is ASCII letters and every later one ASCII
    letters and digits, none of them empty."""
    first, *rest = tag.split("-")
    return (
        first != ""
        and all(ch in _REFERENCE_LETTERS for ch in first)
        and all(sub != "" and all(ch in _REFERENCE_LETTERS or ch in "0123456789" for ch in sub) for sub in rest)
    )


# -- JSONL -------------------------------------------------------------------


def reference_records_to_jsonl(records, columns) -> str:
    """Reference for analyses.records_to_jsonl: one dict and one json.dumps
    per record."""
    return "".join(json.dumps(dict(zip(columns, record)), ensure_ascii=False) + "\n" for record in records)

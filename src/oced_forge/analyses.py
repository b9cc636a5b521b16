"""Object-centric analyses over a triple store.

Ping-pong detection (BPIC 2013 question 2): a case shows ping-pong when some
team handles it, a different team handles it strictly later, and the first
team handles it strictly later again.  The three events need not be
consecutive, and equal timestamps never witness ping-pong (strict
inequalities throughout).  Such a triple is a witness; a case shows
ping-pong exactly when it has one.  Both analyses count witnesses per team
from sorted time arrays instead of enumerating event triples.

Team involvement ranks teams by the number of distinct cases in which they
appear in at least one witnessing event triple, with the total number of
witnessing triples as a secondary metric.
"""

import csv
import io
import json
import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime

from .terms import (
    EXT_CLASSIFIER,
    EXT_EVENT,
    EXT_EVENT_CASE,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_HANDLED_BY_TEAM,
    EXT_OBJECT,
    EXT_OBJECT_TYPE,
    OBSERVED_AT,
    RDF_TYPE,
    Iri,
    Term,
    TypedLiteral,
)
from .timeutil import format_utc_millis
from .triple_query import TriplePattern, TripleStore, Var, datetime_value

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EventObjectRow:
    event: str
    object: str
    classifier: str | None = None
    event_type: str | None = None
    time: datetime | None = None
    object_type: str | None = None


@dataclass(frozen=True)
class PingPongRow:
    case: str
    has_ping_pong: bool
    min_time: datetime
    max_time: datetime


@dataclass(frozen=True)
class TeamInvolvement:
    team: str
    cases_involved: int
    witness_count: int


def _key(term: Term) -> str:
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, TypedLiteral):
        return term.lexical
    return term.value


def _text(term: Term | None) -> str | None:
    return None if term is None else _key(term)


@dataclass(frozen=True)
class HandledEvent:
    """One solution of the query block: event with case, time, and team."""

    event: str
    case: str
    team: str
    time: datetime


def handled_events(store: TripleStore) -> list[HandledEvent]:
    """All (event, case, time, team) rows with a well-formed dateTime.

    Rows whose time literal is not a parseable xsd:dateTime are dropped.
    """
    event = Var("event")
    solutions = store.match_bgp(
        [
            TriplePattern(event, EXT_EVENT_CASE, Var("case")),
            TriplePattern(event, OBSERVED_AT, Var("time")),
            TriplePattern(event, EXT_HANDLED_BY_TEAM, Var("team")),
        ]
    )
    rows = []
    for sol in solutions:
        time = datetime_value(sol["time"])
        if time is None:
            continue
        rows.append(
            HandledEvent(
                event=_key(sol["event"]),
                case=_key(sol["case"]),
                team=_key(sol["team"]),
                time=time,
            )
        )
    return rows


def _by_case(rows: list[HandledEvent]) -> dict[str, list[HandledEvent]]:
    grouped: dict[str, list[HandledEvent]] = {}
    for row in rows:
        grouped.setdefault(row.case, []).append(row)
    return grouped


def detect_ping_pong(store: TripleStore) -> list[PingPongRow]:
    """One row per case with at least one team-handled timestamped event,
    ordered by has_ping_pong (false first) then case."""
    out = []
    for case, rows in _by_case(handled_events(store)).items():
        times = [row.time for row in rows]
        out.append(
            PingPongRow(
                case=case,
                has_ping_pong=bool(_case_witness_counts(rows)),
                min_time=min(times),
                max_time=max(times),
            )
        )
    out.sort(key=lambda row: (row.has_ping_pong, row.case))
    return out


def _case_witness_counts(rows: list[HandledEvent]) -> dict[str, int]:
    """Witnessing-triple count per team for one case.

    A witness is an ordered row triple (r1, r2, r3) with team(r1) = team(r3)
    != team(r2) and time(r1) < time(r2) < time(r3); it counts once for each
    of the two teams in it.  Counted via per-team sorted time arrays instead
    of enumerating triples.
    """
    times_by_team: dict[str, list[datetime]] = {}
    for row in rows:
        times_by_team.setdefault(row.team, []).append(row.time)
    for times in times_by_team.values():
        times.sort()
    counts: dict[str, int] = {}
    for row in rows:  # row is the middle event, its team plays teamB
        for team_a, times in times_by_team.items():
            if team_a == row.team:
                continue
            before = bisect_left(times, row.time)
            after = len(times) - bisect_right(times, row.time)
            witnesses = before * after
            if witnesses:
                counts[team_a] = counts.get(team_a, 0) + witnesses
                counts[row.team] = counts.get(row.team, 0) + witnesses
    return counts


def team_involvement(store: TripleStore) -> list[TeamInvolvement]:
    """Teams ranked by distinct ping-ponged cases (descending), tie-broken by
    team IRI; teams in no witness are omitted."""
    cases: dict[str, int] = {}
    witnesses: dict[str, int] = {}
    for rows in _by_case(handled_events(store)).values():
        for team, count in _case_witness_counts(rows).items():
            cases[team] = cases.get(team, 0) + 1
            witnesses[team] = witnesses.get(team, 0) + count
    ranking = [
        TeamInvolvement(team=team, cases_involved=cases[team], witness_count=witnesses[team])
        for team in cases
    ]
    ranking.sort(key=lambda ti: (-ti.cases_involved, ti.team))
    return ranking


def enumerate_event_objects(store: TripleStore) -> list[EventObjectRow]:
    """One row per well-formed ext:EventObject node.

    classifier, event type, time, and object type are filled when present
    and left unbound otherwise; nodes lacking ext:event or ext:object are
    skipped with a warning.
    """
    node, event, obj = Var("node"), Var("event"), Var("object")
    solutions = store.match_optional(
        required=[
            TriplePattern(node, RDF_TYPE, EXT_EVENT_OBJECT_CLASS),
            TriplePattern(node, EXT_EVENT, event),
            TriplePattern(node, EXT_OBJECT, obj),
        ],
        optional_groups=[
            [TriplePattern(node, EXT_CLASSIFIER, Var("classifier"))],
            [TriplePattern(event, EXT_EVENT_TYPE, Var("event_type"))],
            [TriplePattern(event, OBSERVED_AT, Var("time"))],
            [TriplePattern(obj, EXT_OBJECT_TYPE, Var("object_type"))],
        ],
    )
    joined = {sol["node"] for sol in solutions}
    nodes = store.match_pattern(TriplePattern(node, RDF_TYPE, EXT_EVENT_OBJECT_CLASS))
    skipped = [sol["node"] for sol in nodes if sol["node"] not in joined]
    if skipped:  # one read of ext:event tells the two warnings apart for every node
        has_event = store.match_pattern(TriplePattern(node, EXT_EVENT, event))
        with_event = {sol["node"] for sol in has_event}
        for n in skipped:
            lacks = "ext:object" if n in with_event else "ext:event"
            log.warning("EventObject %s lacks %s; skipped", _key(n), lacks)

    rows = []
    times = {None: None}  # each distinct literal decoded once; an event has a row per object
    for sol in solutions:
        time_term = sol.get("time")
        if time_term not in times:
            times[time_term] = datetime_value(time_term)
        rows.append(
            EventObjectRow(
                event=_key(sol["event"]),
                object=_key(sol["object"]),
                classifier=_text(sol.get("classifier")),
                event_type=_text(sol.get("event_type")),
                time=times[time_term],
                object_type=_text(sol.get("object_type")),
            )
        )
    rows.sort(
        key=lambda r: (
            r.event,
            r.object,
            r.classifier or "",
            r.event_type or "",
            r.object_type or "",
        )
    )
    return rows


# -- tabular output ----------------------------------------------------------

PING_PONG_COLUMNS = ("case", "has_ping_pong", "min_time", "max_time")
EVENT_OBJECT_COLUMNS = ("event", "object", "classifier", "event_type", "time", "object_type")
TEAM_COLUMNS = ("team", "cases_involved", "witness_count")


def ping_pong_records(rows: list[PingPongRow]) -> list[dict]:
    return [
        {
            "case": row.case,
            "has_ping_pong": row.has_ping_pong,
            "min_time": format_utc_millis(row.min_time),
            "max_time": format_utc_millis(row.max_time),
        }
        for row in rows
    ]


def event_object_records(rows: list[EventObjectRow]) -> list[dict]:
    times = {None: None}  # each distinct time formatted once
    for row in rows:
        if row.time not in times:
            times[row.time] = format_utc_millis(row.time)
    return [
        {
            "event": row.event,
            "object": row.object,
            "classifier": row.classifier,
            "event_type": row.event_type,
            "time": times[row.time],
            "object_type": row.object_type,
        }
        for row in rows
    ]


def team_records(rows: list[TeamInvolvement]) -> list[dict]:
    return [
        {
            "team": row.team,
            "cases_involved": row.cases_involved,
            "witness_count": row.witness_count,
        }
        for row in rows
    ]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: list[dict], columns: tuple[str, ...]) -> str:
    """RFC 4180 CSV (CRLF line endings) with a header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_cell(record[c]) for c in columns])
    return buf.getvalue()


def records_to_jsonl(records: list[dict], columns: tuple[str, ...]) -> str:
    """One UTF-8 JSON object per line, keys in column order."""
    lines = [
        json.dumps({c: record[c] for c in columns}, ensure_ascii=False) for record in records
    ]
    return "".join(line + "\n" for line in lines)

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

Each analysis returns named tuples, so its schema is declared once: the
row type's fields are the output columns (the *_COLUMNS), and records()
turns rows into tuples of output cells that records_to_csv and
records_to_jsonl write in that order.
"""

import csv
import io
import json
import logging
from bisect import bisect_left, bisect_right
from datetime import datetime
from typing import NamedTuple, get_args

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
from .triple_query import BindingSet, TriplePattern, TripleStore, Var, datetime_value

log = logging.getLogger(__name__)


class EventObjectRow(NamedTuple):
    event: str
    object: str
    classifier: str | None = None
    event_type: str | None = None
    time: datetime | None = None
    object_type: str | None = None


class PingPongRow(NamedTuple):
    case: str
    has_ping_pong: bool
    min_time: datetime
    max_time: datetime


class TeamInvolvement(NamedTuple):
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


_EVENT, _OBJECT, _NODE = Var("event"), Var("object"), Var("node")

# The patterns each analysis reads; a load for one analysis keeps only
# their predicates' triples.
# ?event ext:event_case ?case; ocedo:observed_at ?time; ext:handled_by_support_team ?team
TEAM_TIMES = [
    TriplePattern(_EVENT, EXT_EVENT_CASE, Var("case")),
    TriplePattern(_EVENT, OBSERVED_AT, Var("time")),
    TriplePattern(_EVENT, EXT_HANDLED_BY_TEAM, Var("team")),
]
# ?node a ext:EventObject; ext:event ?event; ext:object ?object
_EVENT_OBJECT = [
    TriplePattern(_NODE, RDF_TYPE, EXT_EVENT_OBJECT_CLASS),
    TriplePattern(_NODE, EXT_EVENT, _EVENT),
    TriplePattern(_NODE, EXT_OBJECT, _OBJECT),
]
# OPTIONAL { ?node ext:classifier ?classifier }
_CLASSIFIER = TriplePattern(_NODE, EXT_CLASSIFIER, Var("classifier"))
# event_object_solutions without further groups
EVENT_OBJECT_BLOCK = [*_EVENT_OBJECT, _CLASSIFIER]
# enumerate_event_objects' further OPTIONAL groups, one pattern each
_EVENT_OBJECT_DETAILS = [
    TriplePattern(_EVENT, EXT_EVENT_TYPE, Var("event_type")),
    TriplePattern(_EVENT, OBSERVED_AT, Var("time")),
    TriplePattern(_OBJECT, EXT_OBJECT_TYPE, Var("object_type")),
]
EVENT_OBJECTS = [*EVENT_OBJECT_BLOCK, *_EVENT_OBJECT_DETAILS]


def _team_times(store: TripleStore) -> dict[str, dict[str, list[datetime]]]:
    """Case -> team -> sorted times of the team's events in the case.

    One entry per solution of `?event ext:event_case ?case; ocedo:observedAt
    ?time; ext:handled_by_team ?team`; solutions whose time literal is not a
    parseable xsd:dateTime are dropped.
    """
    solutions = store.match_bgp(TEAM_TIMES)
    cases: dict[str, dict[str, list[datetime]]] = {}
    for sol in solutions:
        time = datetime_value(sol["time"])
        if time is not None:
            teams = cases.setdefault(_key(sol["case"]), {})
            teams.setdefault(_key(sol["team"]), []).append(time)
    for teams in cases.values():
        for times in teams.values():
            times.sort()
    return cases


def detect_ping_pong(store: TripleStore) -> list[PingPongRow]:
    """One row per case with at least one team-handled timestamped event,
    ordered by has_ping_pong (false first) then case."""
    out = [
        PingPongRow(
            case,
            bool(_case_witness_counts(teams)),
            min(times[0] for times in teams.values()),
            max(times[-1] for times in teams.values()),
        )
        for case, teams in _team_times(store).items()
    ]
    out.sort(key=lambda row: (row.has_ping_pong, row.case))
    return out


def _case_witness_counts(teams: dict[str, list[datetime]]) -> dict[str, int]:
    """Witnessing-triple count per team for one case, from its team -> sorted
    times map.

    A witness is an ordered event triple (e1, e2, e3) with team(e1) =
    team(e3) != team(e2) and time(e1) < time(e2) < time(e3); it counts once
    for each of the two teams in it.  Counted by bisecting the sorted time
    arrays instead of enumerating triples.
    """
    counts: dict[str, int] = {}
    for team_b, middle_times in teams.items():
        for time in middle_times:  # the middle event, handled by team_b
            for team_a, times in teams.items():
                if team_a == team_b:
                    continue
                witnesses = bisect_left(times, time) * (len(times) - bisect_right(times, time))
                if witnesses:
                    counts[team_a] = counts.get(team_a, 0) + witnesses
                    counts[team_b] = counts.get(team_b, 0) + witnesses
    return counts


def team_involvement(store: TripleStore) -> list[TeamInvolvement]:
    """Teams ranked by distinct ping-ponged cases (descending), tie-broken by
    team IRI; teams in no witness are omitted."""
    cases: dict[str, int] = {}
    witnesses: dict[str, int] = {}
    for teams in _team_times(store).values():
        for team, count in _case_witness_counts(teams).items():
            cases[team] = cases.get(team, 0) + 1
            witnesses[team] = witnesses.get(team, 0) + count
    ranking = [TeamInvolvement(team, cases[team], witnesses[team]) for team in cases]
    ranking.sort(key=lambda ti: (-ti.cases_involved, ti.team))
    return ranking


def event_object_solutions(store: TripleStore, *groups: list[TriplePattern]) -> list[BindingSet]:
    """Solutions of the EventObject block, binding ?node, ?event and ?object,
    each extended by ?classifier and by the given OPTIONAL groups where they
    match."""
    return store.match_optional(required=_EVENT_OBJECT, optional_groups=[[_CLASSIFIER], *groups])


def enumerate_event_objects(store: TripleStore) -> list[EventObjectRow]:
    """One row per well-formed ext:EventObject node.

    classifier, event type, time, and object type are filled when present
    and left unbound otherwise; nodes lacking ext:event or ext:object are
    skipped with a warning.
    """
    solutions = event_object_solutions(store, *([pattern] for pattern in _EVENT_OBJECT_DETAILS))
    joined = {sol["node"] for sol in solutions}
    nodes = store.match_pattern(_EVENT_OBJECT[0])
    skipped = [sol["node"] for sol in nodes if sol["node"] not in joined]
    if skipped:  # one read of ext:event tells the two warnings apart for every node
        with_event = {sol["node"] for sol in store.match_pattern(_EVENT_OBJECT[1])}
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
                _key(sol["event"]),
                _key(sol["object"]),
                _text(sol.get("classifier")),
                _text(sol.get("event_type")),
                times[time_term],
                _text(sol.get("object_type")),
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

PING_PONG_COLUMNS = PingPongRow._fields
EVENT_OBJECT_COLUMNS = EventObjectRow._fields
TEAM_COLUMNS = TeamInvolvement._fields


def records(rows: list[tuple]) -> list[tuple]:
    """Rows of one row type as tuples of output cells in column order: each
    field declared a datetime becomes its UTC millisecond text, each distinct
    instant formatted once, and every other value stays as it is."""
    if not rows:
        return []
    hints = type(rows[0]).__annotations__.values()
    instants = [i for i, hint in enumerate(hints) if datetime in (hint, *get_args(hint))]
    texts: dict[datetime | None, str | None] = {None: None}
    out = []
    for row in rows:
        cells = list(row)
        for i in instants:
            instant = cells[i]
            if instant not in texts:
                texts[instant] = format_utc_millis(instant)
            cells[i] = texts[instant]
        out.append(tuple(cells))
    return out


# one name per analysis, all the same function
ping_pong_records = event_object_records = team_records = records


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: list[tuple], columns: tuple[str, ...]) -> str:
    """RFC 4180 CSV (CRLF line endings) with a header row; each record's
    cells are in column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, record) for record in records)
    return buf.getvalue()


def records_to_jsonl(records: list[tuple], columns: tuple[str, ...]) -> str:
    """One UTF-8 JSON object per line, keys in column order."""
    return "".join(
        json.dumps(dict(zip(columns, record)), ensure_ascii=False) + "\n" for record in records
    )

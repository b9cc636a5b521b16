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
records_to_jsonl write in that order.  A cell read from a term holds the
term's text, its field 0 (see terms), and None when the variable is unbound.
Each output value is built once: the analyses read join rows (see
triple_query), a time literal is decoded once, records formats each distinct
instant once, and records_to_jsonl encodes each distinct cell of a column once.
"""

import csv
import io
import json
import logging
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from datetime import datetime
from itertools import repeat
from operator import itemgetter
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
)
from .timeutil import format_utc_millis
from .triple_query import Rows, TriplePattern, TripleStore, Var, datetime_value

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


_EVENT, _OBJECT, _NODE = Var("event"), Var("object"), Var("node")

# The patterns each analysis reads; a load for one analysis keeps only
# their predicates' triples.  Joins run in the order written, which decides
# only speed; each block reads its smallest partitions first.
# ?event ext:handled_by_support_team ?team; ext:event_case ?case; ocedo:observed_at ?time
TEAM_TIMES = [
    TriplePattern(_EVENT, EXT_HANDLED_BY_TEAM, Var("team")),
    TriplePattern(_EVENT, EXT_EVENT_CASE, Var("case")),
    TriplePattern(_EVENT, OBSERVED_AT, Var("time")),
]
# ?node ext:event ?event; ext:object ?object; a ext:EventObject
_HAS_EVENT = TriplePattern(_NODE, EXT_EVENT, _EVENT)
_IS_EVENT_OBJECT = TriplePattern(_NODE, RDF_TYPE, EXT_EVENT_OBJECT_CLASS)
_EVENT_OBJECT = [_HAS_EVENT, TriplePattern(_NODE, EXT_OBJECT, _OBJECT), _IS_EVENT_OBJECT]
# OPTIONAL { ?node ext:classifier ?classifier }
_CLASSIFIER = TriplePattern(_NODE, EXT_CLASSIFIER, Var("classifier"))
# enumerate_event_objects' further OPTIONAL groups, one pattern each
_EVENT_OBJECT_DETAILS = [
    TriplePattern(_EVENT, EXT_EVENT_TYPE, Var("event_type")),
    TriplePattern(_EVENT, OBSERVED_AT, Var("time")),
    TriplePattern(_OBJECT, EXT_OBJECT_TYPE, Var("object_type")),
]
EVENT_OBJECTS = [*_EVENT_OBJECT, _CLASSIFIER, *_EVENT_OBJECT_DETAILS]


def _select(solutions: Rows, *names: str) -> Iterator[tuple]:
    """The named variables' terms of each row, in the order named (None
    where unbound)."""
    columns, rows = solutions
    return map(itemgetter(*map(columns.index, names)), rows)


def _team_times(store: TripleStore) -> dict[str, dict[str, list[datetime]]]:
    """Case -> team -> sorted times of the team's events in the case.

    One entry per solution of `?event ext:event_case ?case; ocedo:observedAt
    ?time; ext:handled_by_team ?team`; solutions whose time literal is not a
    parseable xsd:dateTime are dropped.
    """
    cases: dict[str, dict[str, list[datetime]]] = {}
    for team, case, time in _select(store._bgp(TEAM_TIMES), "team", "case", "time"):
        time = datetime_value(time)
        if time is not None:
            teams = cases.setdefault(case[0], {})
            teams.setdefault(team[0], []).append(time)
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


def event_object_rows(
    store: TripleStore, names: tuple[str, ...], *groups: list[TriplePattern]
) -> Iterator[tuple]:
    """The named variables of each solution of the EventObject block, which
    binds ?node, ?event and ?object, extended by ?classifier and by the given
    OPTIONAL groups where they match."""
    return _select(store._optional_rows(_EVENT_OBJECT, [[_CLASSIFIER], *groups]), *names)


def enumerate_event_objects(store: TripleStore) -> list[EventObjectRow]:
    """One row per well-formed ext:EventObject node.

    classifier, event type, time, and object type are filled when present
    and left unbound otherwise; nodes lacking ext:event or ext:object are
    skipped with a warning.
    """
    details = ([pattern] for pattern in _EVENT_OBJECT_DETAILS)
    solutions = list(event_object_rows(store, ("node", *EVENT_OBJECT_COLUMNS), *details))
    joined = {solution[0] for solution in solutions}
    nodes = store.match_pattern(_IS_EVENT_OBJECT)
    skipped = [sol["node"] for sol in nodes if sol["node"] not in joined]
    if skipped:  # one read of ext:event tells the two warnings apart for every node
        with_event = {sol["node"] for sol in store.match_pattern(_HAS_EVENT)}
        for n in skipped:
            lacks = "ext:object" if n in with_event else "ext:event"
            log.warning("EventObject %s lacks %s; skipped", n[0], lacks)

    rows = []
    times = {None: None}  # each distinct literal decoded once; an event has a row per object
    for _, event, obj, classifier, event_type, time, object_type in solutions:
        if time not in times:
            times[time] = datetime_value(time)
        rows.append(
            EventObjectRow(
                event[0],
                obj[0],
                classifier and classifier[0],
                event_type and event_type[0],
                times[time],
                object_type and object_type[0],
            )
        )
    rows.sort(key=lambda r: (r.event, r.object, r.classifier or "", r.event_type or "", r.object_type or ""))
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
    columns = list(zip(*rows))
    texts: dict[datetime | None, str | None] = {None: None}
    for i in instants:
        for instant in columns[i]:
            if instant not in texts:
                texts[instant] = format_utc_millis(instant)
        columns[i] = map(texts.__getitem__, columns[i])
    return list(zip(*columns))


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
    """One UTF-8 JSON object per line, keys in column order.

    A column encodes each distinct cell once, with its key in front; the
    memo is keyed on the cell's type as well as its value, because True ==
    1 and False == 0 print differently.  Cells are what records gives:
    str, int, bool or None."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    heads = [("{" if i == 0 else ", ") + encode(column) + ": " for i, column in enumerate(columns)]
    texts = []
    for head, cells in zip(heads, zip(*records)):
        keys = list(zip(map(type, cells), cells))
        memo = {key: head + encode(key[1]) for key in dict.fromkeys(keys)}
        texts.append(map(memo.__getitem__, keys))
    texts.append(repeat("}\n", len(records)))
    return "".join(map("".join, zip(*texts)))

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

Each analysis reads its query's solutions through TripleStore.select, one
tuple of terms per solution in the order it names the variables, and builds
no binding dict.  It returns named tuples, so its schema is declared once: the
row type's fields are the output columns (the *_COLUMNS) and its values the
cells records_to_csv and records_to_jsonl write, in that order; each imports
csv or json, its format's module, only when called.  A cell read
from a term holds the term's text, its field 0 (see terms), and None when
the variable is unbound.  Times stay text (late materialization):
timeutil.utc_key keys each distinct time literal once, the analyses sort
and compare the fixed-width keys, and a time cell is its key cut to
milliseconds, the literal itself when canonical.  records_to_jsonl encodes
each distinct cell of a column once: a column of str and None cells is
memoized on the cell itself, any other on the cell's type and value.
"""

import io
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import NamedTuple

from .errors import warn
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
    XSD_DATETIME,
    Term,
    TypedLiteral,
    _Memo,
)
from .timeutil import utc_key
from .triple_query import TriplePattern, TripleStore, Var


class EventObjectRow(NamedTuple):
    event: str
    object: str
    classifier: str | None = None
    event_type: str | None = None
    time: str | None = None
    object_type: str | None = None


class PingPongRow(NamedTuple):
    case: str
    has_ping_pong: bool
    min_time: str
    max_time: str


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
_IS_EVENT_OBJECT = TriplePattern(_NODE, RDF_TYPE, EXT_EVENT_OBJECT_CLASS)
# The EventObject query: its required block and OPTIONAL groups, one pattern
# each, the classifier first (store_to_dot reads only that group).
# ?node ext:event ?event; ext:object ?object; a ext:EventObject
EVENT_OBJECTS = (
    [TriplePattern(_NODE, EXT_EVENT, _EVENT), TriplePattern(_NODE, EXT_OBJECT, _OBJECT), _IS_EVENT_OBJECT],
    [
        [TriplePattern(_NODE, EXT_CLASSIFIER, Var("classifier"))],
        [TriplePattern(_EVENT, EXT_EVENT_TYPE, Var("event_type"))],
        [TriplePattern(_EVENT, OBSERVED_AT, Var("time"))],
        [TriplePattern(_OBJECT, EXT_OBJECT_TYPE, Var("object_type"))],
    ],
)


def _time_key(term: Term | None) -> str | None:
    """utc_key of an xsd:dateTime literal's text; None for any other term."""
    return utc_key(term.lexical) if isinstance(term, TypedLiteral) and term.datatype == XSD_DATETIME else None


def _time_cell(term: Term | None) -> str | None:
    """A time cell: _time_key cut to milliseconds, the literal's own text
    when that is the same (no copy of a canonical literal)."""
    key = _time_key(term)
    cell = key and key[:23] + "Z"
    return term[0] if cell and cell == term[0] else cell


def _team_times(store: TripleStore) -> dict[str, dict[str, list[str]]]:
    """Case -> team -> sorted time keys of the team's events in the case.

    One entry per solution of `?event ext:event_case ?case; ocedo:observedAt
    ?time; ext:handled_by_team ?team`; solutions whose time literal is not a
    parseable xsd:dateTime are dropped.  Each distinct literal is keyed once.
    """
    cases: dict[str, dict[str, list[str]]] = {}
    keys = _Memo(_time_key)
    for team, case, time in store.select(("team", "case", "time"), TEAM_TIMES):
        time = keys[time]
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
            min(times[0] for times in teams.values())[:23] + "Z",  # a key cut to milliseconds
            max(times[-1] for times in teams.values())[:23] + "Z",
        )
        for case, teams in _team_times(store).items()
    ]
    out.sort(key=lambda row: (row.has_ping_pong, row.case))
    return out


def _case_witness_counts(teams: dict[str, list[str]]) -> dict[str, int]:
    """Witnessing-triple count per team for one case, from its team -> sorted
    time keys map.

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


def enumerate_event_objects(store: TripleStore) -> list[EventObjectRow]:
    """One row per well-formed ext:EventObject node.

    classifier, event type, time, and object type are filled when present
    and left unbound otherwise; nodes lacking ext:event or ext:object are
    skipped with a warning.
    """
    solutions = list(store.select(("node", *EVENT_OBJECT_COLUMNS), *EVENT_OBJECTS))
    joined = {solution[0] for solution in solutions}
    # a match_pattern read, kept while bench/layertrace.py divides by match_pattern_calls
    nodes = store.match_pattern(_IS_EVENT_OBJECT)
    skipped = [sol["node"] for sol in nodes if sol["node"] not in joined]
    if skipped:  # the subjects of ext:event tell the two warnings apart for every node
        with_event = {node for node, _ in store.pairs(EXT_EVENT)}
        for n in skipped:
            lacks = "ext:object" if n in with_event else "ext:event"
            warn(__name__, "EventObject %s lacks %s; skipped", n[0], lacks)

    rows = []
    times = _Memo(_time_cell)  # each distinct literal once; an event has a row per object
    for _, event, obj, classifier, event_type, time, object_type in solutions:
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


# records(rows) is the rows as a list: a row's fields already are its output
# cells (str, int, bool or None; a time is UTC millisecond text).
records = ping_pong_records = event_object_records = team_records = list


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def records_to_csv(records: list[tuple], columns: tuple[str, ...]) -> str:
    """RFC 4180 CSV (CRLF line endings) with a header row; each record's
    cells are in column order."""
    import csv  # each format loads only its own module

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, record) for record in records)
    return buf.getvalue()


_TEXT_CELLS = {str, type(None)}


def records_to_jsonl(records: list[tuple], columns: tuple[str, ...]) -> str:
    """One UTF-8 JSON object per line, keys in column order.

    A column encodes each distinct cell once, with its key in front.  A
    column whose cells are all str or None is memoized on the cell itself,
    where no two distinct cells compare equal.  Any other column's memo is
    keyed on the cell's type as well as its value, because True == 1 and
    False == 0 print differently.  Cells are what records gives: str, int,
    bool or None."""
    import json

    encode = json.JSONEncoder(ensure_ascii=False).encode
    heads = [("{" if i == 0 else ", ") + encode(column) + ": " for i, column in enumerate(columns)]
    texts = []
    for head, cells in zip(heads, zip(*records)):
        if set(map(type, cells)) <= _TEXT_CELLS:
            memo = {cell: head + encode(cell) for cell in dict.fromkeys(cells)}
        else:
            cells = list(zip(map(type, cells), cells))
            memo = {key: head + encode(key[1]) for key in dict.fromkeys(cells)}
        texts.append(map(memo.__getitem__, cells))
    texts.append(repeat("}\n", len(records)))
    return "".join(map("".join, zip(*texts)))

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances: everything here is exact equality; the two randomized
suites also carry their stated wall-clock budgets (30 s / 60 s).
"""

import random
import subprocess
import sys
import time
from datetime import timedelta

from oced_forge import (
    Iri,
    PlainLiteral,
    Triple,
    TriplePattern,
    TripleStore,
    Var,
    detect_ping_pong,
    enumerate_event_objects,
    graph_to_triples,
    parse_turtle,
    parse_xes,
    transform_log,
    write_turtle,
)
from oced_forge.terms import EX, EXT, RDF
from oced_forge.timeutil import format_utc_millis
from oced_forge.xes_parser import _attribute_text

from conftest import cli_env
from oracles import (
    BASE_TIME,
    as_bag,
    brute_force_ping_pong,
    build_handoff_graph,
    nested_loop_bgp,
    random_handoff_graph,
    random_oced_graph,
    random_xes,
)


def _pass(name: str):
    print(f"ACCEPTANCE PASS: {name}")


def test_ping_pong_oracle_equivalence_500_graphs():
    rng = random.Random(20130814)
    start = time.monotonic()
    total_rows = 0
    duplicate_rows = 0
    for _ in range(500):
        graph, records = random_handoff_graph(rng, max_cases=20, max_events=15, max_teams=5)
        result = {row.case: row for row in detect_ping_pong(graph_to_triples(graph).freeze())}
        assert set(result) == set(records)
        for case, rows in records.items():
            has, lo, hi = brute_force_ping_pong(rows)
            assert result[case].has_ping_pong == has
            assert result[case].min_time == format_utc_millis(lo)
            assert result[case].max_time == format_utc_millis(hi)
            times = [t for _, t in rows]
            total_rows += len(times)
            duplicate_rows += len(times) - len(set(times))
    elapsed = time.monotonic() - start
    assert duplicate_rows / total_rows >= 0.10, "generator must inject >=10% duplicate stamps"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _pass(f"ping-pong oracle equivalence on 500 random graphs ({elapsed:.1f}s)")


def test_paper_pattern_fixture_strict_semantics():
    t1, t2, t3 = (BASE_TIME + timedelta(minutes=m) for m in (1, 2, 3))
    full = [("c1", "teamA", t1), ("c1", "teamB", t2), ("c1", "teamA", t3)]
    (row,) = detect_ping_pong(graph_to_triples(build_handoff_graph(full)).freeze())
    assert row.has_ping_pong is True

    (row,) = detect_ping_pong(graph_to_triples(build_handoff_graph(full[:2])).freeze())
    assert row.has_ping_pong is False

    collapsed = [(case, team, t1) for case, team, _ in full]
    (row,) = detect_ping_pong(graph_to_triples(build_handoff_graph(collapsed)).freeze())
    assert row.has_ping_pong is False
    _pass("paper-pattern fixture: A,B,A true; third event removed false; equal stamps false")


def test_turtle_round_trip_200_graphs():
    rng = random.Random(4040)
    for _ in range(200):
        store = graph_to_triples(random_oced_graph(rng))
        again = parse_turtle(write_turtle(store))
        assert sorted(again.triples(), key=repr) == sorted(store.triples(), key=repr)
    _pass("turtle round trip exact on 200 random graphs")


def _random_store_and_bgp(rng):
    names = [f"n{i}" for i in range(rng.randint(2, 10))]
    predicates = [f"p{i}" for i in range(rng.randint(1, 4))]
    size = rng.randint(60, 200) if rng.random() < 0.1 else rng.randint(1, 60)
    store = TripleStore()
    triples = []
    for _ in range(size):
        if rng.random() < 0.15:
            obj = PlainLiteral(rng.choice(["x", "y", "z"]))
        else:
            obj = Iri("http://t/" + rng.choice(names))
        triple = Triple(
            Iri("http://t/" + rng.choice(names)),
            Iri("http://t/" + rng.choice(predicates)),
            obj,
        )
        if triple not in triples:
            triples.append(triple)
        store.insert(triple)
    variables = [Var(v) for v in "wxyz"]

    def subject_or_object():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(variables)
        if roll < 0.9:
            return Iri("http://t/" + rng.choice(names))
        return PlainLiteral(rng.choice(["x", "y", "missing"]))

    def predicate():
        # one in five names a predicate the store may not hold
        if rng.random() < 0.8:
            return Iri("http://t/" + rng.choice(predicates))
        return Iri(f"http://t/p{rng.randint(0, 4)}")

    patterns = [
        TriplePattern(subject_or_object(), predicate(), subject_or_object())
        for _ in range(rng.randint(1, 4))
    ]
    return store, triples, patterns


def test_bgp_join_equals_nested_loop_oracle_1000_pairs():
    rng = random.Random(515151)
    start = time.monotonic()
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        store, triples, patterns = _random_store_and_bgp(rng)
        expected = nested_loop_bgp(triples, patterns, limit=40_000)
        if expected is None:  # pathological cartesian blow-up; skip deterministically
            continue
        assert as_bag(store.match_bgp(patterns)) == as_bag(expected)
        checked += 1
    elapsed = time.monotonic() - start
    assert attempts - checked < 200, "generator should rarely blow the join limit"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass(f"BGP join equals nested-loop oracle on 1000 random pairs ({elapsed:.1f}s)")


def test_transform_conservation_exhaustive_recount(bpic_xes_bytes):
    rng = random.Random(888)
    fixtures = [bpic_xes_bytes, b'<log xes.version="1.0"/>']
    fixtures += [random_xes(rng)[0].encode("utf-8") for _ in range(40)]
    for raw in fixtures:
        log = parse_xes(raw)
        graph, report = transform_log(log)
        total = log.event_count
        assert report.events_emitted + len(report.events_skipped) == total
        # exhaustive recount straight from the parsed log
        retained = [
            event
            for trace in log.traces
            for event in trace.events
            if event.get("time:timestamp") is not None
            and event.get("time:timestamp").kind == "date"
        ]
        assert report.events_emitted == len(retained)
        distinct_groups = {
            _attribute_text(event.get("org:group"))
            for event in retained
            if event.get("org:group") is not None
        }
        team_objects = [o for o in graph.objects.values() if o.object_type == "support_team"]
        assert len(team_objects) == len(distinct_groups)
    _pass("transform conservation and object sharing on 42 fixtures")


def test_end_to_end_determinism_across_processes(bpic_xes_path, tmp_path):
    outputs = []
    for seed in ("101", "202"):
        ttl = tmp_path / f"d{seed}.ttl"
        csv = tmp_path / f"d{seed}.csv"
        env = cli_env(PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "oced_forge", "convert", str(bpic_xes_path), "-o", str(ttl), "-q"],
            env=env,
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        result = subprocess.run(
            [
                sys.executable, "-m", "oced_forge", "analyze", str(ttl),
                "--analysis", "ping-pong", "--format", "csv", "-o", str(csv), "-q",
            ],
            env=env,
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        outputs.append((ttl.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]
    _pass("end-to-end convert+analyze byte-identical across processes")


def test_optional_robustness_rows_survive_missing_fields():
    store = TripleStore()

    def eo(node, event, obj, classifier=None):
        n = Iri(EX + node)
        store.insert(Triple(n, Iri(RDF + "type"), Iri(EXT + "EventObject")))
        store.insert(Triple(n, Iri(EXT + "event"), Iri(EX + event)))
        store.insert(Triple(n, Iri(EXT + "object"), Iri(EX + obj)))
        if classifier:
            store.insert(Triple(n, Iri(EXT + "classifier"), PlainLiteral(classifier)))

    # four nodes, each lacking a different optional field
    eo("n1", "e1", "o1")  # no classifier
    store.insert(Triple(Iri(EX + "e1"), Iri(EXT + "event_type"), PlainLiteral("t")))
    eo("n2", "e2", "o2", classifier="c")  # no event_type
    eo("n3", "e3", "o3", classifier="c")  # no time
    store.insert(Triple(Iri(EX + "e3"), Iri(EXT + "event_type"), PlainLiteral("t")))
    eo("n4", "e4", "o4", classifier="c")  # no object_type
    store.insert(Triple(Iri(EX + "o1"), Iri(EXT + "object_type"), PlainLiteral("case")))

    rows = {row.event: row for row in enumerate_event_objects(store.freeze())}
    assert len(rows) == 4
    assert rows[EX + "e1"].classifier is None
    assert rows[EX + "e2"].event_type is None
    assert rows[EX + "e3"].time is None
    assert rows[EX + "e4"].object_type is None
    _pass("OPTIONAL robustness: rows retained with classifier/type/time independently absent")

"""Tests of the benchmark's own code: generator, ground truth, grouped
Turtle, output checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import gzip
import itertools
import shutil
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from xml.etree import ElementTree

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import grouped  # noqa: E402
import layertrace  # noqa: E402
import loggen  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from oced_forge import cli  # noqa: E402

EPOCH = loggen.START


def _xes_timelines(xes: bytes) -> dict[str, list[tuple[int, str]]]:
    """Per case, (UTC ms, team) of each event with org:group, read back from the XES."""
    out = {}
    for trace in ElementTree.fromstring(gzip.decompress(xes)).iter("trace"):
        case = trace.find("string[@key='concept:name']").get("value")
        timeline = []
        for event in trace.iter("event"):
            group = event.find("string[@key='org:group']")
            if group is None:
                continue
            when = datetime.fromisoformat(event.find("date[@key='time:timestamp']").get("value"))
            ms = round((when.astimezone(timezone.utc) - EPOCH).total_seconds() * 1000)
            timeline.append((ms, group.get("value")))
        out[case] = timeline
    return out


def _naive_witnesses(timeline: list[tuple[int, str]]) -> dict[str, int]:
    """Every ordered triple of distinct events, checked one by one."""
    counts: dict[str, int] = {}
    for (ta, a), (tb, b), (tc, c) in itertools.permutations(timeline, 3):
        if a == c != b and ta < tb < tc:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_brute_force_ground_truth_equals_naive_triple_enumeration(tmp_path, seed):
    log_path, truth = loggen.write(seed, 40, str(tmp_path))
    timelines = _xes_timelines(Path(log_path).read_bytes())
    cases: dict[str, int] = {}
    witnesses: dict[str, int] = {}
    ping_pong = set()
    for case, timeline in timelines.items():
        counts = _naive_witnesses(timeline)
        if counts:
            ping_pong.add(loggen.EX + case)
        for team, n in counts.items():
            cases[team] = cases.get(team, 0) + 1
            witnesses[team] = witnesses.get(team, 0) + n
    assert set(truth["ping_pong_true"]) == ping_pong
    assert {row[0]: (row[1], row[2]) for row in truth["team_rows"]} == {
        loggen.team_iri(t): (cases[t], witnesses[t]) for t in cases
    }
    assert {c: [tuple(x) for x in t] for c, t in truth["timelines"].items()} == {
        c: sorted(t) for c, t in timelines.items()
    }
    assert ping_pong, "the seed should produce some ping-pong"


def test_generator_is_deterministic_and_seeded(tmp_path):
    a, _ = loggen.write(5, 30, str(tmp_path / "a"))
    b, _ = loggen.write(5, 30, str(tmp_path / "b"))
    c, _ = loggen.write(6, 30, str(tmp_path / "c"))
    assert Path(a).read_bytes() == Path(b).read_bytes() != Path(c).read_bytes()
    assert (tmp_path / "a" / "ground_truth.json").read_bytes() == (tmp_path / "b" / "ground_truth.json").read_bytes()


def test_generator_has_edge_cases_and_bpic_shape():
    log = loggen.generate(1, 400)
    events = [ev for case in log for ev in case["events"]]
    assert all(case["case"].startswith("1-") and len(case["case"]) == 11 for case in log)
    assert 7 <= len(events) / len(log) <= 10
    assert any(ev["team"] is None for ev in events)
    equal = burst = 0
    for case in log:
        for prev, ev in zip(case["events"], case["events"][1:]):
            if prev["utc_ms"] == ev["utc_ms"]:
                if prev["team"] == ev["team"]:
                    equal += 1
                else:
                    burst += 1
    assert equal and burst


def _cli(*args):
    assert cli.main(list(map(str, args))) == 0


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    log_path, truth = loggen.write(7, 60, str(work))
    canonical = work / "canonical.ttl"
    _cli("convert", log_path, "--output", canonical, "--quiet")
    grouped_ttl = work / "grouped.ttl"
    grouped_ttl.write_text(grouped.group_turtle(canonical.read_text("utf-8")), "utf-8")
    return work, truth, canonical, grouped_ttl


def test_grouped_turtle_gives_byte_identical_outputs(small):
    work, _, canonical, grouped_ttl = small
    text = grouped_ttl.read_text("utf-8")
    assert " a ext:" in text and " ;\n" in text and " ,\n" in text and "\n# " in text
    for name, args in [
        ("eo.jsonl", ["analyze", "--analysis", "event-objects", "--format", "jsonl"]),
        ("graph.dot", ["export-dot"]),
        ("pp.csv", ["analyze", "--analysis", "ping-pong"]),
        ("teams.csv", ["analyze", "--analysis", "teams"]),
        ("stats.txt", ["stats"]),
    ]:
        outputs = []
        for ttl in (canonical, grouped_ttl):
            out = work / f"{ttl.stem}-{name}"
            _cli(*args[:1], ttl, *args[1:], "--output", out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name


def test_output_checks_accept_real_outputs_and_reject_corrupted_ones(small):
    work, truth, canonical, _ = small
    for metric, template in run.COMMANDS[1:]:
        out = work / f"check-{metric}"
        _cli(*[a.format(ttl=canonical) for a in template], "--output", out)
        data = out.read_bytes()
        assert run.CHECKS[metric](data, "", truth) is None, metric
        lines = data.splitlines(keepends=True)
        assert run.CHECKS[metric](b"".join(lines[:-2] + lines[-1:]), "", truth) is not None, metric
    err = (f"convert: {truth['cases']} traces, {truth['events']} events emitted, 0 skipped, "
           f"{truth['objects']} objects, {truth['triples']} triples, 0 warnings")
    data = canonical.read_bytes()
    assert run.check_convert(data, err, truth) is None
    assert run.check_convert(data, err.replace(" 0 warnings", " 1 warnings"), truth) is not None


def test_tracer_nests_spans_and_splits_self_time():
    tracer = layertrace.Tracer("w")
    tracer.start_command("c")

    def inner():
        time.sleep(0.02)

    def outer():
        tracer.call("inner", inner)
        time.sleep(0.01)

    tracer.call("outer", outer)
    spans = {name: (span_id, parent, start, end) for span_id, parent, name, _, start, end in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0] and spans["outer"][1] is None
    outer_ns = spans["outer"][3] - spans["outer"][2]
    inner_ns = spans["inner"][3] - spans["inner"][2]
    assert tracer.self_ns["outer"] == outer_ns - inner_ns
    assert tracer.self_ns["inner"] == inner_ns
    assert tracer.trace_ids == ["w/c"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pingpong", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no oced_forge package" in proc.stderr


def test_calibration_job_is_fixed():
    assert calibrate.work(calibrate.text()) == calibrate.EXPECTED
    assert run.time_calibration(BENCH) > 0
    assert run.at_reference_speed([(2.0, run.NOMINAL_CALIBRATION_S / 2)]) == [4.0]

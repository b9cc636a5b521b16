"""Traced run: the oced-forge pipeline in-process, with a span per layer call.

The pipeline mirrors the CLI commands: `convert` (parse_xes, transform_log,
graph_to_triples, write_turtle), then `ping-pong`, `teams`, `event-objects`
and `export-dot`, each parsing the workload's Turtle as the CLI does.  Spans
are taken from outside the program: around each call into a layer's public
functions, and, during the traced pass only, around the class attributes
`TripleStore.match_bgp` and `TripleStore.match_optional`, so spans nest.
`TripleStore.match_pattern` is counted but gets no span.  A span's self
time is its duration minus its children's.

Untraced and traced passes alternate, PASSES of each; the ratio of their
median wall times is `trace.overhead_ratio`, and the last traced pass gives
the timings, counts and spans.  A final pass runs with tracemalloc on and
calls `reset_peak` before each top-level parse, transform and write call
(the `alloc_peak_mb` metrics: peak traced memory above the level at the
call).
Timing spans are never taken with tracemalloc on.  Spans are kept in memory
and written as JSON to .bench_work/trace-<workload>-<seed>.json.

A BPIC-scale reproduction prints the layer table:

    python3 bench/layertrace.py --cases 7554 --seed 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import run

MB = 1024 * 1024
STARTUP_RUNS = 9
PASSES = 3


class Tracer:
    """Nested spans and counters, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (id, parent, name, trace id, start ns, end ns)
        self.stack: list[list] = []  # open spans: [id, start ns, child ns]
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.trace_ids: list[str] = []

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans) + len(self.stack)
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            duration = end - frame[1]
            if self.stack:
                self.stack[-1][2] += duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.spans.append((span_id, parent, name, len(self.trace_ids) - 1, frame[1], end))

    def start_command(self, command: str):
        self.trace_ids.append(f"{self.workload}/{command}")

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path: Path, seed: int):
        spans = sorted(self.spans)
        data = {
            "workload": self.workload,
            "seed": seed,
            "trace_ids": self.trace_ids,
            "fields": ["id", "parent", "name", "trace_id", "start_ns", "end_ns"],
            "spans": spans,
        }
        path.write_text(json.dumps(data, separators=(",", ":")))


def _plain(name, fn, *args):
    return fn(*args)


def pipeline(step, start_command, log_bytes: bytes, turtle_text: str) -> dict:
    """Run every command's layer calls through `step`; return output counts."""
    from oced_forge import analyses, dot_export, transform, turtle_io, xes_parser
    from oced_forge.triple_query import TripleStore

    out = {}
    start_command("convert")
    log = step("xes_parser.parse_xes", xes_parser.parse_xes, log_bytes)
    graph, report = step("transform.transform_log", transform.transform_log, log, transform.default_bpic2013_config())
    store = step("turtle_io.graph_to_triples", turtle_io.graph_to_triples, graph)
    text = step("turtle_io.write_turtle", turtle_io.write_turtle, store)
    out.update(
        events=log.event_count,
        events_emitted=report.events_emitted,
        events_skipped=len(report.events_skipped),
        objects_emitted=report.objects_emitted,
        triples_out=len(store),
        bytes_out=len(text.encode("utf-8")),
    )
    del log, graph, store, text

    def read():
        parsed = step("turtle_io.parse_turtle", turtle_io.parse_turtle, turtle_text).freeze()
        out["triples_parsed"] = out.get("triples_parsed", 0) + len(parsed)
        return parsed

    def fmt(records_fn, rows, columns, writer):
        return step("analyses.format", lambda: writer(records_fn(rows), columns))

    start_command("ping-pong")
    parsed = read()
    step("triple_query.index_build", lambda: TripleStore(parsed.triples()))
    rows = step("analyses.detect_ping_pong", analyses.detect_ping_pong, parsed)
    fmt(analyses.ping_pong_records, rows, analyses.PING_PONG_COLUMNS, analyses.records_to_csv)
    out["ping_pong_rows"] = len(rows)
    out["ping_pong_true"] = sum(1 for row in rows if row.has_ping_pong)

    start_command("teams")
    parsed = read()
    rows = step("analyses.team_involvement", analyses.team_involvement, parsed)
    fmt(analyses.team_records, rows, analyses.TEAM_COLUMNS, analyses.records_to_csv)
    out["team_rows"] = len(rows)

    start_command("event-objects")
    parsed = read()
    rows = step("analyses.enumerate_event_objects", analyses.enumerate_event_objects, parsed)
    fmt(analyses.event_object_records, rows, analyses.EVENT_OBJECT_COLUMNS, analyses.records_to_jsonl)
    out["event_object_rows"] = len(rows)

    start_command("export-dot")
    parsed = read()
    dot = step("dot_export.store_to_dot", dot_export.store_to_dot, parsed)
    out["dot_bytes"] = len(dot.encode("utf-8"))
    out["dot_nodes"] = sum(1 for line in dot.splitlines() if "[shape=" in line)
    out["dot_edges"] = sum(1 for line in dot.splitlines() if " -> " in line)
    return out


def traced_pass(tracer: Tracer, log_bytes: bytes, turtle_text: str) -> tuple[float, dict]:
    """The pipeline with spans, TripleStore's join methods wrapped meanwhile."""
    from oced_forge.triple_query import TripleStore

    originals = {name: getattr(TripleStore, name) for name in ("match_bgp", "match_optional", "match_pattern")}
    depth = [0]

    def joined(name, original):
        def wrapper(self, *args, **kwargs):
            depth[0] += 1
            try:
                result = tracer.call(f"triple_query.{name}", original, self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:  # a join result handed to a caller outside the store
                tracer.count("triple_query.solutions", len(result))
            return result

        return wrapper

    def counted(self, pattern):
        tracer.count("triple_query.match_pattern_calls")
        return originals["match_pattern"](self, pattern)

    TripleStore.match_bgp = joined("match_bgp", originals["match_bgp"])
    TripleStore.match_optional = joined("match_optional", originals["match_optional"])
    TripleStore.match_pattern = counted
    try:
        start = time.perf_counter()
        out = pipeline(tracer.call, tracer.start_command, log_bytes, turtle_text)
        wall = time.perf_counter() - start
    finally:
        for name, original in originals.items():
            setattr(TripleStore, name, original)
    return wall, out


def alloc_pass(log_bytes: bytes, turtle_text: str) -> dict[str, float]:
    """Peak traced memory, in MB above the level at the call, per write/read layer."""
    from oced_forge import transform, turtle_io, xes_parser

    peaks: dict[str, float] = {}

    def measured(name, fn, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / MB
        return result

    tracemalloc.start()
    try:
        log = measured("xes_parser", xes_parser.parse_xes, log_bytes)
        graph, _ = measured("transform", transform.transform_log, log, transform.default_bpic2013_config())
        del log
        store = measured("graph_to_triples", turtle_io.graph_to_triples, graph)
        del graph
        measured("write_turtle", turtle_io.write_turtle, store)
        del store
        measured("parse", turtle_io.parse_turtle, turtle_text)
    finally:
        tracemalloc.stop()
    return peaks


def startup_s() -> float:
    """Median wall time of `python -m oced_forge --help`."""
    times = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "oced_forge", "--help"], env=run.cli_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(workload: str, seed: int, cases: int, work: Path) -> dict:
    """Set up, run the passes, check the counts, and report per-layer metrics."""
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import oced_forge  # noqa: F401  (import time stays out of the timed passes)

    log_path, ttl, truth = run.setup(workload, seed, cases, work / f"{workload}-{seed}" / "trace")
    log_bytes = log_path.read_bytes()
    turtle_text = ttl.read_text("utf-8")

    # untraced and traced passes alternate, so both see the same warm-up and
    # machine drift; the metrics come from the last traced pass
    untraced, traced = [], []
    for _ in range(PASSES):
        start = time.perf_counter()
        pipeline(_plain, lambda command: None, log_bytes, turtle_text)
        untraced.append(time.perf_counter() - start)
        tracer = Tracer(workload)
        wall, out = traced_pass(tracer, log_bytes, turtle_text)
        traced.append(wall)
    tracer.write(work / f"trace-{workload}-{seed}.json", seed)
    peaks = alloc_pass(log_bytes, turtle_text)

    failures = []
    expected = {
        "events": truth["events"],
        "events_emitted": truth["events"],
        "events_skipped": 0,
        "objects_emitted": truth["objects"],
        "triples_out": truth["triples"],
        "triples_parsed": 4 * truth["triples"],
        "ping_pong_rows": len(truth["ping_pong_rows"]),
        "ping_pong_true": len(truth["ping_pong_true"]),
        "team_rows": len(truth["team_rows"]),
        "event_object_rows": truth["eo_relations"],
        "dot_nodes": truth["events"] + truth["objects"],
        "dot_edges": truth["eo_relations"] + truth["oo_relations"],
    }
    for key, want in expected.items():
        if out[key] != want:
            failures.append(key)
            print(f"FAILED traced {key}: {out[key]}, expected {want}", file=sys.stderr)

    s = tracer.self_s
    parse_s = s("turtle_io.parse_turtle")
    pattern_calls = tracer.counts.get("triple_query.match_pattern_calls", 0)
    solutions = tracer.counts.get("triple_query.solutions", 0)
    covered = sum(tracer.self_ns.values()) / 1e9
    values = {
        "xes_parser.parse_s": (s("xes_parser.parse_xes"), "s"),
        "xes_parser.events": (out["events"], "count"),
        "xes_parser.alloc_peak_mb": (peaks["xes_parser"], "MB"),
        "transform.transform_s": (s("transform.transform_log"), "s"),
        "transform.events_emitted": (out["events_emitted"], "count"),
        "transform.events_skipped": (out["events_skipped"], "count"),
        "transform.objects_emitted": (out["objects_emitted"], "count"),
        "transform.alloc_peak_mb": (peaks["transform"], "MB"),
        "turtle_io.graph_to_triples_s": (s("turtle_io.graph_to_triples"), "s"),
        "turtle_io.write_s": (s("turtle_io.write_turtle"), "s"),
        "turtle_io.triples_out": (out["triples_out"], "count"),
        "turtle_io.bytes_out": (out["bytes_out"], "count"),
        "turtle_io.write_alloc_peak_mb": (max(peaks["graph_to_triples"], peaks["write_turtle"]), "MB"),
        "turtle_io.parse_s": (parse_s, "s"),
        "turtle_io.parse_triples_per_s": (out["triples_parsed"] / parse_s, "1/s"),
        "turtle_io.parse_alloc_peak_mb": (peaks["parse"], "MB"),
        "triple_query.index_build_s": (s("triple_query.index_build"), "s"),
        "triple_query.match_bgp_s": (s("triple_query.match_bgp"), "s"),
        "triple_query.match_bgp_calls": (tracer.calls.get("triple_query.match_bgp", 0), "count"),
        "triple_query.match_optional_s": (s("triple_query.match_optional"), "s"),
        "triple_query.match_optional_calls": (tracer.calls.get("triple_query.match_optional", 0), "count"),
        "triple_query.match_pattern_calls": (pattern_calls, "count"),
        "triple_query.solutions": (solutions, "count"),
        "triple_query.solutions_per_pattern_call": (solutions / pattern_calls, "ratio"),
        "analyses.ping_pong_self_s": (s("analyses.detect_ping_pong"), "s"),
        "analyses.teams_self_s": (s("analyses.team_involvement"), "s"),
        "analyses.event_objects_self_s": (s("analyses.enumerate_event_objects"), "s"),
        "analyses.format_s": (s("analyses.format"), "s"),
        "analyses.ping_pong_rows": (out["ping_pong_rows"], "count"),
        "analyses.ping_pong_true": (out["ping_pong_true"], "count"),
        "analyses.team_rows": (out["team_rows"], "count"),
        "analyses.event_object_rows": (out["event_object_rows"], "count"),
        "dot_export.self_s": (s("dot_export.store_to_dot"), "s"),
        "dot_export.bytes_out": (out["dot_bytes"], "count"),
        "cli.startup_s": (startup_s(), "s"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
        "trace.self_coverage": (covered / wall, "ratio"),
    }

    print(f"{workload} seed {seed}: {cases} cases, traced wall {statistics.median(traced):.3f} s, "
          f"untraced {statistics.median(untraced):.3f} s (medians of {PASSES} passes)")
    print(f"{'span':<36} {'calls':>7} {'self s':>9}")
    for name in sorted(tracer.self_ns, key=tracer.self_ns.get, reverse=True):
        print(f"{name:<36} {tracer.calls[name]:>7} {s(name):9.3f}")
    return {
        "correct": not failures,
        "attempted": len(expected),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description="Traced oced-forge pipeline at a chosen scale")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=7554)
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), default="pingpong")
    args = parser.parse_args()
    run.WORK.mkdir(exist_ok=True)
    result = traced_run(args.workload, args.seed, args.cases, run.WORK)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()

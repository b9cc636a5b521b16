"""Each command loads only what it runs: the read commands (analyze,
Turtle stats, export-dot) load no module of the write path, convert and XES
stats none of the read path, only analyze the analyses, and analyze only
the csv or json module of its format.  export-dot loads the Turtle reader,
the store, the queries and the DOT writer and no other module of the
package.  No command loads dataclasses, gzip but for gzip input, or
logging in a run that logs no warning.  analyze loads only the triples
of the predicates its query looks up.  A kept-predicate load must give
every query the same answer as a full load.  stats and export-dot keep
every triple: stats counts them, and every predicate convert writes is one
export-dot reads or a keep rule for it would keep."""

import gc
import gzip
import subprocess
import sys
from pathlib import Path

import pytest

from oced_forge import cli, parse_turtle, parse_xes, transform_log, turtle_io, turtle_parser
from oced_forge.analyses import records
from oced_forge.triple_query import TripleStore, Var
from oced_forge.turtle_parser import _TurtleParser

from conftest import BPIC_STYLE_XES, cli_env, turtle_text
from test_turtle_io import HEADER_LINES, declined

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# A SPARQL-style PREFIX line, which only the general reader reads, heads the
# "general" source; its loads decline every statement on the fast path.
GENERAL = "PREFIX g: <http://g.example/>\n"


def _read_general_only(patch: pytest.MonkeyPatch):
    patch.setattr(_TurtleParser, "_fast_statements", lambda self, pos: pos)


@pytest.fixture(scope="module")
def bench_turtle():
    """The benchmark's seeded log at 40 cases, converted, in its canonical
    and subject-grouped layouts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        from grouped import group_turtle
        from loggen import generate, to_xes

        canonical, _ = turtle_text(transform_log(parse_xes(to_xes(generate(1, 40)).encode()))[0])
        return {"canonical": canonical, "grouped": group_turtle(canonical)}


def _fixture_turtle() -> str:
    return turtle_text(transform_log(parse_xes(BPIC_STYLE_XES.encode()))[0])[0]


SOURCES = ["canonical", "grouped", "hostile", "fixture", "general"]


def _text(source: str, bench_turtle, monkeypatch) -> str:
    if source in bench_turtle:
        return bench_turtle[source]
    if source == "hostile":
        return (GOLDEN / "hostile.ttl").read_text("utf-8")
    if source == "fixture":
        return _fixture_turtle()
    _read_general_only(monkeypatch)
    return GENERAL + bench_turtle["canonical"]


def _rules():
    """(name, keep rule, query) for each read command that loads with a rule."""
    for name in cli._ANALYSES:
        analysis, _, patterns = cli._analysis(name)
        yield name, cli._keep_rule(patterns), lambda store, analysis=analysis: records(analysis(store))


@pytest.mark.parametrize("source", SOURCES)
def test_kept_predicate_load_gives_every_query_the_full_load_answer(source, bench_turtle, monkeypatch):
    text = _text(source, bench_turtle, monkeypatch)
    full = parse_turtle(text).freeze()
    for name, keep, query in _rules():
        kept = parse_turtle(text, keep).freeze()
        # the full load's triples of the kept predicates, in the same order
        assert kept.triples() == [t for t in full if keep(t.predicate)], name
        assert query(kept) == query(full), name
    if source in ("canonical", "grouped", "general"):
        ping_pong = cli._keep_rule(cli._analysis("ping-pong")[2])
        assert 0 < len(parse_turtle(text, ping_pong)) < len(full) / 2


@pytest.mark.parametrize("source", SOURCES)
def test_a_load_frees_its_parser_without_the_cyclic_gc(source, bench_turtle, monkeypatch):
    """The CLI runs with the cyclic GC off, so a parser left in a reference
    cycle would hold the input text and its memos until the process ends."""
    text = _text(source, bench_turtle, monkeypatch)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for keep in (None, *(keep for _, keep, _ in _rules())):
            assert len(parse_turtle(text, keep)) > 0
            assert gc.collect() == 0, keep
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("source", ["fixture", "hostile"])
def test_every_stage_frees_what_it_builds_without_the_cyclic_gc(source, tmp_path):
    """What each stage builds, its memos included, is freed by reference
    counting alone: convert's `del log` and the writers' and reader's memos
    rely on it, as every command runs with the cyclic GC off."""
    from oced_forge.analyses import records_to_csv, records_to_jsonl
    from oced_forge.dot_export import store_to_dot
    from oced_forge.transform import load_mapping_config

    if source == "hostile":
        xes, config = (GOLDEN / "hostile.xes").read_bytes(), load_mapping_config(str(GOLDEN / "hostile.config.json"))
        turtle = (GOLDEN / "hostile.ttl").read_bytes()
    else:
        xes, config, turtle = BPIC_STYLE_XES.encode(), None, _fixture_turtle().encode()

    def no_garbage(stage, *args):
        result = stage(*args)
        assert gc.collect() == 0, stage.__name__
        return result

    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        graph, _ = no_garbage(transform_log, no_garbage(parse_xes, xes), config)
        no_garbage(turtle_io.graph_to_turtle, graph, tmp_path / "out.ttl")
        no_garbage(turtle_io.write_turtle, no_garbage(turtle_io.graph_to_triples, graph))
        store = no_garbage(cli._parse_store, source, turtle)
        for name in cli._ANALYSES:
            analysis, columns, _ = cli._analysis(name)
            rows = no_garbage(analysis, store)
            no_garbage(records_to_csv, rows, columns)
            no_garbage(records_to_jsonl, rows, columns)
        no_garbage(store_to_dot, store)
    finally:
        (gc.enable if was else gc.disable)()


def test_keep_is_called_once_per_distinct_predicate(bench_turtle):
    for text in (bench_turtle["canonical"], GENERAL + bench_turtle["grouped"]):
        with pytest.MonkeyPatch.context() as patch:
            if text.startswith(GENERAL):
                _read_general_only(patch)
            asked = []
            parse_turtle(text, lambda predicate: asked.append(predicate) or False)
            assert len(asked) == len(set(asked)) == len({t.predicate for t in parse_turtle(text)})


@pytest.mark.parametrize("layout", ["canonical", "grouped"])
def test_the_benchmark_turtle_past_its_directives_is_read_by_the_fast_path(layout, bench_turtle):
    """The general reader reads the five @prefix directives of each
    workload's Turtle and nothing else, so no reader change moves either
    workload onto the slow reader unseen.  The last directive's span also
    holds what the general reader skips after it: the blank line and, in the
    grouped layout, its comment line."""
    text = bench_turtle[layout]
    last = HEADER_LINES[4] + ("\n\n" + text.split("\n")[6] if layout == "grouped" else "")
    assert declined(text) == [*HEADER_LINES[:4], last]


@pytest.fixture
def rules(monkeypatch) -> list:
    """The keep rule of each parse_turtle call the CLI makes."""
    rules, parse = [], turtle_parser.parse_turtle

    def parse_recording_keep(text, keep=None):
        rules.append(keep)
        return parse(text, keep)

    # the CLI looks parse_turtle up in turtle_parser when it loads a store
    monkeypatch.setattr(turtle_parser, "parse_turtle", parse_recording_keep)
    return rules


@pytest.mark.parametrize("source", ["fixture", "hostile"])
def test_every_pattern_a_read_command_looks_up_is_kept(source, rules, tmp_path, monkeypatch, capsys):
    """Each command's rule is derived from its own patterns: every pattern its
    queries look up in the store has a predicate the rule keeps."""
    path = GOLDEN / "hostile.ttl"
    if source == "fixture":
        path = tmp_path / "fixture.ttl"
        path.write_text(_fixture_turtle(), "utf-8")
    lookups = []
    scan, pairs = TripleStore._scan, TripleStore.pairs

    def scanned(self, pattern):
        lookups.append(pattern.predicate)
        return scan(self, pattern)

    def read(self, predicate):
        lookups.append(predicate)
        return pairs(self, predicate)

    monkeypatch.setattr(TripleStore, "_scan", scanned)
    monkeypatch.setattr(TripleStore, "pairs", read)
    for command in (["analyze", "--analysis", analysis] for analysis in cli._ANALYSES):
        rules.clear()
        lookups.clear()
        assert cli.main([command[0], str(path), *command[1:]]) == 0
        capsys.readouterr()
        [keep] = rules
        assert keep is not None, command
        assert lookups, command
        assert [p for p in lookups if isinstance(p, Var) or not keep(p)] == [], command


def test_stats_keeps_every_triple_and_builds_no_binding_dicts(rules, tmp_path, monkeypatch, capsys):
    text = _fixture_turtle()
    path = tmp_path / "fixture.ttl"
    path.write_text(text, "utf-8")

    def no_bindings(self, pattern):
        raise AssertionError("stats built binding dicts")

    monkeypatch.setattr(TripleStore, "match_pattern", no_bindings)
    assert cli.main(["stats", str(path)]) == 0
    assert rules == [None]
    assert f"triples       {len(parse_turtle(text))}\n" in capsys.readouterr().out
    # export-dot keeps every triple too
    assert cli.main(["export-dot", str(path)]) == 0
    assert rules == [None, None]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "turtle, xes", [("ex:s ex:p ex:o .\n", BPIC_STYLE_XES), ("ex:s ex:p $ .\n", "<log><trace>")], ids=["good", "bad"]
)
def test_a_load_restores_the_cyclic_gc_state(enabled, turtle, xes, tmp_path, monkeypatch, capsys):
    """Every command runs with the cyclic GC off and restores its state."""
    ttl, log = tmp_path / "in.ttl", tmp_path / "in.xes"
    ttl.write_text("@prefix ex: <http://e/> .\n" + turtle, "utf-8")
    log.write_text(xes, "utf-8")
    written, write, write_graph = [], cli._write_text, turtle_io.graph_to_turtle
    monkeypatch.setattr(cli, "_write_text", lambda *args: written.append(gc.isenabled()) or write(*args))
    # convert writes through graph_to_turtle
    monkeypatch.setattr(
        turtle_io, "graph_to_turtle", lambda *args: written.append(gc.isenabled()) or write_graph(*args)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for command in (["analyze", ttl, "--analysis", "teams"], ["stats", ttl], ["export-dot", ttl], ["convert", log]):
            written.clear()
            code = cli.main([command[0], str(command[1]), *command[2:], "--output", str(tmp_path / "out")])
            assert gc.isenabled() == enabled, command
            assert (code == 0) == (turtle == "ex:s ex:p ex:o .\n") == (written == [False]), command
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# Runs `python -m oced_forge ARGS` in this process and prints the loaded
# modules; the command writes its output to a file.
_LOADED = """
import runpy, sys
sys.argv = ["oced-forge", *sys.argv[1:]]
try:
    runpy.run_module("oced_forge", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    assert exit.code == 0, exit.code
print(" ".join(sorted(sys.modules)))
"""
# what only convert runs: the XES path and the Turtle writer
_WRITE_PATH = {"oced_forge.xes_parser", "oced_forge.transform", "oced_forge.oced_model", "oced_forge.turtle_io"}
# what convert runs none of: the read path, json without --config, and
# logging with no warning to print
_READ_PATH = {
    "oced_forge.turtle_parser",
    "oced_forge.queries",
    "oced_forge.analyses",
    "oced_forge.triple_query",
    "oced_forge.dot_export",
    "csv",
    "json",
    "logging",
}


def _loaded(*argv) -> set[str]:
    return _loaded_and_stderr(*argv)[0]


def _loaded_and_stderr(*argv) -> tuple[set[str], bytes]:
    result = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=cli_env(), capture_output=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.decode().split()), result.stderr


# the package modules export-dot runs, and no others
_DOT_PATH = {
    "oced_forge",
    "oced_forge.cli",
    "oced_forge.errors",
    "oced_forge.terms",
    "oced_forge.turtle_parser",
    "oced_forge.triple_query",
    "oced_forge.queries",
    "oced_forge.dot_export",
}


def _command_id(command: list[str]) -> str:
    return "-".join(command[2::2]) or command[0]


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--analysis", "ping-pong"],
        ["analyze", "--analysis", "teams"],
        ["analyze", "--analysis", "event-objects"],
        ["analyze", "--analysis", "event-objects", "--format", "jsonl"],
        ["stats"],
        ["export-dot"],
    ],
    ids=_command_id,
)
def test_read_commands_load_no_write_path_module(command, tmp_path):
    path = tmp_path / "fixture.ttl"
    path.write_text(_fixture_turtle(), "utf-8")
    loaded = _loaded(command[0], str(path), *command[1:], "--output", str(tmp_path / "out"))
    assert "oced_forge.cli" in loaded
    assert loaded & _WRITE_PATH == set()
    assert loaded & {"dataclasses", "gzip"} == set()
    assert ("oced_forge.dot_export" in loaded) == (command == ["export-dot"])
    # only analyze runs an analysis; Turtle stats counts triples with no query
    assert ("oced_forge.analyses" in loaded) == (command[0] == "analyze")
    assert ("oced_forge.queries" in loaded) == (command != ["stats"])
    assert {"oced_forge.turtle_parser", "oced_forge.triple_query"} <= loaded
    if command == ["export-dot"]:
        assert {name for name in loaded if name.startswith("oced_forge")} == _DOT_PATH
        assert loaded & {"oced_forge.timeutil", "datetime"} == set()
    # each analyze format loads only its own module, and no warning loads logging
    jsonl = command[-1] == "jsonl"
    assert ("csv" in loaded, "json" in loaded) == (command[0] == "analyze" and not jsonl, jsonl)
    assert "logging" not in loaded
    assert (tmp_path / "out").stat().st_size > 0


@pytest.mark.parametrize(
    "command", [["export-dot"], ["analyze", "--analysis", "event-objects", "--format", "jsonl"]], ids=_command_id
)
def test_gzip_turtle_alone_loads_gzip(command, tmp_path):
    """The check above can fail: a gzip copy of the fixture loads gzip, and
    the package modules and output of the plain file."""
    plain, packed = tmp_path / "fixture.ttl", tmp_path / "fixture.ttl.gz"
    plain.write_text(_fixture_turtle(), "utf-8")
    packed.write_bytes(gzip.compress(plain.read_bytes()))
    runs = [_loaded(command[0], str(path), *command[1:], "--output", str(path) + ".out") for path in (plain, packed)]
    assert ["gzip" in loaded for loaded in runs] == [False, True]
    assert len({frozenset(name for name in loaded if name.startswith("oced_forge")) for loaded in runs}) == 1
    assert Path(str(plain) + ".out").read_bytes() == Path(str(packed) + ".out").read_bytes()


def test_convert_loads_the_write_path(bpic_xes_path, tmp_path):
    """The check above can fail: convert loads every module it names."""
    loaded = _loaded("convert", str(bpic_xes_path), "--output", str(tmp_path / "out"), "--quiet")
    assert loaded >= _WRITE_PATH
    assert loaded & _READ_PATH == set()
    assert loaded & {"dataclasses", "gzip"} == set()


def test_xes_stats_loads_no_query_module(bpic_xes_path, tmp_path):
    loaded = _loaded("stats", str(bpic_xes_path), "--output", str(tmp_path / "out"))
    assert loaded >= {"oced_forge.xes_parser", "oced_forge.transform"}
    assert loaded & {*_READ_PATH, "oced_forge.turtle_io", "dataclasses", "gzip"} == set()
    assert (tmp_path / "out").read_text().startswith("format  xes\n")


@pytest.mark.parametrize("golden", ["hostile.convert", "hostile.event-objects.csv"])
def test_a_run_that_warns_loads_logging_and_prints_the_golden_stderr(golden, tmp_path):
    """The check above can fail too: logging is loaded at the first warning,
    and the lines it prints are the ones logging set up at start printed."""
    if golden == "hostile.convert":
        argv = ["convert", str(GOLDEN / "hostile.xes"), "--config", str(GOLDEN / "hostile.config.json")]
    else:
        argv = ["analyze", str(GOLDEN / "hostile.ttl"), "--analysis", "event-objects"]
    loaded, stderr = _loaded_and_stderr(*argv, "--output", str(tmp_path / "out"))
    assert "logging" in loaded
    assert stderr == (GOLDEN / f"{golden}.stderr").read_bytes()
    assert (tmp_path / "out").read_bytes() == (GOLDEN / f"{golden}.stdout").read_bytes()

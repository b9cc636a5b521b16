"""Command-line interface.

Commands: convert (XES -> Turtle), analyze (Turtle -> ping-pong /
event-objects / teams as CSV or JSONL), stats (XES or Turtle counts), and
export-dot (Turtle -> Graphviz DOT).  Data goes to stdout or --output;
diagnostics go to stderr, so output is pipe-safe and byte-deterministic.
Stdout carries the bytes --output writes, UTF-8 with no newline
translation, whatever the locale: main switches a TextIOWrapper stdout to
them before the command runs (an in-process caller's StringIO stays as it
is).  Stderr keeps the locale's encoding, with backslash escapes.

Each command loads only what it runs.  convert loads the XES reader, the
graph model, the transform and the Turtle writer (json only with --config),
and no Turtle reader, triple store, queries, analyses or csv.  The read
commands load the Turtle reader (turtle_parser) and the triple store, and
no writer module; analyze also the queries and the analyses, with csv or
json for its --format only, and export-dot the queries and the DOT writer
and nothing else of the package (no analyses, timeutil or datetime).
Turtle stats loads no queries.  Each layer logs its own warnings (the XES
reader, the transform and the event-objects analysis, through errors.warn),
and logging is loaded, and set up, at the first one.  An input is read
whole and inflated once when it is gzip (_read_input), and gzip is loaded
only then; the XES reader (parse_xes_xml) is then given the XML as it is.
Every read command, stats included, decodes and parses Turtle in
_parse_store, so text that is not UTF-8 is one TurtleSyntaxError for all of
them.  analyze loads Turtle with a keep rule made of the IRI predicates of
the patterns its query (see queries) looks up (see _keep_rule).
stats keeps every triple, because it counts them, and so does export-dot,
which reads or would keep every predicate convert writes (see dot_export).
The cyclic GC is off during every command.

Exit codes: 0 success (also with skipped-event warnings), 2 unreadable or
invalid input file (a bad gzip stream or config encoding too) or input that
cannot be converted (colliding ids), 3 parse error (XML or Turtle, with
location, and XES nested deeper than the reader's limit), 64 usage error,
65 unrecognized input format for stats, 71 out of memory (one line naming
the command), 74 output not written (its open, write or flush failed: a
full disk, or a missing --output directory), 130 interrupted (SIGINT), 141
stdout closed by its reader (the rest of the output is dropped, as after
SIGPIPE).  64, 65, 71 and 74 are the sysexits codes EX_USAGE, EX_DATAERR,
EX_OSERR and EX_IOERR.  convert writes its Turtle through graph_to_turtle,
which renders and sorts every row before it opens --output, so a failed
convert leaves that file alone.
"""

import argparse
import gc
import io
import os
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

from . import errors
from .errors import OcedForgeError, TurtleSyntaxError, XesParseError, XesStructureError
from .terms import (
    EXT_EVENT_CASE,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_OBJECT_TYPE,
    RDF_TYPE,
    Iri,
    object_object_triples,
)

if TYPE_CHECKING:  # each command loads only the modules of its own path
    from .triple_query import TripleStore
    from .xes_parser import XesLog

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_PARSE = 3
EXIT_USAGE = 64
EXIT_BAD_FORMAT = 65
EXIT_NO_MEMORY = 71  # sysexits EX_OSERR
EXIT_OUTPUT = 74  # sysexits EX_IOERR
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_ANALYSES = ("ping-pong", "event-objects", "teams")


def _analysis(name: str) -> tuple[Callable, tuple[str, ...], tuple]:
    """An analysis's function, output columns and its query: the required
    block and OPTIONAL groups it reads."""
    from . import analyses as a, queries as q

    return {
        "ping-pong": (a.detect_ping_pong, a.PING_PONG_COLUMNS, (q.TEAM_TIMES, [])),
        "event-objects": (a.enumerate_event_objects, a.EVENT_OBJECT_COLUMNS, q.EVENT_OBJECTS),
        "teams": (a.team_involvement, a.TEAM_COLUMNS, (q.TEAM_TIMES, [])),
    }[name]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oced-forge",
        description="Convert XES event logs to object-centric event data in Turtle "
        "and run object-centric analyses over them.",
        epilog="exit codes: 0 ok, 2 unreadable or unconvertible input, 3 parse error (also XES "
        "with more than 1000 elements open at once), 64 usage, 65 unrecognized format, 71 out of "
        "memory, 74 output not written (its open, write or flush failed), 130 interrupted, 141 "
        "stdout closed by its reader (the rest of the output is dropped). "
        "Warnings go to stderr; OCED_FORGE_LOG=error silences them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert an XES log (optionally .gz) to Turtle")
    convert.add_argument("input", help="XES file, or - for stdin")
    convert.add_argument("--config", help="mapping configuration JSON (default: BPIC 2013 rules)")
    convert.add_argument("--output", "-o", help="output path (default: stdout)")
    convert.add_argument("--quiet", "-q", action="store_true", help="suppress the summary line")
    convert.set_defaults(func=cmd_convert)

    analyze = sub.add_parser("analyze", help="run an analysis over a Turtle file")
    analyze.add_argument("input", help="Turtle file, or - for stdin")
    analyze.add_argument("--analysis", choices=_ANALYSES, required=True)
    analyze.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    analyze.add_argument("--output", "-o", help="output path (default: stdout)")
    analyze.add_argument("--quiet", "-q", action="store_true", help="suppress the row count line")
    analyze.set_defaults(func=cmd_analyze)

    stats = sub.add_parser("stats", help="print counts for an XES or Turtle file")
    stats.add_argument("input", help="XES or Turtle file, or - for stdin (format sniffed)")
    stats.add_argument("--output", "-o", help="output path (default: stdout)")
    stats.set_defaults(func=cmd_stats)

    export_dot = sub.add_parser("export-dot", help="render a Turtle file as a Graphviz digraph")
    export_dot.add_argument("input", help="Turtle file, or - for stdin")
    export_dot.add_argument("--output", "-o", help="output path (default: stdout)")
    export_dot.set_defaults(func=cmd_export_dot)

    return parser


def _read_input(path: str) -> bytes:
    """The file's bytes (stdin for -), inflated when they start with the gzip magic."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    if data[:2] == b"\x1f\x8b":
        import gzip  # only gzip input loads it
        import zlib

        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise OSError(f"{path}: bad gzip stream: {exc}") from exc
    return data


class _OutputError(Exception):
    """A failed open, write or flush of a command's output."""


def _drop_stdout():
    """Point stdout at the null device, so that what it still buffers is
    dropped instead of failing again at exit (Python's SIGPIPE note)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Output:
    """A command's output step, to stdout or to the file at path: an OSError
    raised in it, other than a closed stdout (BrokenPipeError, which main
    handles), is an _OutputError."""

    def __init__(self, path: str | None):
        self.to_stdout = path is None or path == "-"

    def __enter__(self) -> bool:
        return self.to_stdout

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, OSError) and not isinstance(exc, BrokenPipeError):
            if self.to_stdout:
                _drop_stdout()
            raise _OutputError(exc) from None


def _write_text(path: str | None, text: str):
    with _Output(path) as to_stdout:
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)


def _keep_rule(query: tuple) -> Callable[[Iri], bool]:
    """parse_turtle's keep rule for an analysis: the predicates (each an IRI)
    of its query's patterns, required and OPTIONAL."""
    required, groups = query
    return frozenset(pattern.predicate for block in (required, *groups) for pattern in block).__contains__


def _parse_store(path: str, data: bytes, keep: Callable[[Iri], bool] | None = None) -> "TripleStore":
    """A frozen store of the triples of data, the input at path, read as
    UTF-8 Turtle (see parse_turtle's keep).  The one place Turtle text is
    decoded: bytes that are not UTF-8 are a TurtleSyntaxError."""
    from .turtle_parser import parse_turtle

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TurtleSyntaxError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_turtle(text, keep).freeze()


def cmd_convert(args) -> int:
    from .transform import default_bpic2013_config, load_mapping_config, transform_log
    from .turtle_io import graph_to_turtle
    from .xes_parser import parse_xes_xml

    log = parse_xes_xml(_read_input(args.input))
    config = load_mapping_config(args.config) if args.config else default_bpic2013_config()
    graph, report = transform_log(log, config)
    traces, log_warnings = len(log.traces), len(log.warnings)
    del log  # the graph holds everything the Turtle needs
    with _Output(args.output) as to_stdout:
        if to_stdout:
            triples = graph_to_turtle(graph, sys.stdout)
            sys.stdout.flush()
        else:
            triples = graph_to_turtle(graph, args.output)
    if not args.quiet:
        print(
            f"convert: {traces} traces, {report.events_emitted} events emitted, "
            f"{len(report.events_skipped)} skipped, {report.objects_emitted} objects, "
            f"{triples} triples, {len(report.warnings) + log_warnings} warnings",
            file=sys.stderr,
        )
        for trace_index, event_index, reason in report.events_skipped:
            print(f"  skipped trace {trace_index} event {event_index}: {reason}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .analyses import records_to_csv, records_to_jsonl

    analysis, columns, query = _analysis(args.analysis)
    rows = analysis(_parse_store(args.input, _read_input(args.input), _keep_rule(query)))
    write = records_to_csv if args.format == "csv" else records_to_jsonl
    _write_text(args.output, write(rows, columns))
    if not args.quiet:
        print(f"analyze {args.analysis}: {len(rows)} rows", file=sys.stderr)
    return EXIT_OK


def _turtle_summary(store: "TripleStore") -> list[tuple[str, int | str]]:
    typed_events = store.pairs(EXT_EVENT_TYPE)
    typed_objects = store.pairs(EXT_OBJECT_TYPE)
    objects = {s for s, _ in typed_objects}
    return [
        ("format", "ttl"),
        ("triples", len(store)),
        ("events", len({s for s, _ in typed_events})),
        ("objects", len(objects)),
        ("eo_relations", sum(o == EXT_EVENT_OBJECT_CLASS for _, o in store.pairs(RDF_TYPE))),
        ("oo_relations", sum(1 for _ in object_object_triples(store, objects))),
        ("event_types", len({o for _, o in typed_events})),
        ("object_types", len({o for _, o in typed_objects})),
        ("cases", len({o for _, o in store.pairs(EXT_EVENT_CASE)})),
    ]


def _xes_summary(log: "XesLog") -> list[tuple[str, int | str]]:
    from .transform import default_bpic2013_config, trace_case_ids

    cases = {case_id for _, case_id in trace_case_ids(log, default_bpic2013_config())}
    return [
        ("format", "xes"),
        ("traces", len(log.traces)),
        ("events", log.event_count),
        ("cases", len(cases)),
    ]


def cmd_stats(args) -> int:
    data = _read_input(args.input)
    text_start = data.removeprefix("\ufeff".encode()).lstrip(b" \t\r\n")
    if text_start.startswith(b"<") or data.startswith((b"\xff\xfe", b"\xfe\xff")):
        # XES (UTF-16 by its BOM), or Turtle whose first statement starts with an absolute <iri>
        from .xes_parser import parse_xes_xml

        try:
            rows = _xes_summary(parse_xes_xml(data))
        except XesParseError as xml_error:
            try:
                rows = _turtle_summary(_parse_store(args.input, data))
            except TurtleSyntaxError:
                raise xml_error from None
    else:
        try:
            rows = _turtle_summary(_parse_store(args.input, data))
        except TurtleSyntaxError:
            # the header of text that may not be UTF-8; directive keywords are read in any case
            header = data.decode("utf-8", "replace").lstrip("\ufeff \t\r\n")[:7].lower()
            if header.startswith(("@prefix", "prefix", "@base", "base", "#")):
                raise  # Turtle by its header: a parse error, exit 3
            print(f"stats: {args.input}: not XES or Turtle", file=sys.stderr)
            return EXIT_BAD_FORMAT

    width = max(len(name) for name, _ in rows)
    _write_text(args.output, "".join(f"{name:<{width}}  {value}\n" for name, value in rows))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    from .dot_export import store_to_dot

    _write_text(args.output, store_to_dot(_parse_store(args.input, _read_input(args.input))))
    return EXIT_OK


def _configure_logging():
    import logging

    level = getattr(logging, os.environ.get("OCED_FORGE_LOG", "WARNING").upper(), None)
    level = level if isinstance(level, int) else logging.WARNING  # an unknown name too
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # every command allocates many long-lived objects and no cycles worth
    # collecting: the cyclic GC would only walk them all again, once per pass
    enabled = gc.isenabled()
    gc.disable()
    errors.on_first_warning.append(_configure_logging)  # so logging loads only to warn
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8", newline="")  # the bytes --output writes
    try:
        return args.func(args)
    except (XesParseError, XesStructureError, TurtleSyntaxError) as exc:
        print(f"oced-forge: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        _drop_stdout()  # the reader closed stdout
        return EXIT_BROKEN_PIPE
    except _OutputError as exc:
        print(f"oced-forge: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (OSError, OcedForgeError) as exc:
        print(f"oced-forge: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except KeyboardInterrupt:
        print("oced-forge: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:
        pass  # reported below, once the frames that held the memory are gone
    finally:
        errors.on_first_warning.clear()
        if enabled:
            gc.enable()
    print(f"oced-forge: out of memory in {args.command}", file=sys.stderr)
    return EXIT_NO_MEMORY


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

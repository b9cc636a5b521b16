"""Command-line interface.

Commands: convert (XES -> Turtle), analyze (Turtle -> ping-pong /
event-objects / teams as CSV or JSONL), stats (XES or Turtle counts), and
export-dot (Turtle -> Graphviz DOT).  Data goes to stdout or --output;
diagnostics go to stderr, so output is pipe-safe and byte-deterministic.

Every command loads this module's imports: the Turtle reader and writer,
the triple store and the analyses (with csv and json; _ANALYSES gives
--analysis its choices).  convert and XES stats also load the XES reader,
the transform and the graph model, and export-dot the DOT writer.  An input
is read whole and inflated once when it is gzip (_read_input); the XES
reader is then given the XML as it is.  analyze loads Turtle with a keep
rule made of the IRI predicates of the patterns its query looks up (see
_keep_rule).  stats keeps every triple, because it counts them, and so does
export-dot, which reads or would keep every predicate convert writes (see
dot_export).  The cyclic GC is off during every command.

Exit codes: 0 success (also with skipped-event warnings), 2 unreadable or
invalid input file (a bad gzip stream or config encoding too) or input that
cannot be converted (colliding ids), 3 parse error (XML or Turtle, with
location, and XES nested deeper than the reader's limit), 64 usage error,
65 unrecognized input format for stats.  convert writes its Turtle through
graph_to_turtle, which renders and sorts every row before it opens
--output, so a failed convert leaves that file alone.
"""

import argparse
import gc
import gzip
import logging
import os
import sys
import zlib
from collections.abc import Callable
from typing import TYPE_CHECKING

from .analyses import (
    EVENT_OBJECT_COLUMNS,
    EVENT_OBJECTS,
    PING_PONG_COLUMNS,
    TEAM_COLUMNS,
    TEAM_TIMES,
    detect_ping_pong,
    enumerate_event_objects,
    records,
    records_to_csv,
    records_to_jsonl,
    team_involvement,
)
from .errors import (
    OcedForgeError,
    TurtleSyntaxError,
    XesParseError,
    XesStructureError,
)
from .terms import (
    EXT_EVENT_CASE,
    EXT_EVENT_OBJECT_CLASS,
    EXT_EVENT_TYPE,
    EXT_OBJECT_TYPE,
    RDF_TYPE,
    Iri,
    object_object_triples,
)
from .triple_query import TriplePattern, TripleStore
from .turtle_io import parse_turtle

if TYPE_CHECKING:  # the read commands run without the XES reader
    from .xes_parser import XesLog

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_PARSE = 3
EXIT_USAGE = 64
EXIT_BAD_FORMAT = 65

# analysis -> (function, output columns, the patterns it reads)
_ANALYSES = {
    "ping-pong": (detect_ping_pong, PING_PONG_COLUMNS, TEAM_TIMES),
    "event-objects": (enumerate_event_objects, EVENT_OBJECT_COLUMNS, EVENT_OBJECTS),
    "teams": (team_involvement, TEAM_COLUMNS, TEAM_TIMES),
}


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
        "with more than 1000 elements open at once), 64 usage, 65 unrecognized format. "
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
        try:
            return gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise OSError(f"{path}: bad gzip stream: {exc}") from exc
    return data


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _keep_rule(patterns: list[TriplePattern]) -> Callable[[Iri], bool]:
    """parse_turtle's keep rule for an analysis: the predicates (each an IRI)
    of the patterns it reads."""
    return frozenset(pattern.predicate for pattern in patterns).__contains__


def _parse_store(text: str, keep: Callable[[Iri], bool] | None = None) -> TripleStore:
    """A frozen store of the text's triples (see parse_turtle's keep)."""
    return parse_turtle(text, keep).freeze()


def _load_store(path: str, keep: Callable[[Iri], bool] | None = None) -> TripleStore:
    try:
        text = _read_input(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TurtleSyntaxError(f"{path}: not UTF-8 text: {exc}") from exc
    return _parse_store(text, keep)


def _parse_xes_logged(data: bytes) -> "XesLog":
    """The XES reader on bytes _read_input has already inflated (so never
    inflated twice), with each of the reader's warnings logged."""
    from .xes_parser import parse_xes_xml

    log = parse_xes_xml(data)
    for warning in log.warnings:
        logging.getLogger("oced_forge.xes_parser").warning("%s", warning)
    return log


def cmd_convert(args) -> int:
    from .transform import default_bpic2013_config, load_mapping_config, transform_log
    from .turtle_io import graph_to_turtle

    log = _parse_xes_logged(_read_input(args.input))
    config = load_mapping_config(args.config) if args.config else default_bpic2013_config()
    graph, report = transform_log(log, config)
    traces, log_warnings = len(log.traces), len(log.warnings)
    del log  # the graph holds everything the Turtle needs
    if args.output is None or args.output == "-":
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
        for skipped in report.events_skipped:
            print(
                f"  skipped trace {skipped.trace_index} event {skipped.event_index}: "
                f"{skipped.reason}",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_analyze(args) -> int:
    analysis, columns, patterns = _ANALYSES[args.analysis]
    rows = records(analysis(_load_store(args.input, _keep_rule(patterns))))
    write = records_to_csv if args.format == "csv" else records_to_jsonl
    _write_text(args.output, write(rows, columns))
    if not args.quiet:
        print(f"analyze {args.analysis}: {len(rows)} rows", file=sys.stderr)
    return EXIT_OK


def _turtle_summary(store: TripleStore) -> list[tuple[str, int | str]]:
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
        try:
            rows = _xes_summary(_parse_xes_logged(data))
        except XesParseError as xml_error:
            try:
                rows = _turtle_summary(_parse_store(data.decode("utf-8")))
            except (UnicodeDecodeError, TurtleSyntaxError):
                raise xml_error from None
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            print(f"stats: {args.input}: not XES or Turtle", file=sys.stderr)
            return EXIT_BAD_FORMAT
        try:
            store = _parse_store(text)
        except TurtleSyntaxError:
            header = text.lstrip("\ufeff \t\r\n")[:7].lower()  # directive keywords are read in any case
            if header.startswith(("@prefix", "prefix", "@base", "base", "#")):
                raise  # Turtle by its header: a parse error, exit 3
            print(f"stats: {args.input}: not XES or Turtle", file=sys.stderr)
            return EXIT_BAD_FORMAT
        rows = _turtle_summary(store)

    width = max(len(name) for name, _ in rows)
    _write_text(args.output, "".join(f"{name:<{width}}  {value}\n" for name, value in rows))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    from .dot_export import store_to_dot

    _write_text(args.output, store_to_dot(_load_store(args.input)))
    return EXIT_OK


def _configure_logging():
    name = os.environ.get("OCED_FORGE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # every command allocates many long-lived objects and no cycles worth
    # collecting: the cyclic GC would only walk them all again, once per pass
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (XesParseError, XesStructureError, TurtleSyntaxError) as exc:
        print(f"oced-forge: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, OcedForgeError) as exc:
        print(f"oced-forge: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    finally:
        if enabled:
            gc.enable()


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

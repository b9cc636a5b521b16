"""oced-forge: XES event logs as object-centric event data.

Parses XES, converts traces and events into an object-centric graph via
configurable mapping rules, serializes the graph to Turtle, and evaluates
object-centric analyses (event-object enumeration, ping-pong detection,
team involvement) over an in-memory triple store.
"""

from .analyses import (
    EventObjectRow,
    PingPongRow,
    TeamInvolvement,
    detect_ping_pong,
    enumerate_event_objects,
    team_involvement,
)
from .dot_export import store_to_dot
from .errors import (
    ConfigError,
    GraphIntegrityError,
    OcedForgeError,
    SerializationError,
    TurtleSyntaxError,
    UnsupportedConstructError,
    XesParseError,
    XesStructureError,
)
from .oced_model import (
    OcedEvent,
    OcedGraph,
    OcedObject,
    TypedValue,
    escape_id,
    unescape_id,
)
from .terms import Iri, PlainLiteral, Triple, TypedLiteral
from .transform import (
    MappingConfig,
    ObjectRule,
    TransformReport,
    default_bpic2013_config,
    derive_event_type,
    load_mapping_config,
    transform_log,
)
from .triple_query import TriplePattern, TripleStore, Var
from .turtle_io import graph_to_triples, graph_to_turtle, parse_turtle, write_turtle
from .xes_parser import XesLog, XesTrace, parse_xes

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EventObjectRow",
    "GraphIntegrityError",
    "Iri",
    "MappingConfig",
    "ObjectRule",
    "OcedEvent",
    "OcedForgeError",
    "OcedGraph",
    "OcedObject",
    "PingPongRow",
    "PlainLiteral",
    "SerializationError",
    "TeamInvolvement",
    "TransformReport",
    "Triple",
    "TriplePattern",
    "TripleStore",
    "TurtleSyntaxError",
    "TypedLiteral",
    "TypedValue",
    "UnsupportedConstructError",
    "Var",
    "XesLog",
    "XesParseError",
    "XesStructureError",
    "XesTrace",
    "default_bpic2013_config",
    "derive_event_type",
    "detect_ping_pong",
    "enumerate_event_objects",
    "escape_id",
    "graph_to_triples",
    "graph_to_turtle",
    "load_mapping_config",
    "parse_turtle",
    "parse_xes",
    "store_to_dot",
    "team_involvement",
    "transform_log",
    "unescape_id",
    "write_turtle",
]

"""oced-forge: XES event logs as object-centric event data.

Parses XES, converts traces and events into an object-centric graph via
configurable mapping rules, serializes the graph to Turtle, and evaluates
object-centric analyses (event-object enumeration, ping-pong detection,
team involvement) over an in-memory triple store.

Importing the package loads none of its modules.  Each name in __all__ is
looked up in its module on first access (PEP 562 module __getattr__), so
`python -m oced_forge` loads only the CLI and what its command runs, and
`from oced_forge import *` binds every name as an eager import would.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "analyses": (
        "EventObjectRow",
        "PingPongRow",
        "TeamInvolvement",
        "detect_ping_pong",
        "enumerate_event_objects",
        "team_involvement",
    ),
    "dot_export": ("store_to_dot",),
    "errors": (
        "ConfigError",
        "GraphIntegrityError",
        "OcedForgeError",
        "SerializationError",
        "TurtleSyntaxError",
        "UnsupportedConstructError",
        "XesParseError",
        "XesStructureError",
    ),
    "oced_model": ("OcedEvent", "OcedGraph", "OcedObject", "TypedValue"),
    "terms": ("Iri", "PlainLiteral", "Triple", "TypedLiteral", "escape_id", "unescape_id"),
    "transform": (
        "MappingConfig",
        "ObjectRule",
        "TransformReport",
        "default_bpic2013_config",
        "derive_event_type",
        "load_mapping_config",
        "transform_log",
    ),
    "triple_query": ("TriplePattern", "TripleStore", "Var"),
    "turtle_io": ("graph_to_triples", "graph_to_turtle", "write_turtle"),
    "turtle_parser": ("parse_turtle",),
    "xes_parser": ("XesLog", "XesTrace", "parse_xes"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())

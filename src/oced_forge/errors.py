"""Exception hierarchy for oced-forge, and warn, the one way it logs: a
warning on logging.getLogger(<module name>), with logging imported only then."""

on_first_warning: list = []  # each called once, before the first warning (the CLI's set-up)


def warn(logger: str, message: str, *args):
    import logging

    while on_first_warning:
        on_first_warning.pop()()
    logging.getLogger(logger).warning(message, *args)


class OcedForgeError(Exception):
    """Base class for all errors raised by this package."""


class _LocatedError(OcedForgeError):
    """An error at a place in a document; the message ends with
    (line L, column C) when the line is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class XesParseError(_LocatedError):
    """Malformed XML in an XES document."""


class XesStructureError(OcedForgeError):
    """Well-formed XML that violates XES structure (duplicate keys, bad values, lists)."""


class GraphIntegrityError(OcedForgeError):
    """Violation of an OCED graph invariant: duplicate ids, dangling relation
    endpoints, self-relations, or duplicate event-object relations."""


class ConfigError(OcedForgeError):
    """Invalid mapping configuration."""


class TurtleSyntaxError(_LocatedError):
    """Syntax error in a Turtle document."""


class UnsupportedConstructError(TurtleSyntaxError):
    """Turtle construct outside the supported subset (blank nodes, collections, ...)."""


class SerializationError(OcedForgeError):
    """A graph cannot be serialized to Turtle (unescapable or colliding ids)."""


"""Timestamp handling shared by the XES parser, Turtle serializer, and analyses.

All timestamps in this package are timezone-aware datetimes.  XES keeps the
zone offset found in the source document; everything downstream of the
XES-to-OCED transform is normalized to UTC at millisecond precision so that
temporal comparisons are total and zone-independent.
"""

import re
from datetime import datetime, timedelta, timezone

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,9}))?"
    r"(Z|z|[+-]\d{2}:?\d{2})$"
)


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 timestamp with a mandatory zone offset.

    Accepts 'Z' or '+HH:MM'/'-HH:MM' (colon optional) offsets and a fractional
    second part of up to nine digits, truncated to microseconds.  Raises
    ValueError on anything else.
    """
    m = _ISO_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an ISO-8601 timestamp with zone offset: {text!r}")
    year, month, day, hour, minute, second = (int(g) for g in m.groups()[:6])
    frac = m.group(7) or ""
    micros = int(frac.ljust(6, "0")[:6]) if frac else 0
    off = m.group(8)
    if off in ("Z", "z"):
        tz = timezone.utc
    else:
        sign = 1 if off[0] == "+" else -1
        oh = int(off[1:3])
        om = int(off[-2:])
        tz = timezone(sign * timedelta(hours=oh, minutes=om))
    return datetime(year, month, day, hour, minute, second, micros, tzinfo=tz)


def to_utc_millis(dt: datetime) -> datetime:
    """Normalize an aware datetime to UTC, truncated to millisecond precision."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime; a zone offset is required")
    dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


def format_utc_millis(dt: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with milliseconds: ...T...sss'Z'."""
    return to_utc_millis(dt).isoformat(timespec="milliseconds")[:-6] + "Z"  # "+00:00" -> "Z"


def format_offset_millis(dt: datetime) -> str:
    """Render an aware datetime with its own offset, '+HH:MM' form, milliseconds."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime; a zone offset is required")
    return dt.isoformat(timespec="milliseconds")

"""Timestamp handling shared by the XES parser, Turtle serializer, and analyses.

The write side holds timestamps as timezone-aware datetimes.  XES keeps the
zone offset found in the source document; everything downstream of the
XES-to-OCED transform is normalized to UTC at millisecond precision so that
temporal comparisons are total and zone-independent.

parse_instant is on the XES reader's path: one regex match gives every
field, and each distinct offset text makes its tzinfo once.  The analyses
compare utc_key's fixed-width UTC text, which sorts in time order (RFC 3339
section 5.1) and needs no parse for the form convert writes.
"""

import re
from datetime import datetime, timedelta, timezone

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt](\d{2}):(\d{2}):(\d{2})"
    r"(?:\.(\d{1,9}))?"
    r"(Z|z|[+-]\d{2}:?\d{2})$"
)

# the form convert writes: UTC, milliseconds, ASCII digits
_CANONICAL_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z", re.ASCII)


# tzinfo by offset text, each made once; a log holds few distinct offsets
_ZONES = {"Z": timezone.utc, "z": timezone.utc}


def _zone(offset: str) -> timezone | None:
    """The offset's tzinfo; None for minutes past 59, which name no offset."""
    minutes = int(offset[-2:])
    if minutes > 59:
        return None
    sign = -1 if offset[0] == "-" else 1
    zone = _ZONES[offset] = timezone(sign * timedelta(hours=int(offset[1:3]), minutes=minutes))
    return zone


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 timestamp with a mandatory zone offset.

    Accepts 'Z' or '+HH:MM'/'-HH:MM' (colon optional, MM at most 59)
    offsets and a fractional second part of up to nine digits, truncated to
    microseconds.  Raises ValueError on anything else.
    """
    m = _ISO_RE.match(text.strip())
    zone = m and (_ZONES.get(m[8]) or _zone(m[8]))
    if zone is None:
        raise ValueError(f"not an ISO-8601 timestamp with zone offset: {text!r}")
    year, month, day, hour, minute, second, frac, _ = m.groups()
    micros = int(frac[:6].ljust(6, "0")) if frac else 0
    return datetime(int(year), int(month), int(day), int(hour), int(minute), int(second), micros, zone)


def to_utc_millis(dt: datetime) -> datetime:
    """Normalize an aware datetime to UTC, truncated to millisecond precision;
    one that already is comes back as it is."""
    if dt.tzinfo is timezone.utc and not dt.microsecond % 1000:
        return dt
    if dt.tzinfo is None:
        raise ValueError("naive datetime; a zone offset is required")
    dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


def has_utc_instant(dt: datetime) -> bool:
    """Whether an aware datetime's instant has a UTC time in datetime's years
    1..9999: the rule by which the transform skips an event and the analyses
    drop a time literal."""
    try:
        to_utc_millis(dt)
    except OverflowError:
        return False
    return True


def format_utc_millis(dt: datetime) -> str:
    """Render an aware datetime as ISO-8601 UTC with milliseconds: ...T...sss'Z'."""
    return to_utc_millis(dt).isoformat(timespec="milliseconds")[:-6] + "Z"  # "+00:00" -> "Z"


def format_offset_millis(dt: datetime) -> str:
    """Render an aware datetime with its own offset, '+HH:MM' form, milliseconds."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime; a zone offset is required")
    return dt.isoformat(timespec="milliseconds")


def utc_key(text: str) -> str | None:
    """A timestamp's instant as 'YYYY-MM-DDTHH:MM:SS.ffffffZ' in UTC, so keys
    sort in time order and key[:23] + 'Z' is format_utc_millis' text; None
    when parse_instant raises or has_utc_instant is False.  The canonical
    form ...SS.mmmZ is only checked for a valid date and time, then sliced."""
    try:
        if _CANONICAL_RE.fullmatch(text):
            datetime.fromisoformat(text[:23])  # without the 'Z', which Python 3.10 rejects
            return text[:23] + "000Z"
        instant = parse_instant(text).astimezone(timezone.utc)
    except (ValueError, OverflowError):  # OverflowError: has_utc_instant is False
        return None
    return instant.isoformat(timespec="microseconds")[:-6] + "Z"

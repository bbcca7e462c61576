"""Exception types shared across the package, and the JSON field reader that raises one."""

from __future__ import annotations

from typing import Any, Callable


class ProtocolError(Exception):
    """Base class for every failure raised by this package."""


# --- parameter generation -------------------------------------------------

class NotInvertible(ProtocolError):
    """Modular inverse requested for a non-unit."""


class NotInSubgroup(ProtocolError):
    """Value is not of the form (1+M)^x, so the subgroup dlog is undefined."""


class DuplicateId(ProtocolError):
    """Participant IDs must be distinct."""


class InvalidKey(ProtocolError):
    """A loaded key does not fit the public parameters."""


class InvalidParams(ProtocolError):
    """Loaded public parameters fail a property that setup guarantees."""


class InvalidQuery(ProtocolError):
    """A declared query does not fit the parameters or its own terms."""


class BadField(ProtocolError):
    """A JSON document lacks a field, or a field does not parse."""


def json_int(value: Any) -> int:
    """A JSON integer as it was read: an `int` and not a `bool`, so a float
    or a numeric string is refused rather than truncated or parsed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_key(key: str) -> int:
    """An object key that names an integer, spelled in canonical decimal, so
    that "01", "+1", " 1" or "1_0" cannot stand for a key spelled otherwise."""
    value = int(key)
    if str(value) != key:
        raise ValueError(f"key {key!r} is not a canonical decimal integer")
    return value


def field(doc: Any, name: str, parse: Callable[[Any], Any] = json_int) -> Any:
    """parse(doc[name]); BadField names the field if it is missing or does not parse."""
    try:
        value = doc[name]
    except (KeyError, TypeError):
        raise BadField(f"missing field {name!r}") from None
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadField(f"field {name!r}: {type(exc).__name__}: {exc}") from None


def hex_field(doc: Any, name: str) -> int:
    """The integer a field holds as a hex string."""
    return field(doc, name, lambda text: int(text, 16))


# --- homomorphic encryption -----------------------------------------------

class MessageTooLarge(ProtocolError):
    """Plaintext does not fit below the encryption modulus."""


class InvalidCiphertext(ProtocolError):
    """Ciphertext shares a factor with the modulus or is out of range."""


# --- ceremonies ------------------------------------------------------------

class NonInvertibleBroadcast(ProtocolError):
    """A ring-share broadcast is not a unit of the working group."""


class ExtractionFailed(ProtocolError):
    """Key-share blinds do not multiply to 1 mod M, so no share product is a
    power of (1+M); refused before any share is posted."""


class RingTooSmall(ProtocolError):
    """Ring exchange needs more participants than supplied."""


# --- encryption / aggregation ----------------------------------------------

class GroupTooSmall(ProtocolError):
    """Participant set is below the minimum threshold."""


class GroupBelowThreshold(GroupTooSmall):
    """Group size (or usable key degree) violates the active threshold."""


class KeyMissing(ProtocolError):
    """No key share exists for the requested group size."""


class IncompleteGroup(ProtocolError):
    """A member's value, or a message `Bus.deliver` expects, is missing."""


class UnexpectedMessage(ProtocolError):
    """`Bus.deliver` got a repeated message, one it did not expect or a wrong-length body."""


class ResultOverflow(ProtocolError):
    """Aggregate exceeds (or could exceed) the plaintext bound and would wrap."""


class MissingEncoding(ProtocolError):
    """A window value, or the message carrying it, did not reach user 1 or the aggregator."""


class SlotReused(ProtocolError):
    """Requested time window overlaps an already-consumed window."""


class CorruptRegistry(ProtocolError):
    """A slot-registry line other than an unfinished last one does not parse."""


class SingularSystem(ProtocolError):
    """Interpolation system is singular (repeated or degenerate IDs)."""


class SingularNormalEquations(ProtocolError):
    """Normal equations of the regression are singular."""


class FixedPointOverflow(ProtocolError):
    """Real value does not fit the fixed-point range for the modulus."""

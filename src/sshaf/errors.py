"""Error catalog for the whole framework.

Every failure mode raised across the protocol engines, the context engine,
the gateway and the harness lives here so callers can catch one base class.
"""

from __future__ import annotations


class SshafError(Exception):
    """Base class for all framework errors."""


# --- primitives ---------------------------------------------------------

class InvalidLabel(SshafError):
    """KDF label is empty, non-ASCII, or longer than 32 bytes."""


# --- merkle_auth --------------------------------------------------------

class EmptyTree(SshafError):
    """A Merkle tree needs at least one leaf."""


class IndexOutOfRange(SshafError):
    """Requested leaf index is not inside the tree."""


class AlreadyRegistered(SshafError):
    """The uid already has state registered with this party."""


class Busy(SshafError):
    """A handshake is already in flight for this party."""


class UnknownUser(SshafError):
    """No state registered for the presented uid."""


class CounterDesync(SshafError):
    """Transaction counters disagree; carries the gateway's counter and
    root. No recovery path reads them yet: a user left behind by a lost M4
    cannot catch up, because the gateway has already ratcheted its key."""

    def __init__(self, gateway_counter: int, gateway_root=None):
        super().__init__(f"counter desync, gateway at {gateway_counter}")
        self.gateway_counter = gateway_counter
        self.gateway_root = gateway_root


class GatewayAuthFailed(SshafError):
    """User could not authenticate the gateway (bad challenge tag)."""


class HistoryMismatch(SshafError):
    """Gateway presented a transaction-history root the user does not hold."""


class UserAuthFailed(SshafError):
    """Gateway could not authenticate the user (bad response tag)."""


class ConfirmFailed(SshafError):
    """Final confirmation invalid or no handshake pending; nothing committed."""


# --- dors_auth ----------------------------------------------------------

class InvalidParams(SshafError):
    """Signature parameters violate their invariants."""


class ForestExhausted(SshafError):
    """All trees in the forest have spent their signature budget; rekey."""


class AuthFailed(SshafError):
    """Authentication handshake failed."""


# --- dhs_auth -----------------------------------------------------------

class LocalAuthFailed(SshafError):
    """Smart-card local password check failed; no traffic emitted."""


class CardLocked(SshafError):
    """Smart card locked after three consecutive password failures."""


class MalformedPacket(SshafError):
    """Packet framing is truncated or inconsistent."""


class IdentifierMismatch(SshafError):
    """Presented interface identifier is unknown or stale."""


class TagInvalid(SshafError):
    """Login request authentication tag did not verify."""


class AgreeFailed(SshafError):
    """Session agreement confirmation failed; identifiers stay unchanged."""


# --- context_engine -----------------------------------------------------

class UnknownFactor(SshafError):
    """Factor name is not one of the five contextual factors."""


class InvalidWeights(SshafError):
    """Factor weights are out of range or do not sum to 1."""


class DegenerateTraining(SshafError):
    """Training data does not contain both labels."""


class NoSchemeAvailable(SshafError):
    """User has no provisioned authentication scheme."""


class MalformedRecord(SshafError, ValueError):
    """A JSONL input file cannot be opened, or one of its lines is not
    JSON, misses a field, or has a field of the wrong type or out of range;
    the message starts with the path, and for a line ``path:line``."""


# --- gateway ------------------------------------------------------------

class NotVerified(SshafError):
    """Account exists but the owner has not activated it."""


class Forbidden(SshafError):
    """Caller lacks the role required for this operation."""


class InvalidTransition(SshafError):
    """Profile is not in a state this transition applies to."""


class SessionExpired(SshafError):
    """Session is unknown, revoked, or past its simulated-time TTL."""


class UnknownDevice(SshafError):
    """Device id is not in the registry."""


class AuthenticatedDecryptionFailed(SshafError):
    """Stored database is corrupted, truncated, or the key is wrong."""


# --- harness ------------------------------------------------------------

class ScriptError(SshafError):
    """Scenario script is malformed."""


class StateCorrupt(SshafError):
    """A file of a state directory is missing, unreadable, or does not
    parse or restore: gateway.key, state.json, db.enc, or a DORS forest."""

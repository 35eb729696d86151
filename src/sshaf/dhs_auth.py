"""Smart-card authentication among user card, edge server and home server.

Five phases: initialization, addressing, registration, login authentication
and session agreement. The card has no password update: its verifier and
the edge's identifier are set at registration, so a new password means a
new registration. Every session rides on a per-session 64-bit interface
identifier carried in the low half of an IPv6-style address; the identifier
rotates on each successful agreement, so a captured login packet is stale
by the time it can be replayed.

The edge server's user database holds only the current identifier and an
edge key share. The value that actually verifies card-keyed tags is a
binding digest handed over at registration and kept in the edge server's
keystore, outside the database table, so a stolen database dump can forge
nothing: tags key off hash(card_secret), reconstructed as
binding XOR hash(edge_share), and neither half alone is enough.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import (
    AgreeFailed,
    AlreadyRegistered,
    CardLocked,
    IdentifierMismatch,
    LocalAuthFailed,
    MalformedPacket,
    TagInvalid,
)
from .link import GATEWAY, USER
from .primitives import (
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    kdf,
    mac,
    random_key,
    random_nonce,
    xor_bytes,
)

DEFAULT_PREFIX = 0xFD00_0000_0000_0001  # site-local style 64-bit prefix
LOCKOUT_THRESHOLD = 3


# --- addressing ------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceIdentifier:
    """Per-session 64-bit identity token."""

    iid: int

    def __post_init__(self):
        if not 0 <= self.iid < 1 << 64:
            raise ValueError("interface identifier must fit in 64 bits")

    def to_bytes(self) -> bytes:
        return self.iid.to_bytes(8, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "InterfaceIdentifier":
        return cls(int.from_bytes(raw, "big"))


@dataclass
class Ipv6Packet:
    """Address split as 64-bit prefix || 64-bit interface identifier, with
    the payload length-prefixed behind it."""

    prefix: int
    iid_bits: int
    payload: bytes

    def encode(self) -> bytes:
        return (
            self.prefix.to_bytes(8, "big")
            + self.iid_bits.to_bytes(8, "big")
            + struct.pack(">I", len(self.payload))
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "Ipv6Packet":
        if len(data) < 20:
            raise MalformedPacket(f"packet truncated at {len(data)} bytes")
        prefix = int.from_bytes(data[:8], "big")
        iid_bits = int.from_bytes(data[8:16], "big")
        (length,) = struct.unpack_from(">I", data, 16)
        payload = data[20:]
        if len(payload) != length:
            raise MalformedPacket(f"payload length {len(payload)} != declared {length}")
        return cls(prefix, iid_bits, payload)


def dhs_encapsulate(request: bytes, iid: InterfaceIdentifier, prefix: int = DEFAULT_PREFIX) -> Ipv6Packet:
    return Ipv6Packet(prefix, iid.iid, request)


def dhs_decapsulate(packet_bytes: bytes) -> tuple[InterfaceIdentifier, bytes]:
    packet = Ipv6Packet.decode(packet_bytes)
    return InterfaceIdentifier(packet.iid_bits), packet.payload


def dhs_generate_iid(uid: str, session_nonce: Nonce128, secret: Key256) -> InterfaceIdentifier:
    """First 8 bytes, big-endian, of hash(secret || uid || nonce)."""
    digest = hash_bytes(secret.bytes + uid.encode() + session_nonce.bytes)
    return InterfaceIdentifier.from_bytes(digest.bytes[:8])


# --- entities ----------------------------------------------------------------

@dataclass
class HomeServerState:
    master_secret: Key256
    registered: set[str] = field(default_factory=set)


@dataclass
class SmartCardState:
    uid: str
    pw_verifier: Digest256
    card_salt: Nonce128
    card_secret: Key256
    current_iid: InterfaceIdentifier
    failed_attempts: int = 0
    locked: bool = False
    pending_n_u: Nonce128 | None = None

    def auth_base(self) -> Key256:
        return Key256(hash_bytes(self.card_secret.bytes).bytes)


@dataclass
class EdgeEntry:
    current_iid: InterfaceIdentifier
    edge_share: Key256


@dataclass
class EdgePending:
    n_u: Nonce128
    n_e: Nonce128


@dataclass
class EdgeServer:
    """db is the per-user table a stolen-database capture exposes; the
    binding digests live in the server keystore, not the table."""

    db: dict[str, EdgeEntry] = field(default_factory=dict)
    bindings: dict[str, Digest256] = field(default_factory=dict)
    pending: dict[str, EdgePending] = field(default_factory=dict)

    def auth_base(self, uid: str) -> Key256:
        entry = self.db[uid]
        binding = self.bindings[uid]
        return Key256(xor_bytes(binding.bytes, hash_bytes(entry.edge_share.bytes).bytes))


# --- wire records -------------------------------------------------------------

def _pack_uid(uid: str) -> bytes:
    raw = uid.encode()
    return struct.pack(">H", len(raw)) + raw


def _unpack_uid(data: bytes, off: int = 0) -> tuple[str, int]:
    if len(data) < off + 2:
        raise MalformedPacket("frame ends inside the uid length")
    end = off + 2 + int.from_bytes(data[off : off + 2], "big")
    if end > len(data):
        raise MalformedPacket("uid runs past the end of the frame")
    try:
        return data[off + 2 : end].decode(), end
    except UnicodeDecodeError:
        raise MalformedPacket("uid is not UTF-8") from None


def _check_length(data: bytes, expected: int, what: str) -> None:
    if len(data) != expected:
        raise MalformedPacket(f"{what} is {len(data)} bytes, expected {expected}")


@dataclass
class LoginRequest:
    packet: Ipv6Packet

    def encode(self) -> bytes:
        return self.packet.encode()

    @classmethod
    def decode(cls, data: bytes) -> "LoginRequest":
        return cls(Ipv6Packet.decode(data))


@dataclass
class Challenge:
    uid: str
    n_e: Nonce128

    def encode(self) -> bytes:
        return _pack_uid(self.uid) + self.n_e.bytes

    @classmethod
    def decode(cls, data: bytes) -> "Challenge":
        uid, off = _unpack_uid(data)
        _check_length(data, off + 16, "challenge")
        return cls(uid, Nonce128(data[off:]))


@dataclass
class ConfirmMessage:
    uid: str
    tag: Digest256

    def encode(self) -> bytes:
        return _pack_uid(self.uid) + self.tag.bytes

    @classmethod
    def decode(cls, data: bytes) -> "ConfirmMessage":
        uid, off = _unpack_uid(data)
        _check_length(data, off + 32, "confirm")
        return cls(uid, Digest256(data[off:]))


@dataclass
class AckMessage:
    tag: Digest256

    def encode(self) -> bytes:
        return self.tag.bytes

    @classmethod
    def decode(cls, data: bytes) -> "AckMessage":
        _check_length(data, 32, "ack")
        return cls(Digest256(data))


# --- phases --------------------------------------------------------------------

def dhs_initialize(src: RandomSource) -> HomeServerState:
    """Phase 1: the home server mints its master secret once."""
    return HomeServerState(master_secret=random_key(src))


def dhs_register(
    home: HomeServerState, edge: EdgeServer, uid: str, password: str, src: RandomSource
) -> SmartCardState:
    """Phase 3: issue the card, seed the edge DB entry, hand the binding
    digest to the edge keystore. The home server keeps no per-user session
    table afterwards."""
    if uid in home.registered:
        raise AlreadyRegistered(uid)
    card_secret = kdf(home.master_secret, "card", uid.encode())
    edge_share = kdf(home.master_secret, "edge", uid.encode())
    card_salt = random_nonce(src)
    pw_verifier = hash_bytes(uid.encode() + password.encode() + card_salt.bytes)
    initial_nonce = random_nonce(src)
    auth_base = Key256(hash_bytes(card_secret.bytes).bytes)
    iid = dhs_generate_iid(uid, initial_nonce, auth_base)
    binding = Digest256(
        xor_bytes(hash_bytes(card_secret.bytes).bytes, hash_bytes(edge_share.bytes).bytes)
    )
    card = SmartCardState(uid, pw_verifier, card_salt, card_secret, iid)
    edge.db[uid] = EdgeEntry(current_iid=iid, edge_share=edge_share)
    edge.bindings[uid] = binding
    home.registered.add(uid)
    return card


def _check_password(card: SmartCardState, password: str) -> bool:
    probe = hash_bytes(card.uid.encode() + password.encode() + card.card_salt.bytes)
    return probe == card.pw_verifier


def dhs_login(card: SmartCardState, uid: str, password: str, src: RandomSource) -> LoginRequest:
    """Phase 4, card side: local password check first; only a successful
    check emits network traffic."""
    if card.locked:
        raise CardLocked(card.uid)
    if uid != card.uid or not _check_password(card, password):
        card.failed_attempts += 1
        if card.failed_attempts >= LOCKOUT_THRESHOLD:
            card.locked = True
            raise CardLocked(card.uid)
        raise LocalAuthFailed("password check failed")
    card.failed_attempts = 0
    n_u = random_nonce(src)
    card.pending_n_u = n_u
    tag = mac(card.auth_base(), card.current_iid.to_bytes() + n_u.bytes)
    record = _pack_uid(uid) + n_u.bytes + tag.bytes
    return LoginRequest(dhs_encapsulate(record, card.current_iid))


def dhs_edge_verify(edge: EdgeServer, packet_bytes: bytes, src: RandomSource) -> Challenge:
    """Phase 4, edge side: decapsulate, match the stored identifier, check
    the card-keyed tag via the binding, then issue a challenge nonce."""
    iid, record = dhs_decapsulate(packet_bytes)
    uid, off = _unpack_uid(record)
    _check_length(record, off + 48, "login record")
    n_u = Nonce128(record[off : off + 16])
    tag = Digest256(record[off + 16 :])
    entry = edge.db.get(uid)
    if entry is None or entry.current_iid != iid:
        raise IdentifierMismatch(f"unknown or stale identifier for {uid!r}")
    if tag != mac(edge.auth_base(uid), iid.to_bytes() + n_u.bytes):
        raise TagInvalid(uid)
    n_e = random_nonce(src)
    edge.pending[uid] = EdgePending(n_u=n_u, n_e=n_e)
    return Challenge(uid, n_e)


def _session_key(auth_base: Key256, n_u: Nonce128, n_e: Nonce128) -> Key256:
    return kdf(auth_base, "dhs-sk", n_u.bytes + n_e.bytes)


def dhs_card_confirm(card: SmartCardState, challenge: Challenge) -> tuple[ConfirmMessage, Key256]:
    """Phase 5, card side: derive the session key and prove it."""
    if card.pending_n_u is None:
        raise AgreeFailed("no login in flight")
    session = _session_key(card.auth_base(), card.pending_n_u, challenge.n_e)
    tag = mac(session, b"confirm" + card.pending_n_u.bytes + challenge.n_e.bytes)
    return ConfirmMessage(card.uid, tag), session


def dhs_edge_complete(edge: EdgeServer, confirm: ConfirmMessage) -> tuple[AckMessage, Key256]:
    """Phase 5, edge side: check the confirmation, rotate the stored
    identifier, acknowledge under the session key."""
    pend = edge.pending.get(confirm.uid)
    if pend is None:
        raise AgreeFailed("no challenge outstanding")
    base = edge.auth_base(confirm.uid)
    session = _session_key(base, pend.n_u, pend.n_e)
    if confirm.tag != mac(session, b"confirm" + pend.n_u.bytes + pend.n_e.bytes):
        del edge.pending[confirm.uid]
        raise AgreeFailed("confirmation tag mismatch")
    next_iid = dhs_generate_iid(confirm.uid, pend.n_e, base)
    edge.db[confirm.uid].current_iid = next_iid
    del edge.pending[confirm.uid]
    return AckMessage(mac(session, b"ack" + pend.n_e.bytes)), session


def dhs_card_finish(card: SmartCardState, challenge: Challenge, ack: AckMessage, session: Key256) -> Key256:
    """Phase 5, card side: verify the acknowledgement, install the next
    identifier. A bad ack leaves the card's identifier unchanged."""
    if ack.tag != mac(session, b"ack" + challenge.n_e.bytes):
        card.pending_n_u = None
        raise AgreeFailed("acknowledgement tag mismatch")
    card.current_iid = dhs_generate_iid(card.uid, challenge.n_e, card.auth_base())
    card.pending_n_u = None
    return session


def dhs_session_agree(
    link, card: SmartCardState, edge: EdgeServer, challenge: Challenge
) -> tuple[Key256, Key256, InterfaceIdentifier]:
    """Phase 5 end-to-end over ``link``, from the edge's challenge on:
    returns both session keys and the rotated identifier both parties
    installed."""
    challenge = link.carry(GATEWAY, USER, challenge, Challenge.decode)
    confirm, card_session = dhs_card_confirm(card, challenge)
    confirm = link.carry(USER, GATEWAY, confirm, ConfirmMessage.decode)
    ack, edge_session = dhs_edge_complete(edge, confirm)
    ack = link.carry(GATEWAY, USER, ack, AckMessage.decode)
    dhs_card_finish(card, challenge, ack, card_session)
    return card_session, edge_session, card.current_iid


def dhs_handshake(
    link, card: SmartCardState, edge: EdgeServer, password: str, src: RandomSource
) -> tuple[Key256, Key256]:
    """Login, edge verification and session agreement over ``link``,
    returning (card key, edge key). The edge verifies the packet bytes."""
    request = link.carry(
        USER, GATEWAY, dhs_login(card, card.uid, password, src), LoginRequest.decode
    )
    challenge = dhs_edge_verify(edge, request.encode(), src)
    card_key, edge_key, _ = dhs_session_agree(link, card, edge, challenge)
    return card_key, edge_key

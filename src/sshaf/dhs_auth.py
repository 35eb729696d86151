"""Smart-card authentication among user card, edge server and home server.

Five phases: initialization, addressing, registration, login authentication
and session agreement. The gateway is the home server: initialization is
``Gateway.__init__``, which mints the master secret once at first boot, and
``dhs_register`` takes that secret to issue a card. The home server keeps
nothing per user; a uid is registered while the edge table holds its entry,
so a duplicate registration is checked against that table. The card has no
password update: its verifier and the edge's identifier are set at
registration, so a new password means a new registration. Every session
rides on a per-session 64-bit interface identifier carried in the low half
of an IPv6-style address; the identifier rotates on each successful
agreement, so a captured login is stale by the time it can be replayed.

The login crosses the link as a ``LoginRequest``, a message like every
other, and the edge verifies the decoded request. Its tag binds the
identifier but not the address prefix. Every message here is decoded with
``link.Reader``, where the framing rules live.

The edge server's user database holds only the current identifier and an
edge key share. The value that actually verifies card-keyed tags is a
binding digest handed over at registration and kept in the edge server's
keystore, outside the database table, so a stolen database dump can forge
nothing: tags key off hash(card_secret), reconstructed as
binding XOR hash(edge_share), and neither half alone is enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AgreeFailed,
    AlreadyRegistered,
    CardLocked,
    IdentifierMismatch,
    LocalAuthFailed,
    TagInvalid,
)
from .link import GATEWAY, USER, Reader, pack_uid
from .primitives import (
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    kdf,
    mac,
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


def dhs_generate_iid(uid: str, session_nonce: Nonce128, secret: Key256) -> InterfaceIdentifier:
    """First 8 bytes, big-endian, of hash(secret || uid || nonce)."""
    digest = hash_bytes(secret.bytes + uid.encode() + session_nonce.bytes)
    return InterfaceIdentifier.from_bytes(digest.bytes[:8])


# --- entities ----------------------------------------------------------------

@dataclass
class SmartCardState:
    """Locked while ``failed_attempts`` is at least LOCKOUT_THRESHOLD: a
    locked card checks no password, so its count never falls again."""

    uid: str
    pw_verifier: Digest256
    card_salt: Nonce128
    card_secret: Key256
    current_iid: InterfaceIdentifier
    failed_attempts: int = 0
    pending_n_u: Nonce128 | None = field(default=None, init=False)

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
    pending: dict[str, EdgePending] = field(default_factory=dict, init=False)

    def auth_base(self, uid: str) -> Key256:
        entry = self.db[uid]
        binding = self.bindings[uid]
        return Key256(xor_bytes(binding.bytes, hash_bytes(entry.edge_share.bytes).bytes))


# --- wire records -------------------------------------------------------------
# Each decoder reads with a ``link.Reader``; uids are as ``link.pack_uid``
# writes them.

@dataclass
class LoginRequest:
    """The card's login as it crosses the link: an IPv6-style address, the
    64-bit ``prefix`` and the card's interface identifier, then a 4-byte
    length and the record it counts, the uid, ``n_u`` and the card-keyed
    tag. The tag covers the identifier and ``n_u``, not the prefix, and any
    prefix decodes."""

    prefix: int
    iid: InterfaceIdentifier
    uid: str
    n_u: Nonce128
    tag: Digest256

    def encode(self) -> bytes:
        record = pack_uid(self.uid) + self.n_u.bytes + self.tag.bytes
        address = self.prefix.to_bytes(8, "big") + self.iid.to_bytes()
        return address + len(record).to_bytes(4, "big") + record

    @classmethod
    def decode(cls, data: bytes) -> "LoginRequest":
        r = Reader(data, "login request")
        prefix, iid = r.int(8), InterfaceIdentifier(r.int(8))
        record = Reader(r.take(r.int(4)), "login record")
        uid, n_u, tag = record.uid(), Nonce128(record.take(16)), Digest256(record.take(32))
        return r.done(record.done(cls(prefix, iid, uid, n_u, tag)))


@dataclass
class Challenge:
    uid: str
    n_e: Nonce128

    def encode(self) -> bytes:
        return pack_uid(self.uid) + self.n_e.bytes

    @classmethod
    def decode(cls, data: bytes) -> "Challenge":
        r = Reader(data, "challenge")
        return r.done(cls(r.uid(), Nonce128(r.take(16))))


@dataclass
class ConfirmMessage:
    uid: str
    tag: Digest256

    def encode(self) -> bytes:
        return pack_uid(self.uid) + self.tag.bytes

    @classmethod
    def decode(cls, data: bytes) -> "ConfirmMessage":
        r = Reader(data, "confirm")
        return r.done(cls(r.uid(), Digest256(r.take(32))))


@dataclass
class AckMessage:
    tag: Digest256

    def encode(self) -> bytes:
        return self.tag.bytes

    @classmethod
    def decode(cls, data: bytes) -> "AckMessage":
        r = Reader(data, "ack")
        return r.done(cls(Digest256(r.take(32))))


# --- phases --------------------------------------------------------------------

def dhs_register(
    master_secret: Key256, edge: EdgeServer, uid: str, password: str, src: RandomSource
) -> SmartCardState:
    """Phase 3: issue the card from the home server's ``master_secret``,
    seed the edge DB entry, hand the binding digest to the edge keystore.
    A uid the edge table already holds is not registered again."""
    if uid in edge.db:
        raise AlreadyRegistered(uid)
    card_secret = kdf(master_secret, "card", uid.encode())
    edge_share = kdf(master_secret, "edge", uid.encode())
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
    return card


def _check_password(card: SmartCardState, password: str) -> bool:
    probe = hash_bytes(card.uid.encode() + password.encode() + card.card_salt.bytes)
    return probe == card.pw_verifier


def dhs_login(card: SmartCardState, uid: str, password: str, src: RandomSource) -> LoginRequest:
    """Phase 4, card side: local password check first; only a successful
    check emits network traffic."""
    if card.failed_attempts >= LOCKOUT_THRESHOLD:
        raise CardLocked(card.uid)
    if uid != card.uid or not _check_password(card, password):
        card.failed_attempts += 1
        if card.failed_attempts >= LOCKOUT_THRESHOLD:
            raise CardLocked(card.uid)
        raise LocalAuthFailed("password check failed")
    card.failed_attempts = 0
    n_u = random_nonce(src)
    card.pending_n_u = n_u
    iid = card.current_iid
    tag = mac(card.auth_base(), iid.to_bytes() + n_u.bytes)
    return LoginRequest(DEFAULT_PREFIX, iid, uid, n_u, tag)


def dhs_edge_verify(edge: EdgeServer, request: LoginRequest, src: RandomSource) -> Challenge:
    """Phase 4, edge side: match the stored identifier, check the
    card-keyed tag via the binding, then issue a challenge nonce."""
    uid, iid = request.uid, request.iid
    entry = edge.db.get(uid)
    if entry is None or entry.current_iid != iid:
        raise IdentifierMismatch(f"unknown or stale identifier for {uid!r}")
    if request.tag != mac(edge.auth_base(uid), iid.to_bytes() + request.n_u.bytes):
        raise TagInvalid(uid)
    n_e = random_nonce(src)
    edge.pending[uid] = EdgePending(n_u=request.n_u, n_e=n_e)
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
    returning (card key, edge key)."""
    request = link.carry(USER, GATEWAY, dhs_login(card, card.uid, password, src), LoginRequest.decode)
    challenge = dhs_edge_verify(edge, request, src)
    card_key, edge_key, _ = dhs_session_agree(link, card, edge, challenge)
    return card_key, edge_key

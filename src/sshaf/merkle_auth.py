"""Mutual authentication bound to a Merkle-committed transaction history.

Both parties hold a shared key, a transaction counter, and a Merkle tree
over the handshake history. Freshness comes from the counter plus per-run
nonces -- no clocks -- and the gateway keeps only live protocol state, never
a table of password-derived verifiers. The handshake is four messages:

    M1  user -> gateway   uid, nonce, counter
    M2  gateway -> user   nonce, latest-leaf proof, root, key tag
    M3  user -> gateway   response tag
    M4  gateway -> user   confirmation tag under the new session key

After each completed run both sides append a new history leaf, advance the
counter, and ratchet the shared key forward, so a later state capture
cannot recover earlier session keys. Appending a leaf updates only the
tree's right spine, so a handshake over an n-leaf history costs O(log n)
hashes; the updated levels equal a full rebuild, so roots and proofs are
those of the tree built from scratch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import (
    AlreadyRegistered,
    Busy,
    ConfirmFailed,
    CounterDesync,
    EmptyTree,
    GatewayAuthFailed,
    HistoryMismatch,
    IndexOutOfRange,
    MalformedPacket,
    UnknownUser,
    UserAuthFailed,
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
    random_nonce,
    sha256_many,
)

LEFT = "left"
RIGHT = "right"


# --- Merkle tree ---------------------------------------------------------

@dataclass
class MerkleProof:
    """Authentication path: sibling digests with their side per level."""

    leaf_index: int
    siblings: list[tuple[Digest256, str]]


@dataclass
class MerkleTree:
    """Binary hash tree; an unpaired node is promoted unhashed.

    ``levels`` is built once from ``leaves`` and then kept up to date by
    :meth:`append`, which touches only the right spine: at most
    ceil(log2 n) hashes per append. After every append ``levels`` equals a
    full rebuild, ``_build_levels(leaves)``, element for element.
    """

    leaves: list[Digest256]
    levels: list[list[Digest256]] = field(init=False)

    def __post_init__(self):
        self.levels = _build_levels(self.leaves)

    @property
    def root(self) -> Digest256:
        return self.levels[-1][0]

    def append(self, leaf: Digest256) -> None:
        self.leaves.append(leaf)
        node, idx = leaf, len(self.levels[0])
        self.levels[0].append(leaf)
        depth = 0
        while len(self.levels[depth]) > 1:
            # The one parent the new node changes: a pair when the node is
            # a right child, the node itself promoted when it is unpaired.
            if idx % 2:
                node = _combine(self.levels[depth][idx - 1], node)
            idx //= 2
            depth += 1
            if depth == len(self.levels):
                self.levels.append([])
            parents = self.levels[depth]
            if idx < len(parents):
                parents[idx] = node
            else:
                parents.append(node)


def _combine(left: Digest256, right: Digest256) -> Digest256:
    return hash_bytes(left.bytes + right.bytes)


def merkle_levels(nodes: list[bytes]) -> list[list[bytes]]:
    """Every level over raw 32-byte digests, leaves first and root last.

    Each level's pairs are hashed in one batch; an unpaired last node is
    promoted unhashed.
    """
    if not nodes:
        raise EmptyTree("tree needs at least one leaf")
    levels = [list(nodes)]
    while len(levels[-1]) > 1:
        current = levels[-1]
        nxt = sha256_many([current[i] + current[i + 1] for i in range(0, len(current) - 1, 2)])
        if len(current) % 2 == 1:
            nxt.append(current[-1])
        levels.append(nxt)
    return levels


def merkle_root(nodes: list[bytes]) -> bytes:
    """Raw root over raw 32-byte leaf digests."""
    return merkle_levels(nodes)[-1][0]


def _build_levels(leaves: list[Digest256]) -> list[list[Digest256]]:
    levels = merkle_levels([leaf.bytes for leaf in leaves])
    return [list(leaves)] + [[Digest256(node) for node in level] for level in levels[1:]]


def mht_prove(tree: MerkleTree, leaf_index: int) -> MerkleProof:
    if not 0 <= leaf_index < len(tree.leaves):
        raise IndexOutOfRange(f"leaf {leaf_index} of {len(tree.leaves)}")
    siblings: list[tuple[Digest256, str]] = []
    idx = leaf_index
    for level in tree.levels[:-1]:
        if idx % 2 == 0:
            if idx + 1 < len(level):
                siblings.append((level[idx + 1], RIGHT))
        else:
            siblings.append((level[idx - 1], LEFT))
        idx //= 2
    return MerkleProof(leaf_index, siblings)


def mht_verify(root: Digest256, leaf: Digest256, proof: MerkleProof) -> bool:
    current = leaf
    for sibling, side in proof.siblings:
        if side == RIGHT:
            current = _combine(current, sibling)
        elif side == LEFT:
            current = _combine(sibling, current)
        else:
            return False
    return current == root


# --- handshake messages --------------------------------------------------
# Wire layout: 1-byte type tag, variable fields with 2-byte big-endian
# length prefixes, counters as 8-byte big-endian, digests/nonces raw.
# Decoders accept exactly the bytes their encoder produces and raise
# MalformedPacket on anything else.

M1_TYPE, M2_TYPE, M3_TYPE, M4_TYPE = 1, 2, 3, 4
M2_HEADER_LEN = 87  # tag, n_g, root, tag, leaf index, sibling count
SIBLING_LEN = 33  # side byte, digest


def _check_frame(data: bytes, type_tag: int, length: int) -> None:
    if not data or data[0] != type_tag:
        raise MalformedPacket(f"not an M{type_tag} frame")
    if len(data) != length:
        raise MalformedPacket(f"M{type_tag} frame is {len(data)} bytes, expected {length}")


@dataclass
class MhtM1:
    uid: str
    n_u: Nonce128
    counter: int

    def encode(self) -> bytes:
        uid_bytes = self.uid.encode()
        return (
            bytes([M1_TYPE])
            + struct.pack(">H", len(uid_bytes))
            + uid_bytes
            + self.n_u.bytes
            + struct.pack(">Q", self.counter)
        )

    @classmethod
    def decode(cls, data: bytes) -> "MhtM1":
        uid_len = int.from_bytes(data[1:3], "big")
        _check_frame(data, M1_TYPE, 3 + uid_len + 16 + 8)
        off = 3
        try:
            uid = data[off : off + uid_len].decode()
        except UnicodeDecodeError:
            raise MalformedPacket("M1 uid is not UTF-8") from None
        off += uid_len
        n_u = Nonce128(data[off : off + 16])
        off += 16
        (counter,) = struct.unpack_from(">Q", data, off)
        return cls(uid, n_u, counter)


@dataclass
class MhtM2:
    n_g: Nonce128
    proof: MerkleProof
    root: Digest256
    tag: Digest256

    def encode(self) -> bytes:
        out = bytearray([M2_TYPE])
        out += self.n_g.bytes
        out += self.root.bytes
        out += self.tag.bytes
        out += struct.pack(">IH", self.proof.leaf_index, len(self.proof.siblings))
        for digest, side in self.proof.siblings:
            out += bytes([0 if side == LEFT else 1]) + digest.bytes
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "MhtM2":
        n_sib = int.from_bytes(data[M2_HEADER_LEN - 2 : M2_HEADER_LEN], "big")
        _check_frame(data, M2_TYPE, M2_HEADER_LEN + SIBLING_LEN * n_sib)
        off = 1
        n_g = Nonce128(data[off : off + 16])
        off += 16
        root = Digest256(data[off : off + 32])
        off += 32
        tag = Digest256(data[off : off + 32])
        off += 32
        (leaf_index,) = struct.unpack_from(">I", data, off)
        off = M2_HEADER_LEN
        siblings = []
        for _ in range(n_sib):
            if data[off] not in (0, 1):
                raise MalformedPacket(f"M2 sibling side byte {data[off]}")
            side = LEFT if data[off] == 0 else RIGHT
            digest = Digest256(data[off + 1 : off + SIBLING_LEN])
            siblings.append((digest, side))
            off += SIBLING_LEN
        return cls(n_g, MerkleProof(leaf_index, siblings), root, tag)


@dataclass
class MhtM3:
    tag_u: Digest256

    def encode(self) -> bytes:
        return bytes([M3_TYPE]) + self.tag_u.bytes

    @classmethod
    def decode(cls, data: bytes) -> "MhtM3":
        _check_frame(data, M3_TYPE, 33)
        return cls(Digest256(data[1:]))


@dataclass
class MhtM4:
    tag_g2: Digest256

    def encode(self) -> bytes:
        return bytes([M4_TYPE]) + self.tag_g2.bytes

    @classmethod
    def decode(cls, data: bytes) -> "MhtM4":
        _check_frame(data, M4_TYPE, 33)
        return cls(Digest256(data[1:]))


# --- protocol state ------------------------------------------------------

@dataclass
class MhtPendingUser:
    n_u: Nonce128
    n_g: Nonce128 | None = None
    root: Digest256 | None = None
    candidate_key: Key256 | None = None


@dataclass
class MhtPendingGateway:
    n_u: Nonce128
    n_g: Nonce128
    root: Digest256


@dataclass
class MhtUserState:
    uid: str
    shared_key: Key256
    txn_counter: int
    tree: MerkleTree
    pending: MhtPendingUser | None = None


@dataclass
class MhtGatewayState:
    uid: str
    shared_key: Key256
    txn_counter: int
    tree: MerkleTree
    pending: MhtPendingGateway | None = None


def _genesis_leaf(uid: str) -> Digest256:
    return hash_bytes(b"genesis" + uid.encode())


def _txn_leaf(n_u: Nonce128, n_g: Nonce128) -> Digest256:
    return hash_bytes(n_u.bytes + n_g.bytes + b"txn")


def _challenge_tag(key: Key256, n_u: Nonce128, n_g: Nonce128, root: Digest256) -> Digest256:
    return mac(key, n_u.bytes + n_g.bytes + root.bytes)


def _response_tag(key: Key256, n_u: Nonce128, n_g: Nonce128, root: Digest256) -> Digest256:
    return mac(key, n_g.bytes + n_u.bytes + root.bytes + b"u")


def _session_key(key: Key256, n_u: Nonce128, n_g: Nonce128, root: Digest256) -> Key256:
    return kdf(key, "sk", n_u.bytes + n_g.bytes + root.bytes)


def _ratchet(key: Key256, n_u: Nonce128, n_g: Nonce128) -> Key256:
    return kdf(key, "mht-ratchet", n_u.bytes + n_g.bytes)


# --- operations ----------------------------------------------------------

def mht_register(
    registry: dict[str, MhtGatewayState], uid: str, master_secret: Key256
) -> tuple[MhtUserState, MhtGatewayState]:
    """Provision symmetric state on both sides; the trees start with a
    single genesis leaf and the counter at zero."""
    if uid in registry:
        raise AlreadyRegistered(uid)
    shared = kdf(master_secret, "mht-user", uid.encode())
    genesis = _genesis_leaf(uid)
    user = MhtUserState(uid, shared, 0, MerkleTree([genesis]))
    gateway = MhtGatewayState(uid, shared, 0, MerkleTree([genesis]))
    registry[uid] = gateway
    return user, gateway


def mht_auth_initiate(user: MhtUserState, src: RandomSource) -> MhtM1:
    if user.pending is not None:
        raise Busy(f"handshake already pending for {user.uid}")
    n_u = random_nonce(src)
    user.pending = MhtPendingUser(n_u=n_u)
    return MhtM1(user.uid, n_u, user.txn_counter)


def mht_auth_challenge(
    registry: dict[str, MhtGatewayState], m1: MhtM1, src: RandomSource
) -> MhtM2:
    gateway = registry.get(m1.uid)
    if gateway is None:
        raise UnknownUser(m1.uid)
    if m1.counter != gateway.txn_counter:
        raise CounterDesync(gateway.txn_counter, gateway.tree.root)
    n_g = random_nonce(src)
    root = gateway.tree.root
    gateway.pending = MhtPendingGateway(n_u=m1.n_u, n_g=n_g, root=root)
    proof = mht_prove(gateway.tree, len(gateway.tree.leaves) - 1)
    tag = _challenge_tag(gateway.shared_key, m1.n_u, n_g, root)
    return MhtM2(n_g, proof, root, tag)


def mht_auth_respond(user: MhtUserState, m2: MhtM2) -> MhtM3:
    if user.pending is None:
        raise ConfirmFailed("no handshake pending")
    n_u = user.pending.n_u
    if m2.root != user.tree.root:
        user.pending = None
        raise HistoryMismatch("gateway root differs from local history")
    if m2.tag != _challenge_tag(user.shared_key, n_u, m2.n_g, m2.root):
        user.pending = None
        raise GatewayAuthFailed("challenge tag invalid")
    latest = user.tree.leaves[-1]
    if not mht_verify(m2.root, latest, m2.proof):
        user.pending = None
        raise GatewayAuthFailed("history proof invalid")
    user.pending.n_g = m2.n_g
    user.pending.root = m2.root
    user.pending.candidate_key = _session_key(user.shared_key, n_u, m2.n_g, m2.root)
    return MhtM3(_response_tag(user.shared_key, n_u, m2.n_g, m2.root))


def mht_auth_finalize(
    registry: dict[str, MhtGatewayState], uid: str, m3: MhtM3
) -> tuple[MhtM4, Key256]:
    gateway = registry.get(uid)
    if gateway is None:
        raise UnknownUser(uid)
    if gateway.pending is None:
        raise UserAuthFailed("no handshake pending")
    pend = gateway.pending
    if m3.tag_u != _response_tag(gateway.shared_key, pend.n_u, pend.n_g, pend.root):
        gateway.pending = None
        raise UserAuthFailed("response tag invalid")
    session = _session_key(gateway.shared_key, pend.n_u, pend.n_g, pend.root)
    # Commit: new history leaf, counter, and key ratchet.
    gateway.tree.append(_txn_leaf(pend.n_u, pend.n_g))
    gateway.txn_counter += 1
    gateway.shared_key = _ratchet(gateway.shared_key, pend.n_u, pend.n_g)
    gateway.pending = None
    return MhtM4(mac(session, b"confirm")), session


def mht_confirm(user: MhtUserState, m4: MhtM4) -> Key256:
    if user.pending is None or user.pending.candidate_key is None:
        raise ConfirmFailed("no pending candidate key")
    session = user.pending.candidate_key
    if m4.tag_g2 != mac(session, b"confirm"):
        user.pending = None
        raise ConfirmFailed("confirmation tag invalid")
    pend = user.pending
    user.tree.append(_txn_leaf(pend.n_u, pend.n_g))
    user.txn_counter += 1
    user.shared_key = _ratchet(user.shared_key, pend.n_u, pend.n_g)
    user.pending = None
    return session


def mht_handshake(
    link, user: MhtUserState, registry: dict[str, MhtGatewayState], src: RandomSource
) -> tuple[Key256, Key256]:
    """M1 to M4 over ``link``, returning (user key, gateway key).

    A run that fails before the gateway commits (a lost or rejected M1-M3)
    drops the user's pending run, so the next run can start. Once the
    gateway has committed, a lost M4 leaves the pending run in place: its
    candidate is what a resync would have to confirm."""
    m1 = mht_auth_initiate(user, src)  # a Busy here is an earlier run's: keep its pending
    try:
        m1 = link.carry(USER, GATEWAY, m1, MhtM1.decode)
        m2 = link.carry(GATEWAY, USER, mht_auth_challenge(registry, m1, src), MhtM2.decode)
        m3 = link.carry(USER, GATEWAY, mht_auth_respond(user, m2), MhtM3.decode)
        m4, gateway_key = mht_auth_finalize(registry, user.uid, m3)
    except BaseException:
        user.pending = None
        raise
    user_key = mht_confirm(user, link.carry(GATEWAY, USER, m4, MhtM4.decode))
    return user_key, gateway_key

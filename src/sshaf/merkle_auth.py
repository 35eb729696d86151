"""Mutual authentication bound to a Merkle-committed transaction history.

Both parties hold a shared key, a transaction counter, and the Merkle root
of the handshake history. Freshness comes from the counter plus per-run
nonces -- no clocks -- and the gateway keeps only live protocol state, never
a table of password-derived verifiers. The handshake is four messages:

    M1  user -> gateway   uid, nonce, counter
    M2  gateway -> user   nonce, latest-leaf proof, root, key tag
    M3  user -> gateway   response tag
    M4  gateway -> user   confirmation tag under the new session key

After each completed run both sides append a new history leaf, advance the
counter, and ratchet the shared key forward, so a later state capture
cannot recover earlier session keys.

The handshake only ever proves the latest leaf, so each side keeps its
history as a ``MerkleHistory``: the latest leaf, its path inside its peak
and the tree's peaks, O(log n) digests for n leaves. Appending a leaf costs
O(log n) hashes, and roots and proofs are those of the full tree built from
scratch. The user's device keeps nothing more; the gateway also keeps the
plain leaf log, which is what it persists.
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
    MalformedPacket,
    UnknownUser,
    UserAuthFailed,
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
    sha256_many,
)


# --- Merkle history -----------------------------------------------------
# The history is a binary hash tree over the leaves in order, built level by
# level; an unpaired last node is promoted unhashed. Such a tree over n
# leaves is a row of perfect subtrees, the peaks, one for each set bit of n.
# With P_0 the largest peak and P_m the smallest, the root folds them from
# the smallest up: root = H(P_0 || H(P_1 || ... H(P_m-1 || P_m))). The
# latest leaf is the last leaf of P_m, so every sibling on its path is a
# left one: first its tz(n) siblings inside P_m, then the other peaks from
# the smallest up (tz(n) = trailing zero bits of n).

@dataclass
class MerkleProof:
    """The latest leaf's authentication path: its sibling digests, bottom
    up. Each is a left sibling, so the proof carries no sides."""

    leaf_index: int
    siblings: list[Digest256]


@dataclass
class MerkleHistory:
    """The history as a compact range (RFC 9162's tree; Crosby and Wallach,
    USENIX Security 2009): enough to append and to prove the latest leaf,
    which is all the handshake proves, in O(log n) digests.

    ``path`` holds the latest leaf's left siblings inside its peak, bottom
    up, and ``peaks`` every peak from the smallest up; the first is the
    latest leaf's own, kept so an append needs no hash to rebuild it.
    ``path + peaks[1:]`` are the latest leaf's proof siblings. ``root`` is
    cached at each change. An append costs popcount(n) hashes for a history
    of n leaves, the same as updating the right spine of the full tree.
    """

    count: int
    latest: Digest256
    path: list[Digest256]
    peaks: list[Digest256]
    root: Digest256 = field(init=False)

    def __post_init__(self):
        self.root = _fold(self.peaks[0], self.peaks[1:])

    @classmethod
    def from_range(cls, count: int, digests: list[Digest256]) -> "MerkleHistory":
        """The history of ``count`` leaves from :meth:`compact_range`'s
        digests, at most 2·log2(count) hashes. Raises ``ValueError`` unless
        there are exactly 1 + tz(count) + popcount(count) - 1 of them."""
        in_peak = _trailing_zeros(count)
        if count < 1 or len(digests) != in_peak + count.bit_count():
            raise ValueError(f"a history of {count} leaves is not {len(digests)} digests")
        latest, path, others = digests[0], digests[1 : 1 + in_peak], digests[1 + in_peak :]
        return cls(count, latest, path, [_fold(latest, path), *others])

    @classmethod
    def from_leaves(cls, leaves: list[Digest256]) -> "MerkleHistory":
        """The history of ``leaves``: n - 1 hashes, as a full tree build."""
        raw, n = [leaf.bytes for leaf in leaves], len(leaves)
        if not n:
            raise EmptyTree("a history needs at least one leaf")
        peaks, start = [], 0
        for bit in reversed(range(n.bit_length())):
            if n >> bit & 1:
                levels = merkle_levels(raw[start : start + (1 << bit)])
                peaks.append(Digest256(levels[-1][0]))
                start += 1 << bit
        path = [Digest256(level[-2]) for level in levels[:-1]]
        return cls(n, leaves[-1], path, peaks[::-1])

    def compact_range(self) -> list[Digest256]:
        """The latest leaf, then its proof's siblings: what
        :meth:`from_range` needs besides the count."""
        return [self.latest, *self.path, *self.peaks[1:]]

    def proof(self) -> MerkleProof:
        """The latest leaf's authentication path."""
        return MerkleProof(self.count - 1, self.path + self.peaks[1:])

    def append(self, leaf: Digest256) -> None:
        # The new leaf merges with one peak per trailing one bit of count,
        # smallest first; those peaks are its new path.
        merged = _trailing_zeros(self.count + 1)
        self.path = self.peaks[:merged]
        self.peaks = [_fold(leaf, self.path), *self.peaks[merged:]]
        self.latest = leaf
        self.count += 1
        self.root = _fold(self.peaks[0], self.peaks[1:])


def _trailing_zeros(n: int) -> int:
    return (n & -n).bit_length() - 1


def _fold(node: Digest256, lefts: list[Digest256]) -> Digest256:
    """``node`` hashed under each of ``lefts`` in turn, each on the left."""
    for left in lefts:
        node = hash_bytes(left.bytes + node.bytes)
    return node


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


def mht_verify(root: Digest256, leaf: Digest256, proof: MerkleProof) -> bool:
    return _fold(leaf, proof.siblings) == root


# --- handshake messages --------------------------------------------------
# Wire layout: 1-byte type tag, uids as ``link.pack_uid`` writes them,
# counters as 8-byte big-endian, digests/nonces raw. Each decoder reads with
# a ``link.Reader``. M2 writes each proof sibling after a side byte, which
# is always 0 (left): a latest-leaf proof has no right sibling, and the
# decoder rejects any other side byte.

M1_TYPE, M2_TYPE, M3_TYPE, M4_TYPE = 1, 2, 3, 4


@dataclass
class MhtM1:
    uid: str
    n_u: Nonce128
    counter: int

    def encode(self) -> bytes:
        return bytes([M1_TYPE]) + pack_uid(self.uid) + self.n_u.bytes + struct.pack(">Q", self.counter)

    @classmethod
    def decode(cls, data: bytes) -> "MhtM1":
        r = Reader(data, "M1").tagged(M1_TYPE)
        return r.done(cls(r.uid(), Nonce128(r.take(16)), r.int(8)))


@dataclass
class MhtM2:
    n_g: Nonce128
    proof: MerkleProof
    root: Digest256
    tag: Digest256

    def encode(self) -> bytes:
        siblings = self.proof.siblings
        header = struct.pack(
            ">B16s32s32sIH", M2_TYPE, self.n_g.bytes, self.root.bytes, self.tag.bytes,
            self.proof.leaf_index, len(siblings),
        )
        return header + b"".join(b"\x00" + digest.bytes for digest in siblings)

    @classmethod
    def decode(cls, data: bytes) -> "MhtM2":
        r = Reader(data, "M2").tagged(M2_TYPE)
        n_g, root, tag = Nonce128(r.take(16)), Digest256(r.take(32)), Digest256(r.take(32))
        leaf_index, siblings = r.int(4), []
        for _ in range(r.int(2)):
            if r.int(1):
                raise MalformedPacket("an M2 sibling's side byte is not 0 (left)")
            siblings.append(Digest256(r.take(32)))
        return r.done(cls(n_g, MerkleProof(leaf_index, siblings), root, tag))


@dataclass
class MhtM3:
    tag_u: Digest256

    def encode(self) -> bytes:
        return bytes([M3_TYPE]) + self.tag_u.bytes

    @classmethod
    def decode(cls, data: bytes) -> "MhtM3":
        r = Reader(data, "M3").tagged(M3_TYPE)
        return r.done(cls(Digest256(r.take(32))))


@dataclass
class MhtM4:
    tag_g2: Digest256

    def encode(self) -> bytes:
        return bytes([M4_TYPE]) + self.tag_g2.bytes

    @classmethod
    def decode(cls, data: bytes) -> "MhtM4":
        r = Reader(data, "M4").tagged(M4_TYPE)
        return r.done(cls(Digest256(r.take(32))))


# --- protocol state ------------------------------------------------------

@dataclass
class MhtPendingUser:
    n_u: Nonce128
    n_g: Nonce128 | None = field(default=None, init=False)
    candidate_key: Key256 | None = field(default=None, init=False)


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
    history: MerkleHistory
    pending: MhtPendingUser | None = field(default=None, init=False)


@dataclass
class MhtGatewayState:
    uid: str
    shared_key: Key256
    txn_counter: int
    history: MerkleHistory
    leaves: list[Digest256]  # the plain leaf log, which the gateway persists
    pending: MhtPendingGateway | None = field(default=None, init=False)


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
    """Provision symmetric state on both sides; the histories start with a
    single genesis leaf and the counter at zero."""
    if uid in registry:
        raise AlreadyRegistered(uid)
    shared = kdf(master_secret, "mht-user", uid.encode())
    genesis = _genesis_leaf(uid)
    user = MhtUserState(uid, shared, 0, MerkleHistory(1, genesis, [], [genesis]))
    gateway = MhtGatewayState(uid, shared, 0, MerkleHistory(1, genesis, [], [genesis]), [genesis])
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
        raise CounterDesync(gateway.txn_counter, gateway.history.root)
    n_g = random_nonce(src)
    root = gateway.history.root
    gateway.pending = MhtPendingGateway(n_u=m1.n_u, n_g=n_g, root=root)
    proof = gateway.history.proof()
    tag = _challenge_tag(gateway.shared_key, m1.n_u, n_g, root)
    return MhtM2(n_g, proof, root, tag)


def mht_auth_respond(user: MhtUserState, m2: MhtM2) -> MhtM3:
    if user.pending is None:
        raise ConfirmFailed("no handshake pending")
    n_u = user.pending.n_u
    if m2.root != user.history.root:
        user.pending = None
        raise HistoryMismatch("gateway root differs from local history")
    if m2.tag != _challenge_tag(user.shared_key, n_u, m2.n_g, m2.root):
        user.pending = None
        raise GatewayAuthFailed("challenge tag invalid")
    if not mht_verify(m2.root, user.history.latest, m2.proof):
        user.pending = None
        raise GatewayAuthFailed("history proof invalid")
    user.pending.n_g = m2.n_g
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
    leaf = _txn_leaf(pend.n_u, pend.n_g)
    gateway.history.append(leaf)
    gateway.leaves.append(leaf)
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
    user.history.append(_txn_leaf(pend.n_u, pend.n_g))
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

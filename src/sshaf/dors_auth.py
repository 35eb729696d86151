"""Few-time hash signatures over a forest of one-time key trees.

Each message, together with an evolving chain value, selects a random
subset of k one-time secrets to reveal; every verified signature is folded
back into the chain, so consecutive signatures are ordered and a replayed
signature can never match the advanced chain. Trees rotate automatically
once their signature budget is spent.

The handshake wrapper mixes a provisioned link key into the session key
and ratchets it per run: the chain value itself is recomputable from
public transcripts, so it can order and bind signatures but must never be
the only secret behind a session key.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field

from .errors import AuthFailed, ForestExhausted, InvalidParams, MalformedPacket
from .link import GATEWAY, USER
from .merkle_auth import merkle_root
from .primitives import (
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    kdf,
    kdf_many,
    random_nonce,
    sha256_many,
)


@dataclass(frozen=True)
class DorsParams:
    """t leaves per tree (power of two), k-subset signatures, f trees,
    r signatures per tree. The reveal budget r*k stays under t/2."""

    t: int = 256
    k: int = 16
    f: int = 8
    r: int = 8

    def __post_init__(self):
        if self.t < 2 or self.t & (self.t - 1):
            raise InvalidParams(f"t must be a power of two >= 2, got {self.t}")
        if not 1 <= self.k <= self.t:
            raise InvalidParams(f"k must be in 1..t, got {self.k}")
        if self.k * self.log2_t > 256:
            raise InvalidParams("k*log2(t) must fit in one 256-bit digest")
        if self.f < 1 or self.r < 1:
            raise InvalidParams("f and r must be positive")
        if self.r * self.k > self.t // 2:
            raise InvalidParams("reveal budget r*k exceeds t/2")

    @property
    def log2_t(self) -> int:
        return self.t.bit_length() - 1

    @property
    def max_signatures(self) -> int:
        return self.f * self.r


@dataclass
class ChainState:
    """Digest threaded through consecutive signatures; both parties
    advance it identically on each verified signature."""

    value: Digest256
    signature_count: int = 0

    def advanced(self, sig_wire: bytes) -> "ChainState":
        return ChainState(hash_bytes(self.value.bytes + sig_wire), self.signature_count + 1)


@dataclass
class DorsSignature:
    tree_index: int
    subset_indices: list[int]
    reveals: list[Key256]

    def encode(self) -> bytes:
        out = bytearray(struct.pack(">H", self.tree_index))
        for idx in self.subset_indices:
            out += struct.pack(">H", idx)
        for reveal in self.reveals:
            out += reveal.bytes
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, params: DorsParams) -> "DorsSignature":
        expected = 2 + params.k * 2 + params.k * 32
        if len(data) != expected:
            raise MalformedPacket(f"signature must be {expected} bytes, got {len(data)}")
        (tree_index,) = struct.unpack_from(">H", data, 0)
        indices = list(struct.unpack_from(f">{params.k}H", data, 2))
        off = 2 + params.k * 2
        reveals = [Key256(data[off + i * 32 : off + (i + 1) * 32]) for i in range(params.k)]
        return cls(tree_index, indices, reveals)


@dataclass
class DorsSecretKey:
    """Secrets are re-derived from the forest seed on demand, never stored
    expanded."""

    params: DorsParams
    forest_seed: Key256
    active_tree: int = 0
    used_signatures: int = 0  # signatures spent in the active tree
    revealed: dict[int, set[int]] = field(default_factory=dict)


@dataclass
class DorsPublicKey:
    """``leaf_digests[tree]`` packs that tree's t leaf digests into one
    t*32-byte string: leaf i is bytes ``32*i .. 32*i+32``."""

    params: DorsParams
    leaf_digests: list[bytes]
    roots: list[Digest256]


def _leaf_secrets(seed: Key256, tree: int, leaves) -> list[bytes]:
    """One-time secrets of ``leaves`` in ``tree``: kdf(seed, "leaf",
    tree || leaf as two big-endian 16-bit words), in one keyed batch."""
    return kdf_many(seed, "leaf", [struct.pack(">HH", tree, leaf) for leaf in leaves])


def dors_keygen(seed: Key256, params: DorsParams) -> tuple[DorsSecretKey, DorsPublicKey, ChainState]:
    """Deterministic key expansion; the initial chain value commits to the
    whole public forest.

    Each tree is derived in batches over raw bytes: its t leaf secrets in
    one keyed ``kdf_many``, their SHA-256 leaf digests in one
    ``sha256_many``, packed into the tree's t*32-byte string, and the
    tree's Merkle root folded from those digests. ``METER`` counts
    f*(2t-1)+1 hashes and f*t macs, as one call per leaf would.
    """
    leaf_digests = []
    roots = []
    for tree in range(params.f):
        digests = sha256_many(_leaf_secrets(seed, tree, range(params.t)))
        leaf_digests.append(b"".join(digests))
        roots.append(Digest256(merkle_root(digests)))
    pk = DorsPublicKey(params, leaf_digests, roots)
    genesis = hash_bytes(b"dors-genesis" + b"".join(r.bytes for r in roots))
    return DorsSecretKey(params, seed), pk, ChainState(genesis)


def dors_subset(message: bytes, chain: ChainState, params: DorsParams) -> list[int]:
    """k indices below t, read as consecutive log2(t)-bit chunks of
    hash(message || chain value), most-significant bits first."""
    digest = hash_bytes(message + chain.value.bytes)
    acc = int.from_bytes(digest.bytes, "big")
    bits = params.log2_t
    indices = []
    for i in range(params.k):
        shift = 256 - (i + 1) * bits
        indices.append((acc >> shift) & (params.t - 1))
    return indices


def dors_sign(
    sk: DorsSecretKey, chain: ChainState, message: bytes
) -> tuple[DorsSignature, ChainState]:
    """Reveal the subset the message selects; advances the signer's budget
    and returns the advanced chain. Rotates to the next tree when the
    active one is spent."""
    params = sk.params
    if sk.used_signatures >= params.r:
        if sk.active_tree + 1 >= params.f:
            raise ForestExhausted("all trees spent; rekey required")
        sk.active_tree += 1
        sk.used_signatures = 0
    tree = sk.active_tree
    indices = dors_subset(message, chain, params)
    reveals = [Key256(secret) for secret in _leaf_secrets(sk.forest_seed, tree, indices)]
    sk.revealed.setdefault(tree, set()).update(indices)
    sk.used_signatures += 1
    sig = DorsSignature(tree, indices, reveals)
    return sig, chain.advanced(sig.encode())


def dors_verify(
    pk: DorsPublicKey, chain: ChainState, message: bytes, sig: DorsSignature
) -> tuple[bool, ChainState]:
    """True iff the subset matches this chain state and every revealed
    secret hashes to the published leaf digest. The chain advances only on
    success."""
    params = pk.params
    # The signer rotates exactly every r signatures; tolerate one early
    # rotation but never a tree outside the forest.
    expected_tree = chain.signature_count // params.r
    if sig.tree_index not in (expected_tree, expected_tree + 1) or sig.tree_index >= params.f:
        return False, chain
    if len(sig.subset_indices) != params.k or len(sig.reveals) != params.k:
        return False, chain
    if sig.subset_indices != dors_subset(message, chain, params):
        return False, chain
    tree_digests = pk.leaf_digests[sig.tree_index]
    for idx, reveal in zip(sig.subset_indices, sig.reveals):
        if idx >= params.t:
            return False, chain
        published = tree_digests[32 * idx : 32 * idx + 32]
        if not hmac.compare_digest(hash_bytes(reveal.bytes).bytes, published):
            return False, chain
    return True, chain.advanced(sig.encode())


# --- handshake wrapper -----------------------------------------------------

@dataclass
class DorsUserSide:
    uid: str
    secret_key: DorsSecretKey
    chain: ChainState
    link_key: Key256


@dataclass
class DorsGatewaySide:
    uid: str
    public_key: DorsPublicKey
    chain: ChainState
    link_key: Key256


def dors_provision(
    uid: str, master_secret: Key256, params: DorsParams | None = None
) -> tuple[DorsUserSide, DorsGatewaySide]:
    """Expand a per-user forest and link key from the gateway master secret."""
    params = params or DorsParams()
    seed = kdf(master_secret, "dors-seed", uid.encode())
    link = kdf(master_secret, "dors-link", uid.encode())
    sk, pk, chain = dors_keygen(seed, params)
    return (
        DorsUserSide(uid, sk, chain, link),
        DorsGatewaySide(uid, pk, ChainState(chain.value, 0), link),
    )


def dors_challenge(src: RandomSource) -> Nonce128:
    return random_nonce(src)


def _session_key(link_key: Key256, challenge: Nonce128, chain: ChainState) -> Key256:
    return kdf(link_key, "dors-sk", challenge.bytes + chain.value.bytes)


def _ratchet(link_key: Key256, chain: ChainState) -> Key256:
    return kdf(link_key, "dors-ratchet", chain.value.bytes)


def dors_respond(user: DorsUserSide, challenge: Nonce128) -> tuple[DorsSignature, Key256]:
    """Sign the challenge; the user commits (chain, budget, link ratchet)
    at signing time, so a rejected run leaves the sides desynchronized and
    needing re-provisioning."""
    message = challenge.bytes + user.uid.encode()
    sig, new_chain = dors_sign(user.secret_key, user.chain, message)
    user.chain = new_chain
    session = _session_key(user.link_key, challenge, new_chain)
    user.link_key = _ratchet(user.link_key, new_chain)
    return sig, session


def dors_gateway_verify(
    gateway: DorsGatewaySide, challenge: Nonce128, sig: DorsSignature
) -> Key256:
    """Verify and derive the matching session key; the gateway's chain and
    link key advance only on success."""
    message = challenge.bytes + gateway.uid.encode()
    ok, new_chain = dors_verify(gateway.public_key, gateway.chain, message, sig)
    if not ok:
        raise AuthFailed("signature rejected; chain not advanced")
    gateway.chain = new_chain
    session = _session_key(gateway.link_key, challenge, new_chain)
    gateway.link_key = _ratchet(gateway.link_key, new_chain)
    return session


def dors_handshake(
    link, user: DorsUserSide, gateway: DorsGatewaySide, src: RandomSource
) -> tuple[Key256, Key256]:
    """Challenge/response run over ``link``, returning (user key, gateway
    key)."""
    challenge = dors_challenge(src)
    sig, user_key = dors_respond(user, link.carry(GATEWAY, USER, challenge, Nonce128))
    params = gateway.public_key.params
    sig = link.carry(USER, GATEWAY, sig, lambda data: DorsSignature.decode(data, params))
    return user_key, dors_gateway_verify(gateway, challenge, sig)

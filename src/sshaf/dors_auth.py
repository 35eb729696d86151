"""Few-time hash signatures over a forest of one-time key trees.

Each message, together with an evolving chain value, selects a random
subset of k one-time secrets to reveal; every verified signature is folded
back into the chain, so consecutive signatures are ordered and a replayed
signature can never match the advanced chain. The chain also counts the
signatures, and both parties sign and verify with the one tree it names,
tree ``signature_count // r``: the signer rotates exactly every r
signatures, and the secret key keeps no counter of its own.

A forest's lifecycle at the gateway: ``dors_verify`` accepts a signature
only from the one tree the chain names. So once a signature verifies with
a tree, every tree below it is spent, and the gateway drops their leaf
digests. While the last tree signs, the gateway builds the next epoch's
forest with ``dors_tree``, ⌈f/r⌉ trees per verified signature, so the
re-key at ``ForestExhausted`` hands ``dors_provision`` a forest already
built, and only the genesis and link key remain to derive. The trees, the
chain and every session key are the same as a forest expanded whole at the
re-key. A gateway restored without some of its trees holds each as
``b""``, and builds the tree the chain names with ``dors_tree`` on first
use.

The handshake wrapper mixes a provisioned link key into the session key
and ratchets it per run: the chain value itself is recomputable from
public transcripts, so it can order and bind signatures but must never be
the only secret behind a session key.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field

from .errors import AuthFailed, ForestExhausted, InvalidParams
from .link import GATEWAY, USER, Reader
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
        if not type(self.t) is type(self.k) is type(self.f) is type(self.r) is int:
            raise InvalidParams(f"t, k, f and r must be integers, got {self}")
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
        words = (self.tree_index, *self.subset_indices)
        return struct.pack(f">{len(words)}H", *words) + b"".join([r.bytes for r in self.reveals])

    @classmethod
    def decode(cls, data: bytes, params: DorsParams) -> "DorsSignature":
        r, k = Reader(data, "signature"), params.k
        tree_index, indices = r.int(2), list(struct.unpack(f">{k}H", r.take(2 * k)))
        return r.done(cls(tree_index, indices, [Key256(r.take(32)) for _ in range(k)]))


@dataclass
class DorsSecretKey:
    """Secrets are re-derived from the forest seed on demand, never stored
    expanded. The tree a signature uses comes from the signer's chain."""

    params: DorsParams
    forest_seed: Key256


@dataclass
class DorsPublicKey:
    """``leaf_digests[tree]`` packs that tree's t leaf digests into one
    t*32-byte string: leaf i is bytes ``32*i .. 32*i+32``."""

    params: DorsParams
    leaf_digests: list[bytes]
    roots: list[Digest256]

    def grow(self, seed: Key256, trees: int) -> None:
        """Append up to ``trees`` more trees of the forest ``seed`` expands,
        in tree order, stopping at f."""
        params = self.params
        for tree in range(len(self.roots), min(params.f, len(self.roots) + trees)):
            digests, root = dors_tree(seed, tree, params)
            self.leaf_digests.append(digests)
            self.roots.append(root)


def _leaf_secrets(seed: Key256, tree: int, leaves) -> list[bytes]:
    """One-time secrets of ``leaves`` in ``tree``: kdf(seed, "leaf",
    tree || leaf as two big-endian 16-bit words), in one keyed batch."""
    return kdf_many(seed, "leaf", [struct.pack(">HH", tree, leaf) for leaf in leaves])


def dors_tree(seed: Key256, tree: int, params: DorsParams) -> tuple[bytes, Digest256]:
    """Tree ``tree`` of the forest ``seed`` expands: its t leaf digests packed
    into one t*32-byte string, and its Merkle root.

    Derived in batches over raw bytes: the t leaf secrets in one keyed
    ``kdf_many``, their SHA-256 leaf digests in one ``sha256_many``, and the
    root folded from those digests. ``METER`` counts 2t-1 hashes and t macs,
    as one call per leaf would.
    """
    digests = sha256_many(_leaf_secrets(seed, tree, range(params.t)))
    return b"".join(digests), Digest256(merkle_root(digests))


def dors_keygen(
    seed: Key256, forest: DorsParams | DorsPublicKey
) -> tuple[DorsSecretKey, DorsPublicKey, ChainState]:
    """Deterministic key expansion; the initial chain value commits to the
    whole public forest.

    ``forest`` is the forest's ``DorsParams``, or a ``DorsPublicKey`` that
    already holds its first trees, as a gateway builds them ahead; only the
    missing trees are built here, each by ``dors_tree``. A whole forest
    counts f*(2t-1)+1 hashes and f*t macs on ``METER``.
    """
    if isinstance(forest, DorsParams):
        forest = DorsPublicKey(forest, [], [])
    params = forest.params
    pk = DorsPublicKey(params, list(forest.leaf_digests), list(forest.roots))
    pk.grow(seed, params.f)
    genesis = hash_bytes(b"dors-genesis" + b"".join(r.bytes for r in pk.roots))
    return DorsSecretKey(params, seed), pk, ChainState(genesis)


def subset_of_digest(digest: bytes, params: DorsParams) -> list[int]:
    """k indices below t, read as consecutive log2(t)-bit chunks of a
    32-byte digest, most-significant bits first."""
    acc = int.from_bytes(digest, "big")
    bits = params.log2_t
    return [(acc >> (256 - (i + 1) * bits)) & (params.t - 1) for i in range(params.k)]


def dors_subset(message: bytes, chain: ChainState, params: DorsParams) -> list[int]:
    """The subset that hash(message || chain value) selects."""
    return subset_of_digest(hash_bytes(message + chain.value.bytes).bytes, params)


def dors_sign(
    sk: DorsSecretKey, chain: ChainState, message: bytes
) -> tuple[DorsSignature, ChainState]:
    """Reveal the subset the message selects from the tree the chain names,
    tree ``signature_count // r``, and return the advanced chain. Raises
    ``ForestExhausted`` once all f trees are spent."""
    params = sk.params
    tree = chain.signature_count // params.r
    if tree >= params.f:
        raise ForestExhausted("all trees spent; rekey required")
    indices = dors_subset(message, chain, params)
    reveals = [Key256(secret) for secret in _leaf_secrets(sk.forest_seed, tree, indices)]
    sig = DorsSignature(tree, indices, reveals)
    return sig, chain.advanced(sig.encode())


def dors_verify(
    pk: DorsPublicKey, chain: ChainState, message: bytes, sig: DorsSignature
) -> tuple[bool, ChainState]:
    """True iff the signature uses the tree the chain names, the subset
    matches this chain state and every revealed secret hashes to the
    published leaf digest. The chain advances only on success."""
    params = pk.params
    if sig.tree_index != chain.signature_count // params.r or sig.tree_index >= params.f:
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
    """``public_key.leaf_digests`` holds ``b""`` for each spent tree the
    gateway has dropped, and for each tree a restored side was not given
    and has not built yet. A side holds no roots of its own forest, which
    nothing reads after provisioning. ``next_forest`` holds the next
    epoch's first trees, built ahead while the last tree signs."""

    uid: str
    public_key: DorsPublicKey
    chain: ChainState
    link_key: Key256
    next_forest: DorsPublicKey = field(init=False)

    def __post_init__(self):
        self.next_forest = DorsPublicKey(self.public_key.params, [], [])


def dors_seed(uid: str, master_secret: Key256) -> Key256:
    """The seed of ``uid``'s forest, derived from the gateway master secret."""
    return kdf(master_secret, "dors-seed", uid.encode())


def dors_provision(
    uid: str, master_secret: Key256, forest: DorsParams | DorsPublicKey | None = None
) -> tuple[DorsUserSide, DorsGatewaySide]:
    """Expand a per-user forest and link key from the gateway master secret.
    ``forest`` is as ``dors_keygen`` takes it (``DorsParams()`` when None):
    trees a gateway built ahead are not built again. The gateway side keeps
    the forest's leaf digests but not its roots, which only the genesis
    chain value reads."""
    seed = dors_seed(uid, master_secret)
    link = kdf(master_secret, "dors-link", uid.encode())
    sk, pk, chain = dors_keygen(seed, forest or DorsParams())
    gateway_pk = DorsPublicKey(pk.params, pk.leaf_digests, [])
    return (
        DorsUserSide(uid, sk, chain, link),
        DorsGatewaySide(uid, gateway_pk, ChainState(chain.value, 0), link),
    )


def dors_challenge(src: RandomSource) -> Nonce128:
    return random_nonce(src)


def _session_key(link_key: Key256, challenge: Nonce128, chain: ChainState) -> Key256:
    return kdf(link_key, "dors-sk", challenge.bytes + chain.value.bytes)


def _ratchet(link_key: Key256, chain: ChainState) -> Key256:
    return kdf(link_key, "dors-ratchet", chain.value.bytes)


def dors_respond(user: DorsUserSide, challenge: Nonce128) -> tuple[DorsSignature, Key256]:
    """Sign the challenge; the user commits (chain and link ratchet) at
    signing time, so a rejected run leaves the sides desynchronized and
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
    sig, user_key = dors_respond(user, link.carry(GATEWAY, USER, challenge, Nonce128.decode))
    params = gateway.public_key.params
    sig = link.carry(USER, GATEWAY, sig, lambda data: DorsSignature.decode(data, params))
    return user_key, dors_gateway_verify(gateway, challenge, sig)

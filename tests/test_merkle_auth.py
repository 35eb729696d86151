"""Merkle history and handshake tests; tree oracles computed with hashlib
directly so they stay independent of the implementation they check."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf import persist
from sshaf.errors import (
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
from sshaf.merkle_auth import (
    MerkleHistory,
    MerkleProof,
    MhtM1,
    MhtM2,
    MhtM3,
    MhtM4,
    mht_auth_challenge,
    mht_auth_finalize,
    mht_auth_initiate,
    mht_auth_respond,
    mht_confirm,
    mht_register,
    mht_verify,
    merkle_root,
)
from sshaf.primitives import METER, Digest256, Key256, Nonce128, RandomSource, hash_bytes


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def four_leaves():
    return [Digest256(sha(b"t" + str(i).encode())) for i in range(4)]


class FullTree:
    """The reference: the full tree over every leaf, each level kept, where
    an unpaired node is promoted unhashed. An append updates the right
    spine, hashing with hashlib and counting its own hashes."""

    def __init__(self, leaf: bytes):
        self.levels = [[leaf]]
        self.hashes = 0

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def append(self, leaf: bytes) -> None:
        node, idx = leaf, len(self.levels[0])
        self.levels[0].append(leaf)
        depth = 0
        while len(self.levels[depth]) > 1:
            if idx % 2:
                node = sha(self.levels[depth][idx - 1] + node)
                self.hashes += 1
            idx //= 2
            depth += 1
            if depth == len(self.levels):
                self.levels.append([])
            parents = self.levels[depth]
            if idx < len(parents):
                parents[idx] = node
            else:
                parents.append(node)


def full_proof(levels: list[list[bytes]], idx: int) -> list[tuple[bytes, str]]:
    """Leaf ``idx``'s path up the full tree's ``levels``: each sibling with
    its side, "left" or "right"."""
    siblings = []
    for level in levels[:-1]:
        if idx % 2:
            siblings.append((level[idx - 1], "left"))
        elif idx + 1 < len(level):
            siblings.append((level[idx + 1], "right"))
        idx //= 2
    return siblings


def latest_leaf_path(levels: list[list[bytes]]) -> list[bytes]:
    """The full tree's path of its last leaf, which holds left siblings only."""
    path = full_proof(levels, len(levels[0]) - 1)
    assert {side for _, side in path} <= {"left"}
    return [digest for digest, _ in path]


def rebuilt_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """The full tree's levels built from scratch, leaves first."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        pairs = [sha(cur[i] + cur[i + 1]) for i in range(0, len(cur) - 1, 2)]
        levels.append(pairs + cur[len(cur) & ~1 :])  # an unpaired last node is promoted
    return levels


def raw_proof(history: MerkleHistory) -> list[bytes]:
    proof = history.proof()
    assert proof.leaf_index == history.count - 1
    return [digest.bytes for digest in proof.siblings]


def test_single_leaf_root_is_leaf():
    leaf = sha(b"only")
    assert merkle_root([leaf]) == leaf


def test_four_leaf_root_matches_hand_computed_oracle():
    raw = [sha(b"t" + str(i).encode()) for i in range(4)]
    expected = sha(sha(raw[0] + raw[1]) + sha(raw[2] + raw[3]))
    assert merkle_root(raw) == expected
    assert MerkleHistory.from_leaves([Digest256(r) for r in raw]).root == Digest256(expected)


def test_empty_leaves_rejected():
    with pytest.raises(EmptyTree):
        merkle_root([])
    with pytest.raises(EmptyTree):
        MerkleHistory.from_leaves([])


def test_root_commits_to_leaf_order():
    leaves = [leaf.bytes for leaf in four_leaves()]
    permuted = [leaves[1], leaves[0], leaves[2], leaves[3]]
    assert merkle_root(leaves) != merkle_root(permuted)


def test_latest_leaf_proof_matches_hand_computed_oracle():
    raw = [sha(b"t" + str(i).encode()) for i in range(4)]
    three = MerkleHistory.from_leaves([Digest256(r) for r in raw[:3]])
    assert three.proof().siblings == [Digest256(sha(raw[0] + raw[1]))]
    four = MerkleHistory.from_leaves([Digest256(r) for r in raw])
    assert four.proof() == MerkleProof(3, [Digest256(raw[2]), Digest256(sha(raw[0] + raw[1]))])


def test_single_leaf_proof_is_empty():
    history = MerkleHistory.from_leaves([Digest256(sha(b"x"))])
    proof = history.proof()
    assert proof.siblings == []
    assert mht_verify(history.root, history.latest, proof)


def test_verify_accepts_honest_proof_and_rejects_wrong_leaf():
    leaves = four_leaves()
    history = MerkleHistory.from_leaves(leaves)
    proof = history.proof()
    assert mht_verify(history.root, leaves[3], proof)
    assert not mht_verify(history.root, hash_bytes(b"x"), proof)


def test_round_trip_all_sizes_against_full_tree():
    # The latest leaf of each size is proved; the full tree's proof of that
    # index is the same list.
    rng = random.Random(1)
    for n in range(1, 65):
        leaves = [rng.randbytes(32) for _ in range(n)]
        history = MerkleHistory.from_leaves([Digest256(leaf) for leaf in leaves])
        levels = rebuilt_levels(leaves)
        assert history.root.bytes == levels[-1][0]
        assert raw_proof(history) == latest_leaf_path(levels)
        assert mht_verify(history.root, history.latest, history.proof())


def mutate(digest: Digest256, pos: int) -> Digest256:
    raw = bytearray(digest.bytes)
    raw[pos] ^= 0x01
    return Digest256(bytes(raw))


def test_single_byte_mutations_break_verification():
    rng = random.Random(2)
    for n in (1, 2, 3, 7, 8, 33, 64):
        history = MerkleHistory.from_leaves([Digest256(rng.randbytes(32)) for _ in range(n)])
        proof, latest = history.proof(), history.latest
        pos = rng.randrange(32)
        assert not mht_verify(history.root, mutate(latest, pos), proof)
        assert not mht_verify(mutate(history.root, pos), latest, proof)
        for s in range(len(proof.siblings)):
            bad = MerkleProof(n - 1, list(proof.siblings))
            bad.siblings[s] = mutate(proof.siblings[s], pos)
            assert not mht_verify(history.root, latest, bad)


# --- handshake ------------------------------------------------------------

MASTER = Key256(b"\x33" * 32)


def fresh_pair(uid="alice", registry=None):
    registry = {} if registry is None else registry
    user, gateway = mht_register(registry, uid, MASTER)
    return user, gateway, registry


def run_handshake(user, registry, src):
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    m3 = mht_auth_respond(user, m2)
    m4, gw_key = mht_auth_finalize(registry, user.uid, m3)
    user_key = mht_confirm(user, m4)
    return user_key, gw_key


def test_register_symmetric_state():
    user, gateway, _ = fresh_pair()
    assert user.history == gateway.history
    assert user.txn_counter == gateway.txn_counter == 0
    assert user.history.count == 1 and gateway.leaves == [user.history.latest]


def test_register_duplicate_uid():
    _, _, registry = fresh_pair()
    with pytest.raises(AlreadyRegistered):
        mht_register(registry, "alice", MASTER)


def test_distinct_uids_get_distinct_keys():
    registry = {}
    user_a, _ = mht_register(registry, "alice", MASTER)
    user_b, _ = mht_register(registry, "bob", MASTER)
    assert user_a.shared_key != user_b.shared_key


def test_initiate_counter_tracks_state():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x01" * 32)
    m1 = mht_auth_initiate(user, src)
    assert m1.counter == 0
    m2 = mht_auth_challenge(registry, m1, src)
    m3 = mht_auth_respond(user, m2)
    m4, _ = mht_auth_finalize(registry, "alice", m3)
    mht_confirm(user, m4)
    m1b = mht_auth_initiate(user, src)
    assert m1b.counter == 1


def test_initiate_twice_is_busy():
    user, _, _ = fresh_pair()
    src = RandomSource.seeded(b"\x01" * 32)
    mht_auth_initiate(user, src)
    with pytest.raises(Busy):
        mht_auth_initiate(user, src)


def test_challenge_unknown_user():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x01" * 32)
    m1 = mht_auth_initiate(user, src)
    m1.uid = "mallory"
    with pytest.raises(UnknownUser):
        mht_auth_challenge(registry, m1, src)


def test_challenge_counter_mismatch():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x01" * 32)
    m1 = mht_auth_initiate(user, src)
    m1.counter = 5
    with pytest.raises(CounterDesync) as exc:
        mht_auth_challenge(registry, m1, src)
    assert exc.value.gateway_counter == 0
    assert exc.value.gateway_root == gateway.history.root


def test_genesis_handshake_has_depth_zero_proof():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x01" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    assert m2.proof.siblings == []


def test_full_handshake_agrees_on_keys_and_state():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x02" * 32)
    user_key, gw_key = run_handshake(user, registry, src)
    assert user_key == gw_key
    assert user.txn_counter == gateway.txn_counter == 1
    assert user.history == gateway.history
    assert gateway.history.count == len(gateway.leaves) == 2


def test_n_handshakes_consistent_and_keys_distinct():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x03" * 32)
    keys = []
    for _ in range(8):
        uk, gk = run_handshake(user, registry, src)
        assert uk == gk
        keys.append(uk.bytes)
    assert user.txn_counter == gateway.txn_counter == 8
    assert user.history == gateway.history
    assert len(set(keys)) == 8


def test_replayed_m1_rejected_after_completion():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x04" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    m3 = mht_auth_respond(user, m2)
    m4, _ = mht_auth_finalize(registry, "alice", m3)
    mht_confirm(user, m4)
    with pytest.raises(CounterDesync):
        mht_auth_challenge(registry, m1, src)


def test_tampered_challenge_tag_fails_mutual_auth():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x05" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    bad = MhtM2(m2.n_g, m2.proof, m2.root, mutate(m2.tag, 0))
    with pytest.raises(GatewayAuthFailed):
        mht_auth_respond(user, bad)


def test_foreign_root_raises_history_mismatch():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x06" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    bad = MhtM2(m2.n_g, m2.proof, hash_bytes(b"other-history"), m2.tag)
    with pytest.raises(HistoryMismatch):
        mht_auth_respond(user, bad)


def test_forged_response_tag_rejected():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x07" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    mht_auth_respond(user, m2)
    with pytest.raises(UserAuthFailed):
        mht_auth_finalize(registry, "alice", MhtM3(hash_bytes(b"forged")))


def test_corrupted_confirmation_leaves_user_uncommitted():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x08" * 32)
    m1 = mht_auth_initiate(user, src)
    m2 = mht_auth_challenge(registry, m1, src)
    m3 = mht_auth_respond(user, m2)
    m4, _ = mht_auth_finalize(registry, "alice", m3)
    with pytest.raises(ConfirmFailed):
        mht_confirm(user, type(m4)(mutate(m4.tag_g2, 3)))
    assert user.txn_counter == 0
    assert gateway.txn_counter == 1  # desync now detectable via CounterDesync


def test_confirm_without_pending():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x09" * 32)
    user_key, _ = run_handshake(user, registry, src)
    with pytest.raises(ConfirmFailed):
        mht_confirm(user, MhtM4(hash_bytes(b"nope")))


def test_message_wire_round_trips():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0b" * 32)
    for _ in range(3):  # grow the tree so proofs are non-trivial
        run_handshake(user, registry, src)
    m1 = mht_auth_initiate(user, src)
    assert type(m1).decode(m1.encode()) == m1
    m2 = mht_auth_challenge(registry, m1, src)
    assert type(m2).decode(m2.encode()) == m2
    m3 = mht_auth_respond(user, m2)
    assert type(m3).decode(m3.encode()) == m3
    m4, _ = mht_auth_finalize(registry, "alice", m3)
    assert type(m4).decode(m4.encode()) == m4
    mht_confirm(user, m4)


# --- incremental append -----------------------------------------------------

def grown_history(n: int, seed: int = 3):
    """Yield one growing history, with its leaves, at every size from 1 to n."""
    rng = random.Random(seed)
    leaves = [Digest256(rng.randbytes(32))]
    history = MerkleHistory.from_leaves(leaves)
    yield history, leaves
    for _ in range(n - 1):
        leaves.append(Digest256(rng.randbytes(32)))
        history.append(leaves[-1])
        yield history, leaves


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_appends_equal_the_full_tree(n, seed):
    # At every size up to n: the root, the latest leaf's proof and the
    # hashes of each append, popcount of the size before it, are the full
    # tree's.
    rng = random.Random(seed)
    leaves = [rng.randbytes(32)]
    history, reference = MerkleHistory.from_leaves([Digest256(leaves[0])]), FullTree(leaves[0])
    while True:
        assert history.root.bytes == reference.root
        assert raw_proof(history) == latest_leaf_path(reference.levels)
        if history.count == n:
            break
        leaves.append(rng.randbytes(32))
        before, reference_before = METER.hash_count, reference.hashes
        history.append(Digest256(leaves[-1]))
        reference.append(leaves[-1])
        assert METER.hash_count - before == reference.hashes - reference_before == (len(leaves) - 1).bit_count()
    assert reference.levels == rebuilt_levels(leaves)


def test_raw_root_equals_digest_roots():
    for history, leaves in grown_history(600):
        raw = merkle_root([leaf.bytes for leaf in leaves])
        assert raw == history.root.bytes, len(leaves)


def test_appended_history_equals_one_built_from_its_leaves():
    for history, leaves in grown_history(600):
        assert history == MerkleHistory.from_leaves(leaves), len(leaves)
        assert history == MerkleHistory.from_range(history.count, history.compact_range())
        assert mht_verify(history.root, leaves[-1], history.proof())


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 225, 525])
def test_range_of_the_wrong_length_is_rejected(n):
    digests = MerkleHistory.from_leaves([hash_bytes(bytes([i % 256, i // 256])) for i in range(n)]).compact_range()
    assert len(digests) == (n & -n).bit_length() - 1 + n.bit_count()
    for bad in (digests[:-1], digests + digests[:1]):
        with pytest.raises(ValueError):
            MerkleHistory.from_range(n, bad)
    with pytest.raises(ValueError):
        MerkleHistory.from_range(0, digests)


def test_restored_histories_append_like_ones_never_persisted():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0c" * 32)
    for _ in range(37):
        run_handshake(user, registry, src)
    restored_user = persist.mht_user_from_dict(persist.mht_state_to_dict(user))
    restored = persist.mht_gateway_from_dict(persist.mht_state_to_dict(gateway))
    assert restored.leaves == gateway.leaves
    rng = random.Random(4)
    for _ in range(40):
        leaf = Digest256(rng.randbytes(32))
        for history in (gateway.history, restored.history, user.history, restored_user.history):
            history.append(leaf)
        assert restored.history == gateway.history == user.history == restored_user.history


def test_restoring_a_user_costs_at_most_two_log_n_hashes():
    user, _, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0e" * 32)
    for n in range(1, 300):
        data = persist.mht_state_to_dict(user)
        before = METER.hash_count
        persist.mht_user_from_dict(data)
        assert METER.hash_count - before <= 2 * math.log2(n), n
        run_handshake(user, registry, src)


def test_handshake_hash_cost_is_logarithmic_in_history():
    # The proof check, plus one new-leaf hash and one append per side.
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0d" * 32)
    for n in range(1, 1025):
        assert len(gateway.leaves) == gateway.history.count == user.history.count == n
        before = METER.hash_count
        run_handshake(user, registry, src)
        hashes = METER.hash_count - before
        assert hashes <= 3 * math.ceil(math.log2(n + 1)) + 2, (n, hashes)


# --- decoders -------------------------------------------------------------------
# The round-trip, truncation and random-bytes properties of every decoder are
# in tests/test_link.py; the cases here are the MHT messages' own.

DECODERS = [(MhtM1, 1), (MhtM2, 2), (MhtM3, 3), (MhtM4, 4)]


def valid_frames():
    """One honest encoding per message, with a non-empty uid and proof."""
    n_u, n_g = Nonce128(b"\x01" * 16), Nonce128(b"\x02" * 16)
    digest = Digest256(b"\x03" * 32)
    proof = MerkleProof(5, [digest, digest])
    return {
        MhtM1: MhtM1("alice", n_u, 7).encode(),
        MhtM2: MhtM2(n_g, proof, digest, digest).encode(),
        MhtM3: MhtM3(digest).encode(),
        MhtM4: MhtM4(digest).encode(),
    }


@pytest.mark.parametrize("cls,type_tag", DECODERS)
def test_each_decoder_rejects_empty_and_wrong_tag_frames(cls, type_tag):
    wire = valid_frames()[cls]
    assert cls.decode(wire).encode() == wire
    for bad in (b"", bytes([type_tag % 4 + 1]) + wire[1:]):
        with pytest.raises(MalformedPacket):
            cls.decode(bad)


def test_m1_rejects_uid_that_is_not_utf8():
    wire = bytearray(valid_frames()[MhtM1])
    wire[3] = 0xFF  # first uid byte
    with pytest.raises(MalformedPacket):
        MhtM1.decode(bytes(wire))


@pytest.mark.parametrize("side", [2, 0x80, 0xFF])
def test_m2_rejects_side_byte_other_than_0_or_1(side):
    wire = bytearray(valid_frames()[MhtM2])
    wire[87] = side  # first sibling's side byte
    with pytest.raises(MalformedPacket):
        MhtM2.decode(bytes(wire))


@pytest.mark.parametrize("sibling", [0, 1])
def test_m2_rejects_a_right_sibling(sibling):
    # A latest-leaf proof has left siblings only, so side byte 1 is malformed.
    wire = bytearray(valid_frames()[MhtM2])
    wire[87 + 33 * sibling] = 1
    with pytest.raises(MalformedPacket):
        MhtM2.decode(bytes(wire))

"""Merkle tree and handshake tests; tree oracles computed with hashlib
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
    IndexOutOfRange,
    MalformedPacket,
    UnknownUser,
    UserAuthFailed,
)
from sshaf.merkle_auth import (
    LEFT,
    RIGHT,
    MerkleProof,
    MerkleTree,
    MhtM1,
    MhtM2,
    MhtM3,
    MhtM4,
    _build_levels,
    mht_auth_challenge,
    mht_auth_finalize,
    mht_auth_initiate,
    mht_auth_respond,
    mht_confirm,
    mht_prove,
    mht_register,
    mht_try_resync,
    mht_verify,
    merkle_root,
)
from sshaf.primitives import METER, Digest256, Key256, Nonce128, RandomSource, hash_bytes


def sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def four_leaves():
    return [Digest256(sha(b"t" + str(i).encode())) for i in range(4)]


def test_single_leaf_root_is_leaf():
    leaf = sha(b"only")
    assert merkle_root([leaf]) == leaf


def test_four_leaf_root_matches_hand_computed_oracle():
    raw = [sha(b"t" + str(i).encode()) for i in range(4)]
    expected = sha(sha(raw[0] + raw[1]) + sha(raw[2] + raw[3]))
    assert merkle_root(raw) == expected


def test_empty_leaves_rejected():
    with pytest.raises(EmptyTree):
        merkle_root([])


def test_root_commits_to_leaf_order():
    leaves = [leaf.bytes for leaf in four_leaves()]
    permuted = [leaves[1], leaves[0], leaves[2], leaves[3]]
    assert merkle_root(leaves) != merkle_root(permuted)


def test_proof_for_index_2_matches_hand_computed_oracle():
    raw = [sha(b"t" + str(i).encode()) for i in range(4)]
    tree = MerkleTree([Digest256(r) for r in raw])
    proof = mht_prove(tree, 2)
    assert proof.siblings == [
        (Digest256(raw[3]), RIGHT),
        (Digest256(sha(raw[0] + raw[1])), LEFT),
    ]


def test_single_leaf_proof_is_empty():
    tree = MerkleTree([Digest256(sha(b"x"))])
    proof = mht_prove(tree, 0)
    assert proof.siblings == []
    assert mht_verify(tree.root, tree.leaves[0], proof)


def test_proof_index_out_of_range():
    tree = MerkleTree(four_leaves())
    with pytest.raises(IndexOutOfRange):
        mht_prove(tree, 4)


def test_verify_accepts_honest_proof_and_rejects_wrong_leaf():
    leaves = four_leaves()
    tree = MerkleTree(leaves)
    proof = mht_prove(tree, 2)
    assert mht_verify(tree.root, leaves[2], proof)
    assert not mht_verify(tree.root, hash_bytes(b"x"), proof)


def test_round_trip_all_sizes_and_indices():
    rng = random.Random(1)
    for n in range(1, 65):
        leaves = [Digest256(rng.randbytes(32)) for _ in range(n)]
        tree = MerkleTree(leaves)
        for idx in range(n):
            proof = mht_prove(tree, idx)
            assert mht_verify(tree.root, leaves[idx], proof)


def mutate(digest: Digest256, pos: int) -> Digest256:
    raw = bytearray(digest.bytes)
    raw[pos] ^= 0x01
    return Digest256(bytes(raw))


def test_single_byte_mutations_break_verification():
    rng = random.Random(2)
    for n in (1, 2, 3, 7, 8, 33, 64):
        leaves = [Digest256(rng.randbytes(32)) for _ in range(n)]
        tree = MerkleTree(leaves)
        idx = rng.randrange(n)
        proof = mht_prove(tree, idx)
        pos = rng.randrange(32)
        assert not mht_verify(tree.root, mutate(leaves[idx], pos), proof)
        assert not mht_verify(mutate(tree.root, pos), leaves[idx], proof)
        for s in range(len(proof.siblings)):
            digest, side = proof.siblings[s]
            bad = MerkleProof(idx, list(proof.siblings))
            bad.siblings[s] = (mutate(digest, pos), side)
            assert not mht_verify(tree.root, leaves[idx], bad)


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
    assert user.tree.root == gateway.tree.root
    assert user.txn_counter == gateway.txn_counter == 0
    assert len(user.tree.leaves) == 1


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
    assert exc.value.gateway_root == gateway.tree.root


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
    assert user.tree.root == gateway.tree.root
    assert len(gateway.tree.leaves) == 2


def test_n_handshakes_consistent_and_keys_distinct():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x03" * 32)
    keys = []
    for _ in range(8):
        uk, gk = run_handshake(user, registry, src)
        assert uk == gk
        keys.append(uk.bytes)
    assert user.txn_counter == gateway.txn_counter == 8
    assert user.tree.root == gateway.tree.root
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


def test_resync_only_at_matching_height_and_root():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0a" * 32)
    mht_auth_initiate(user, src)  # stuck pending, no commits anywhere
    assert mht_try_resync(user, gateway.txn_counter, gateway.tree.root)
    assert user.pending is None
    # After a gateway-side commit the heights differ: conservative refusal.
    run_handshake(user, registry, src)
    assert not mht_try_resync(user, user.txn_counter + 1, gateway.tree.root)


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

def grown_tree(n: int, seed: int = 3):
    """Yield one growing tree at every size from 1 to n leaves."""
    rng = random.Random(seed)
    tree = MerkleTree([Digest256(rng.randbytes(32))])
    yield tree
    for _ in range(n - 1):
        tree.append(Digest256(rng.randbytes(32)))
        yield tree


def test_append_keeps_levels_equal_to_full_rebuild():
    for tree in grown_tree(600):
        assert tree.levels == _build_levels(tree.leaves), len(tree.leaves)


def test_raw_root_equals_digest_roots():
    for tree in grown_tree(600):
        raw = merkle_root([leaf.bytes for leaf in tree.leaves])
        assert raw == tree.root.bytes, len(tree.leaves)
        assert raw == _build_levels(tree.leaves)[-1][0].bytes


def test_latest_leaf_proof_after_append_matches_fresh_tree():
    for tree in grown_tree(600):
        latest = len(tree.leaves) - 1
        proof = mht_prove(tree, latest)
        fresh = MerkleTree(list(tree.leaves))
        assert proof == mht_prove(fresh, latest)
        assert mht_verify(tree.root, tree.leaves[latest], proof)


def test_restored_tree_appends_like_one_never_persisted():
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0c" * 32)
    for _ in range(37):
        run_handshake(user, registry, src)
    restored = persist.mht_gateway_from_dict(persist.mht_state_to_dict(gateway))
    rng = random.Random(4)
    for _ in range(40):
        leaf = Digest256(rng.randbytes(32))
        gateway.tree.append(leaf)
        restored.tree.append(leaf)
        assert restored.tree == gateway.tree


def test_handshake_hash_cost_is_logarithmic_in_history():
    # The proof check, plus one new-leaf hash and one append per side.
    user, gateway, registry = fresh_pair()
    src = RandomSource.seeded(b"\x0d" * 32)
    for n in range(1, 1025):
        assert len(gateway.tree.leaves) == n
        before = METER.hash_count
        run_handshake(user, registry, src)
        hashes = METER.hash_count - before
        assert hashes <= 3 * math.ceil(math.log2(n + 1)) + 2, (n, hashes)


# --- decoders -------------------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None)

digests = st.binary(min_size=32, max_size=32).map(Digest256)
nonces = st.binary(min_size=16, max_size=16).map(Nonce128)
m1s = st.builds(MhtM1, st.text(max_size=40), nonces, st.integers(0, 2**64 - 1))
proofs = st.builds(
    MerkleProof,
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(digests, st.sampled_from([LEFT, RIGHT])), max_size=12),
)
m2s = st.builds(MhtM2, nonces, proofs, digests, digests)
messages = st.one_of(m1s, m2s, st.builds(MhtM3, digests), st.builds(MhtM4, digests))
DECODERS = [(MhtM1, 1), (MhtM2, 2), (MhtM3, 3), (MhtM4, 4)]


@PROPERTY
@given(messages)
def test_decode_inverts_encode(msg):
    assert type(msg).decode(msg.encode()) == msg


@PROPERTY
@given(messages, st.data())
def test_truncated_or_extended_frames_rejected(msg, data):
    wire = msg.encode()
    cut = data.draw(st.integers(0, len(wire) - 1))
    with pytest.raises(MalformedPacket):
        type(msg).decode(wire[:cut])
    with pytest.raises(MalformedPacket):
        type(msg).decode(wire + data.draw(st.binary(min_size=1, max_size=40)))


@pytest.mark.parametrize("cls,type_tag", DECODERS)
@PROPERTY
@given(data=st.data())
def test_random_bytes_decode_canonically_or_raise_malformed(cls, type_tag, data):
    raw = data.draw(
        st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: bytes([type_tag]) + b))
    )
    try:
        msg = cls.decode(raw)
    except MalformedPacket:
        return
    assert msg.encode() == raw


def valid_frames():
    """One honest encoding per message, with a non-empty uid and proof."""
    n_u, n_g = Nonce128(b"\x01" * 16), Nonce128(b"\x02" * 16)
    digest = Digest256(b"\x03" * 32)
    proof = MerkleProof(5, [(digest, LEFT), (digest, RIGHT)])
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

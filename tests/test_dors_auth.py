"""Few-time signature tests, including the exhaustive small-parameter
forgery oracle: a forger limited to observed reveals succeeds exactly when
the fresh subset lands inside the revealed set."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf.errors import AuthFailed, ForestExhausted, InvalidParams, MalformedPacket
from sshaf.dors_auth import (
    ChainState,
    DorsParams,
    DorsPublicKey,
    DorsSecretKey,
    DorsSignature,
    dors_challenge,
    dors_gateway_verify,
    dors_handshake,
    dors_keygen,
    dors_provision,
    dors_respond,
    dors_sign,
    dors_subset,
    dors_verify,
)
from sshaf.harness.simnet import LINK_LOCAL, SimClock, SimLink, Transcript
from sshaf.link import GATEWAY, Loopback
from sshaf.primitives import METER, Digest256, Key256, Nonce128, RandomSource, hash_bytes, kdf

SEED = Key256(b"\x55" * 32)
TINY = DorsParams(t=4, k=2, f=2, r=1)


def test_params_validation():
    with pytest.raises(InvalidParams):
        DorsParams(t=4, k=5, f=1, r=1)  # k > t
    with pytest.raises(InvalidParams):
        DorsParams(t=3, k=2, f=1, r=1)  # not a power of two
    with pytest.raises(InvalidParams):
        DorsParams(t=4, k=2, f=1, r=2)  # reveal budget over t/2
    with pytest.raises(InvalidParams):
        DorsParams(t=2 ** 20, k=16, f=1, r=1)  # k*log2(t) > 256
    DorsParams()  # production defaults are valid


def test_keygen_deterministic():
    _, pk_a, chain_a = dors_keygen(SEED, TINY)
    _, pk_b, chain_b = dors_keygen(SEED, TINY)
    assert pk_a.leaf_digests == pk_b.leaf_digests
    assert pk_a.roots == pk_b.roots
    assert chain_a == chain_b


def test_keygen_leaf_count():
    _, pk, _ = dors_keygen(SEED, TINY)
    # Each tree packs its t digests into one t*32-byte string.
    assert sum(len(tree) // 32 for tree in pk.leaf_digests) == 8  # f*t = 2*4


# SHA-256 of the packed leaf digests, the roots and the genesis chain value
# for the production parameters, taken when every leaf was derived and
# hashed by its own kdf and hash_bytes call.
PRODUCTION_FOREST_SHA256 = "22f1f00ee68a70ed018198c9beb2307cb59478cc95e3db032b98b17ce35e97b3"


def test_production_keygen_bytes_and_counts_are_pinned():
    METER.reset()
    _, pk, chain = dors_keygen(Key256(b"\x44" * 32), DorsParams())
    assert METER.snapshot() == (4089, 2048)  # f*(2t-1)+1 hashes, f*t macs
    forest = b"".join(pk.leaf_digests) + b"".join(r.bytes for r in pk.roots) + chain.value.bytes
    assert hashlib.sha256(forest).hexdigest() == PRODUCTION_FOREST_SHA256
    METER.reset()
    dors_provision("alice", Key256(b"\x44" * 32))
    assert METER.snapshot() == (4089, 2050)  # plus the seed and link kdfs


def test_keygen_builds_only_the_trees_not_built_ahead():
    params = DorsParams(t=16, k=4, f=3, r=2)
    _, whole, genesis = dors_keygen(SEED, params)
    for built in range(params.f + 1):
        ahead = DorsPublicKey(params, [], [])
        ahead.grow(SEED, built)
        assert ahead.roots == whole.roots[:built]
        METER.reset()
        _, pk, chain = dors_keygen(SEED, ahead)
        missing = params.f - built
        assert METER.snapshot() == (missing * (2 * params.t - 1) + 1, missing * params.t)
        assert (pk.leaf_digests, pk.roots, chain) == (whole.leaf_digests, whole.roots, genesis)


def test_sign_reveals_equal_per_leaf_kdf():
    params = DorsParams(t=16, k=4, f=2, r=2)
    sk, _, chain = dors_keygen(SEED, params)
    for i in range(params.f * params.r):
        sig, chain = dors_sign(sk, chain, b"msg%d" % i)
        expected = [
            kdf(SEED, "leaf", sig.tree_index.to_bytes(2, "big") + idx.to_bytes(2, "big"))
            for idx in sig.subset_indices
        ]
        assert sig.reveals == expected


def test_subset_bit_extraction_oracle():
    # t=4 means 2-bit chunks read MSB-first: leading bits 11 01 -> [3, 1].
    params = DorsParams(t=4, k=2, f=2, r=1)
    chain = ChainState(hash_bytes(b"chain"))
    message = None
    for probe in range(10000):
        candidate = b"probe" + str(probe).encode()
        digest = hash_bytes(candidate + chain.value.bytes)
        if digest.bytes[0] >> 4 == 0b1101:
            message = candidate
            break
    assert message is not None, "no probe with leading bits 11 01 found"
    assert dors_subset(message, chain, params) == [3, 1]


def test_subset_one_byte_per_index_at_t256():
    params = DorsParams(t=256, k=16, f=8, r=8)
    chain = ChainState(hash_bytes(b"c"))
    message = b"hello"
    digest = hash_bytes(message + chain.value.bytes)
    assert dors_subset(message, chain, params) == list(digest.bytes[:16])


def test_subset_depends_on_message_and_chain():
    params = TINY
    chain_a = ChainState(hash_bytes(b"a"))
    chain_b = ChainState(hash_bytes(b"b"))
    assert dors_subset(b"m1", chain_a, params) != dors_subset(b"m2", chain_a, params) or (
        dors_subset(b"m1", chain_b, params) != dors_subset(b"m2", chain_b, params)
    )
    assert dors_subset(b"msg", chain_a, params) != dors_subset(b"msg", chain_b, params)


def test_sign_reveals_hash_to_public_digests():
    sk, pk, chain = dors_keygen(SEED, TINY)
    sig, _ = dors_sign(sk, chain, b"message")
    for idx, reveal in zip(sig.subset_indices, sig.reveals):
        published = pk.leaf_digests[sig.tree_index][32 * idx : 32 * idx + 32]
        assert hash_bytes(reveal.bytes).bytes == published


def test_budget_exhaustion_single_tree():
    sk, _, chain = dors_keygen(SEED, DorsParams(t=4, k=2, f=1, r=1))
    _, chain = dors_sign(sk, chain, b"first")
    with pytest.raises(ForestExhausted):
        dors_sign(sk, chain, b"second")


def test_automatic_tree_rotation():
    sk, _, chain = dors_keygen(SEED, TINY)  # f=2, r=1
    sig1, chain = dors_sign(sk, chain, b"first")
    sig2, chain = dors_sign(sk, chain, b"second")
    assert sig1.tree_index == 0
    assert sig2.tree_index == 1


def test_revealed_leaves_bounded_by_budget():
    params = DorsParams(t=16, k=4, f=3, r=2)
    sk, pk, chain = dors_keygen(SEED, params)
    verify_chain = ChainState(chain.value, 0)
    revealed: dict[int, set[int]] = {}
    for i in range(params.f * params.r):
        sig, chain = dors_sign(sk, chain, b"m" + bytes([i]))
        ok, verify_chain = dors_verify(pk, verify_chain, b"m" + bytes([i]), sig)
        assert ok
        revealed.setdefault(sig.tree_index, set()).update(sig.subset_indices)
    # The leaves the wire reveals, per tree: every tree signed, none past its budget.
    assert sorted(revealed) == list(range(params.f))
    for leaves in revealed.values():
        assert len(leaves) <= params.r * params.k


def test_round_trip_and_replay_rejection():
    sk, pk, chain = dors_keygen(SEED, TINY)
    verify_chain = ChainState(chain.value, 0)
    sig, chain = dors_sign(sk, chain, b"msg")
    ok, verify_chain = dors_verify(pk, verify_chain, b"msg", sig)
    assert ok
    assert verify_chain == chain
    # Replay: the verifier chain has advanced, so the same signature fails
    # and the chain stays put.
    ok2, unchanged = dors_verify(pk, verify_chain, b"msg", sig)
    assert not ok2
    assert unchanged == verify_chain


def test_tampered_reveal_rejected():
    sk, pk, chain = dors_keygen(SEED, TINY)
    sig, _ = dors_sign(sk, chain, b"msg")
    bad = DorsSignature(
        sig.tree_index,
        list(sig.subset_indices),
        [Key256(hash_bytes(b"x").bytes)] + list(sig.reveals[1:]),
    )
    ok, _ = dors_verify(pk, ChainState(chain.value, 0), b"msg", bad)
    assert not ok


def test_a_signature_from_the_next_tree_is_rejected_though_the_chain_matches():
    """An honest signer rotates exactly every r signatures, so signature c
    uses tree c // r. A signer forced onto the next tree early signs a
    subset the chain selects with secrets the forest publishes, and is still
    rejected, leaving the chain where it was."""
    params = DorsParams(t=16, k=4, f=3, r=2)
    sk, pk, chain = dors_keygen(SEED, params)
    verify_chain = ChainState(chain.value, 0)
    indices = dors_subset(b"early", chain, params)
    reveals = [kdf(SEED, "leaf", (1).to_bytes(2, "big") + idx.to_bytes(2, "big")) for idx in indices]
    sig = DorsSignature(1, indices, reveals)
    for idx, reveal in zip(indices, reveals):
        assert hash_bytes(reveal.bytes).bytes == pk.leaf_digests[1][32 * idx : 32 * idx + 32]
    assert sig.tree_index == 1
    assert dors_verify(pk, verify_chain, b"early", sig) == (False, verify_chain)
    honest, _ = dors_sign(sk, chain, b"early")
    assert dors_verify(pk, verify_chain, b"early", honest)[0]


def counter_trees(params: DorsParams, signatures: int) -> list[int | None]:
    """The tree each of ``signatures`` signatures from a fresh key used when
    the secret key kept its own counters, the active tree and the signatures
    spent in it; ``None`` where signing raised ``ForestExhausted``, which
    left both counters as they were."""
    active_tree, used_signatures, trees = 0, 0, []
    for _ in range(signatures):
        if used_signatures >= params.r:
            if active_tree + 1 >= params.f:
                trees.append(None)
                continue
            active_tree += 1
            used_signatures = 0
        trees.append(active_tree)
        used_signatures += 1
    return trees


@st.composite
def small_params(draw) -> DorsParams:
    t = 1 << draw(st.integers(1, 6))
    k = draw(st.integers(1, t // 2))
    r = draw(st.integers(1, t // 2 // k))
    return DorsParams(t=t, k=k, f=draw(st.integers(1, 4)), r=r)


@settings(max_examples=60, deadline=None)
@given(params=small_params())
def test_the_chain_names_the_tree_the_key_counters_did(params):
    """After s signatures, for every s up to f*r, the signer uses tree
    s // r, the tree its own counters once chose, and it raises
    ``ForestExhausted`` exactly at s = f*r. The key itself never changes."""
    sk = DorsSecretKey(params, SEED)
    chain = ChainState(hash_bytes(b"genesis"))
    expected = counter_trees(params, params.f * params.r + 1)
    assert expected.index(None) == params.f * params.r
    for count, tree in enumerate(expected):
        assert chain.signature_count == count
        if tree is None:
            with pytest.raises(ForestExhausted):
                dors_sign(sk, chain, b"m%d" % count)
            break
        sig, chain = dors_sign(sk, chain, b"m%d" % count)
        assert sig.tree_index == tree == count // params.r
    assert sk == DorsSecretKey(params, SEED)


def test_chaining_order_enforced():
    params = DorsParams(t=16, k=4, f=2, r=2)
    sk, pk, chain = dors_keygen(SEED, params)
    sig1, chain = dors_sign(sk, chain, b"one")
    sig2, chain = dors_sign(sk, chain, b"two")
    fresh = ChainState(hash_bytes(b"dors-genesis" + b"".join(r.bytes for r in pk.roots)), 0)
    # Out of order: sig2 against the genesis chain fails.
    ok, _ = dors_verify(pk, fresh, b"two", sig2)
    assert not ok
    ok1, after1 = dors_verify(pk, fresh, b"one", sig1)
    ok2, _ = dors_verify(pk, after1, b"two", sig2)
    assert ok1 and ok2


def test_signature_wire_round_trip():
    sk, _, chain = dors_keygen(SEED, TINY)
    sig, _ = dors_sign(sk, chain, b"wire")
    assert DorsSignature.decode(sig.encode(), TINY) == sig
    assert len(sig.encode()) == 2 + TINY.k * 2 + TINY.k * 32


def test_production_signature_payload_is_546_bytes():
    params = DorsParams(t=256, k=16, f=8, r=8)
    sk, _, chain = dors_keygen(Key256(b"\x44" * 32), params)
    sig, _ = dors_sign(sk, chain, b"sized")
    assert len(sig.encode()) == 546


# --- handshake -------------------------------------------------------------

MASTER = Key256(b"\x66" * 32)


def test_handshake_keys_agree_and_chains_advance():
    user, gateway = dors_provision("alice", MASTER, TINY)
    src = RandomSource.seeded(b"\x10" * 32)
    uk, gk = dors_handshake(Loopback(), user, gateway, src)
    assert uk == gk
    assert user.chain == gateway.chain
    assert user.chain.signature_count == 1


def test_sequential_handshake_keys_distinct():
    params = DorsParams(t=16, k=4, f=4, r=2)
    user, gateway = dors_provision("alice", MASTER, params)
    src = RandomSource.seeded(b"\x11" * 32)
    keys = set()
    for _ in range(params.f * params.r):
        uk, gk = dors_handshake(Loopback(), user, gateway, src)
        assert uk == gk
        keys.add(uk.bytes)
    assert len(keys) == params.f * params.r


def test_desynchronized_chains_fail():
    # Desync shows up as a subset mismatch, so detection odds scale with
    # t and k; 16/4 keeps the chance collision at 1/65536 instead of the
    # 1/16 a 4/2 toy tree would give.
    params = DorsParams(t=16, k=4, f=2, r=2)
    user, gateway = dors_provision("alice", MASTER, params)
    src = RandomSource.seeded(b"\x12" * 32)
    challenge = dors_challenge(src)
    sig, _ = dors_respond(user, challenge)
    # Message lost: gateway never verified, user advanced. The next run
    # fails because the subset no longer matches the gateway's chain.
    challenge2 = dors_challenge(src)
    sig2, _ = dors_respond(user, challenge2)
    with pytest.raises(AuthFailed):
        dors_gateway_verify(gateway, challenge2, sig2)


def test_forged_handshake_without_secrets_fails():
    user, gateway = dors_provision("alice", MASTER, TINY)
    src = RandomSource.seeded(b"\x13" * 32)
    challenge = dors_challenge(src)
    message = challenge.bytes + b"alice"
    indices = dors_subset(message, gateway.chain, TINY)
    forged = DorsSignature(0, indices, [Key256(b"\x00" * 32) for _ in indices])
    with pytest.raises(AuthFailed):
        dors_gateway_verify(gateway, challenge, forged)


# --- exhaustive small-parameter forgery oracle ------------------------------

def test_forgery_succeeds_exactly_when_subset_lands_in_revealed():
    """Intercept one signature, then try to answer fresh challenges using
    only the revealed material. Brute force over all assignments of that
    material confirms forgery works iff every fresh index was revealed."""
    params = DorsParams(t=4, k=2, f=1, r=1)
    sk, pk, chain = dors_keygen(Key256(b"\x77" * 32), params)
    gateway_chain = ChainState(chain.value, 0)  # never sees the real signature

    src = RandomSource.seeded(b"\x14" * 32)
    observed_challenge = dors_challenge(src)
    observed_sig, _ = dors_sign(sk, chain, observed_challenge.bytes + b"alice")
    revealed = dict(zip(observed_sig.subset_indices, observed_sig.reveals))

    landed = 0
    for _ in range(200):
        fresh = dors_challenge(src)
        message = fresh.bytes + b"alice"
        indices = dors_subset(message, gateway_chain, params)
        in_revealed = all(i in revealed for i in indices)

        forged_ok = False
        # Every signature the adversary can construct: any assignment of
        # revealed secrets to the required index slots.
        for assignment in itertools.product(list(revealed.values()), repeat=params.k):
            candidate = DorsSignature(0, indices, list(assignment))
            ok, _ = dors_verify(pk, gateway_chain, message, candidate)
            if ok:
                forged_ok = True
                break
        assert forged_ok == in_revealed
        landed += in_revealed
    assert landed > 0, "seed produced no in-revealed subsets; weaken nothing, reseed"


# --- decoders -------------------------------------------------------------------
# The round-trip, truncation and random-bytes properties of every decoder,
# the signature's at small and production parameters, are in
# tests/test_link.py; the cases here are the DORS messages' own.

PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(raw=st.binary(max_size=40))
def test_challenge_decodes_exactly_16_bytes_or_raises_malformed(raw):
    if len(raw) == 16:
        assert Nonce128.decode(raw).encode() == raw
    else:
        with pytest.raises(MalformedPacket):
            Nonce128.decode(raw)


class ChallengeResizingLink(SimLink):
    """Delivers the gateway's challenge frame at a different length."""

    def __init__(self, resize):
        super().__init__(LINK_LOCAL, SimClock(), Transcript())
        self.resize = resize

    def send(self, sender, receiver, data):
        data = super().send(sender, receiver, data)
        return self.resize(data) if sender == GATEWAY else data


@PROPERTY
@given(cut=st.integers(0, 15), extra=st.binary(min_size=1, max_size=24), extend=st.booleans())
def test_wrong_length_challenge_over_simlink_raises_malformed(cut, extra, extend):
    user, gateway = dors_provision("alice", SEED, TINY)
    link = ChallengeResizingLink(lambda data: data + extra if extend else data[:cut])
    with pytest.raises(MalformedPacket):
        dors_handshake(link, user, gateway, RandomSource.seeded(b"\x07" * 32))
    assert user.chain.signature_count == 0  # rejected before the user signed

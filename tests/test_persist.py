"""State serialization round trips, and the ephemeral-exclusion rule."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf import dhs_auth, dors_auth, merkle_auth, persist
from sshaf.context_engine import ContextSnapshot
from sshaf.gateway import CAP_CARD, CAP_DORS, Gateway
from sshaf.link import Loopback
from sshaf.primitives import Key256, RandomSource

MASTER = Key256(b"\x41" * 32)


def test_mht_state_round_trip():
    registry = {}
    user, gateway = merkle_auth.mht_register(registry, "alice", MASTER)
    src = RandomSource.seeded(b"\x01" * 32)
    m1 = merkle_auth.mht_auth_initiate(user, src)
    m2 = merkle_auth.mht_auth_challenge(registry, m1, src)
    m3 = merkle_auth.mht_auth_respond(user, m2)
    m4, _ = merkle_auth.mht_auth_finalize(registry, "alice", m3)
    merkle_auth.mht_confirm(user, m4)

    restored = persist.mht_gateway_from_dict(persist.mht_state_to_dict(gateway))
    assert restored.shared_key == gateway.shared_key
    assert restored.txn_counter == gateway.txn_counter
    assert restored.tree.root == gateway.tree.root


def test_mht_pending_excluded_unless_requested():
    registry = {}
    user, gateway = merkle_auth.mht_register(registry, "alice", MASTER)
    src = RandomSource.seeded(b"\x02" * 32)
    m1 = merkle_auth.mht_auth_initiate(user, src)
    merkle_auth.mht_auth_challenge(registry, m1, src)
    assert gateway.pending is not None
    plain = persist.dumps(persist.mht_state_to_dict(gateway)).decode()
    assert m1.n_u.hex() not in plain
    with_pending = persist.dumps(
        persist.mht_state_to_dict(gateway, include_pending=True)
    ).decode()
    assert m1.n_u.hex() in with_pending


def test_dors_sides_round_trip():
    params = dors_auth.DorsParams(t=16, k=4, f=2, r=2)
    user, gateway = dors_auth.dors_provision("alice", MASTER, params)
    src = RandomSource.seeded(b"\x03" * 32)
    dors_auth.dors_handshake(Loopback(), user, gateway, src)

    user2 = persist.dors_user_from_dict(persist.dors_user_to_dict(user))
    gateway2 = persist.dors_gateway_from_dict(persist.dors_gateway_to_dict(gateway))
    assert user2.chain == user.chain
    assert user2.secret_key.revealed == user.secret_key.revealed
    assert gateway2.public_key.leaf_digests == gateway.public_key.leaf_digests
    # The restored pair still completes a handshake with matching keys.
    uk, gk = dors_auth.dors_handshake(Loopback(), user2, gateway2, src)
    assert uk == gk


# SHA-256 of the persisted gateway side for the production parameters.
# The earlier layout, one hex string per leaf, pinned to the second value;
# the test rebuilds it from the current one, so both carry the same leaves.
DORS_GATEWAY_JSON_SHA256 = "835a831116980a3dccef001e2a6fe2386ac4d4e947241ab5875adb38c13ed0ab"
PER_LEAF_JSON_SHA256 = "c689386cf66f076141b797c2f7faefe510da900564bd31c4db97bd00b34a11f0"


def production_dors_gateway():
    user, gateway = dors_auth.dors_provision("alice", MASTER)
    dors_auth.dors_handshake(Loopback(), user, gateway, RandomSource.seeded(b"\x0c" * 32))
    return gateway


def _per_leaf(tree: str) -> list[str]:
    return [tree[i : i + 64] for i in range(0, len(tree), 64)]


def test_dors_gateway_json_bytes_are_pinned():
    gateway = production_dors_gateway()
    data = persist.dors_gateway_to_dict(gateway)
    t = gateway.public_key.params.t
    assert all(isinstance(tree, str) and len(tree) == 64 * t for tree in data["leaf_digests"])
    assert hashlib.sha256(persist.dumps(data)).hexdigest() == DORS_GATEWAY_JSON_SHA256
    per_leaf = dict(data, leaf_digests=[_per_leaf(tree) for tree in data["leaf_digests"]])
    assert hashlib.sha256(persist.dumps(per_leaf)).hexdigest() == PER_LEAF_JSON_SHA256
    assert ["".join(leaves) for leaves in per_leaf["leaf_digests"]] == data["leaf_digests"]
    restored = persist.dors_gateway_from_dict(json.loads(persist.dumps(data)))
    assert persist.dors_gateway_to_dict(restored) == data


def _spoil_leaf(tree: str, leaf: int, spoil) -> str:
    """``tree`` with leaf ``leaf``'s 64 hex digits replaced by ``spoil`` of them."""
    return tree[: 64 * leaf] + spoil(tree[64 * leaf : 64 * leaf + 64]) + tree[64 * leaf + 64 :]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda h: h[:63],  # one hex digit short
        lambda h: h[:63] + "g",  # not hex
        lambda h: h[:30] + "  " + h[32:],  # 64 chars, but whitespace inside
        lambda h: h[:31] + " " + h[32:],  # 64 chars, odd digit count
    ],
)
def test_dors_gateway_from_dict_rejects_malformed_leaf_digest(spoil):
    params = dors_auth.DorsParams(t=16, k=4, f=2, r=2)
    _, gateway = dors_auth.dors_provision("alice", MASTER, params)
    data = persist.dors_gateway_to_dict(gateway)
    data["leaf_digests"][1] = _spoil_leaf(data["leaf_digests"][1], 5, spoil)
    with pytest.raises(ValueError):
        persist.dors_gateway_from_dict(data)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda data: data["leaf_digests"].__setitem__(0, data["leaf_digests"][0][: 3 * 64]),  # a 3-leaf tree
        lambda data: data["leaf_digests"].__setitem__(
            1, data["leaf_digests"][1] + data["leaf_digests"][1][:64]
        ),  # t+1 leaves
        lambda data: data["leaf_digests"].pop(),  # a tree missing
        lambda data: data["leaf_digests"].append(data["leaf_digests"][0]),  # a tree extra
        lambda data: data["roots"].append(data["roots"][0]),  # a root extra
        lambda data: data["roots"].pop(),  # a root missing
        lambda data: data["leaf_digests"].__setitem__(
            0, _per_leaf(data["leaf_digests"][0])
        ),  # a tree in the per-leaf layout
    ],
)
def test_dors_gateway_from_dict_rejects_malformed_forest(spoil):
    params = dors_auth.DorsParams(t=16, k=4, f=2, r=2)
    _, gateway = dors_auth.dors_provision("alice", MASTER, params)
    data = persist.dors_gateway_to_dict(gateway)
    spoil(data)
    with pytest.raises(ValueError):
        persist.dors_gateway_from_dict(data)


@st.composite
def dors_params(draw):
    t = 1 << draw(st.integers(1, 6))
    k = draw(st.integers(1, t // 2))
    r = draw(st.integers(1, t // 2 // k))
    return dors_auth.DorsParams(t=t, k=k, f=draw(st.integers(1, 3)), r=r)


@settings(max_examples=100, deadline=None)
@given(params=dors_params(), uid=st.text(min_size=1, max_size=8))
def test_dors_forest_round_trips_for_any_params(params, uid):
    _, gateway = dors_auth.dors_provision(uid, MASTER, params)
    data = json.loads(persist.dumps(persist.dors_gateway_to_dict(gateway)))
    assert [len(tree) for tree in data["leaf_digests"]] == [64 * params.t] * params.f
    restored = persist.dors_gateway_from_dict(data)
    assert restored.public_key.params == params
    assert restored.public_key.leaf_digests == gateway.public_key.leaf_digests
    assert restored.public_key.roots == gateway.public_key.roots
    assert persist.dors_gateway_to_dict(restored) == data


def test_dhs_entities_round_trip():
    src = RandomSource.seeded(b"\x04" * 32)
    home = dhs_auth.dhs_initialize(src)
    edge = dhs_auth.EdgeServer()
    card = dhs_auth.dhs_register(home, edge, "bob", "pw", src)

    card2 = persist.card_from_dict(persist.card_to_dict(card))
    edge2 = persist.edge_server_from_dict(persist.edge_server_to_dict(edge))
    request = dhs_auth.dhs_login(card2, "bob", "pw", src)
    challenge = dhs_auth.dhs_edge_verify(edge2, request.encode(), src)
    ck, ek, _ = dhs_auth.dhs_session_agree(Loopback(), card2, edge2, challenge)
    assert ck == ek


def test_edge_db_capture_excludes_bindings():
    src = RandomSource.seeded(b"\x05" * 32)
    home = dhs_auth.dhs_initialize(src)
    edge = dhs_auth.EdgeServer()
    dhs_auth.dhs_register(home, edge, "bob", "pw", src)
    table = persist.dumps(persist.edge_db_to_dict(edge.db)).decode()
    assert edge.bindings["bob"].hex() not in table


def test_full_gateway_state_round_trip():
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw", capabilities=(CAP_DORS, CAP_CARD))
    gw.owner_verify("owner", "alice", "activate")
    snapshot = ContextSnapshot(uid="alice", bluetooth_present=True, timestamp=600)
    first = gw.login("alice", "pw", snapshot)
    assert first.status == "grant"

    state = json.loads(persist.dumps(persist.gateway_state_to_dict(gw)))
    gw2 = Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32))
    persist.restore_gateway_state(gw2, state)
    gw2.db = gw.db
    gw2.src = RandomSource.seeded(b"\x09" * 32)

    # The restored gateway carries the advanced protocol state: sessions
    # still resolve, and a second login still works and advances counters.
    assert first.session.session_id in gw2.sessions
    second = gw2.login("alice", "pw", snapshot)
    assert second.status == "grant"

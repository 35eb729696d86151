"""State serialization round trips, and the ephemeral-exclusion rule."""

import copy
import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf import dhs_auth, dors_auth, merkle_auth, persist
from sshaf.context_engine import (
    IP_HOME,
    IP_KNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    SCHEME_DHS,
    SCHEME_DORS,
    SCHEME_MHT,
    ContextSnapshot,
)
from sshaf.gateway import CAP_CARD, CAP_DORS, Gateway, GatewaySession
from sshaf.link import Loopback
from sshaf.primitives import Key256, RandomSource, hash_bytes, random_key

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
    assert restored.history == gateway.history
    assert restored.leaves == gateway.leaves
    assert persist.mht_user_from_dict(persist.mht_state_to_dict(user)) == user


def test_mht_gateway_entry_never_holds_its_pending_nonce():
    registry = {}
    user, gateway = merkle_auth.mht_register(registry, "alice", MASTER)
    src = RandomSource.seeded(b"\x02" * 32)
    m1 = merkle_auth.mht_auth_initiate(user, src)
    merkle_auth.mht_auth_challenge(registry, m1, src)
    assert gateway.pending is not None
    plain = persist.dumps(persist.mht_state_to_dict(gateway)).decode()
    assert m1.n_u.hex() not in plain


def mht_pair(handshakes: int):
    registry = {}
    user, gateway = merkle_auth.mht_register(registry, "alice", MASTER)
    src = RandomSource.seeded(b"\x0f" * 32)
    for _ in range(handshakes):
        merkle_auth.mht_handshake(Loopback(), user, registry, src)
    return user, gateway


def old_user_entry(user, gateway) -> dict:
    """The user's entry as it was written before the compact form: its
    leaves, which are the gateway's."""
    data = persist.mht_state_to_dict(user)
    del data["range"]
    data["leaves"] = [leaf.hex() for leaf in gateway.leaves]
    return data


def test_mht_user_writes_its_range_and_the_gateway_its_leaves():
    user, gateway = mht_pair(11)
    user_data, gateway_data = persist.mht_state_to_dict(user), persist.mht_state_to_dict(gateway)
    common = {"uid": "alice", "shared_key": user.shared_key.hex(), "txn_counter": 11}
    assert gateway_data == dict(common, leaves=[leaf.hex() for leaf in gateway.leaves])
    # n = 12 leaves: the latest, its two siblings in the peak of 4, and the peak of 8.
    assert user_data == dict(common, range=[d.hex() for d in user.history.compact_range()])
    assert len(user_data["range"]) == 4


def test_old_user_entry_with_leaves_loads_and_saves_compact():
    user, gateway = mht_pair(12)
    restored = persist.mht_user_from_dict(json.loads(persist.dumps(old_user_entry(user, gateway))))
    assert restored == user
    assert persist.mht_state_to_dict(restored) == persist.mht_state_to_dict(user)


@pytest.mark.parametrize("k", range(13))
def test_user_entry_holds_at_most_two_log_n_plus_one_digests(k):
    for n in {2**k - 1, 2**k} - {0}:
        leaves = [hash_bytes(i.to_bytes(2, "big")) for i in range(n)]
        user = merkle_auth.MhtUserState("alice", MASTER, n - 1, merkle_auth.MerkleHistory.from_leaves(leaves))
        data = persist.mht_state_to_dict(user)
        assert len(data["range"]) <= 2 * math.log2(n) + 1, n
        gateway = merkle_auth.MhtGatewayState("alice", MASTER, n - 1, user.history, leaves)
        assert len(persist.dumps(data)) <= len(persist.dumps(old_user_entry(user, gateway))), n


def _spoil_mht(data: dict, spoil: str) -> None:
    if spoil == "counter-off-by-one":
        data["txn_counter"] += 1
    elif spoil == "digest-short":
        data[_digests_key(data)].pop()
    elif spoil == "digest-extra":
        data[_digests_key(data)].append("00" * 32)
    elif spoil == "digest-not-hex":
        data[_digests_key(data)][-1] = "zz" * 32
    elif spoil == "digests-as-string":
        data[_digests_key(data)] = "".join(data[_digests_key(data)])
    else:
        data["txn_counter"] = {"counter-as-string": "7", "counter-as-bool": True,
                               "counter-negative": -1, "counter-as-float": 7.0}[spoil]


def _digests_key(data: dict) -> str:
    return "range" if "range" in data else "leaves"


MHT_SPOILS = ["counter-off-by-one", "digest-short", "digest-extra", "digest-not-hex",
              "digests-as-string", "counter-as-string", "counter-as-bool", "counter-negative",
              "counter-as-float"]


@pytest.mark.parametrize("spoil", MHT_SPOILS)
@pytest.mark.parametrize("form", ["user", "old-user", "gateway"])
def test_malformed_mht_entry_is_rejected(form, spoil):
    user, gateway = mht_pair(7)
    data = {
        "user": persist.mht_state_to_dict(user),
        "old-user": old_user_entry(user, gateway),
        "gateway": persist.mht_state_to_dict(gateway),
    }[form]
    _spoil_mht(data, spoil)
    load = persist.mht_gateway_from_dict if form == "gateway" else persist.mht_user_from_dict
    with pytest.raises((ValueError, TypeError)):
        load(data)


def _set_time(state: dict, field: str, value) -> None:
    if field == "sim_minutes":
        state["sim_minutes"] = value
    elif field == "established_minutes":
        (session,) = state["sessions"].values()
        session["established_minutes"] = value
    else:
        state["step_up_tokens"]["token"] = ["alice", value]


@pytest.mark.parametrize("bad", ["600", True, -5, 600.0, None])
@pytest.mark.parametrize("field", ["sim_minutes", "established_minutes", "step_up_minted"])
def test_a_time_restores_only_from_a_non_negative_integer(field, bad):
    """The clock and the minutes it is compared with: ``sim_minutes: "600"``
    once loaded and failed at the next login with a raw ``TypeError``."""
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw")
    gw.owner_verify("owner", "alice", "activate")
    snapshot = ContextSnapshot(uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True, timestamp=600)
    assert gw.login("alice", "pw", snapshot).status == "grant"
    state = json.loads(persist.dumps(persist.gateway_state_to_dict(gw)))
    _set_time(state, field, 600)
    persist.restore_gateway_state(Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32)), state)
    _set_time(state, field, bad)
    with pytest.raises(ValueError):
        persist.restore_gateway_state(Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32)), state)


def mht_gateway(handshakes: int) -> Gateway:
    gw = Gateway(RandomSource.seeded(b"\x0a" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw")
    gw.owner_verify("owner", "alice", "activate")
    for _ in range(handshakes):
        gw.run_scheme(SCHEME_MHT, "alice", "pw", Loopback())
    return gw


def mht_runs(gw: Gateway, count: int) -> list:
    """The M1-M4 bytes and the session key of ``count`` MHT handshakes."""
    runs = []
    for _ in range(count):
        link = Loopback()
        key = gw.run_scheme(SCHEME_MHT, "alice", "pw", link)
        runs.append(([message.encode() for _, message in link.carried], key))
    return runs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 3))
def test_a_round_trip_changes_no_later_mht_handshake(before, after):
    gw = mht_gateway(before)
    restored = Gateway(RandomSource.seeded(b"\x0b" * 32), Key256(b"\x77" * 32))
    persist.restore_gateway_state(restored, json.loads(persist.dumps(persist.gateway_state_to_dict(gw))))
    restored.db, restored.src = gw.db, gw.src
    assert mht_runs(restored, after) == mht_runs(mht_gateway(before), after)


def test_dors_sides_round_trip():
    params = dors_auth.DorsParams(t=16, k=4, f=2, r=2)
    user, gateway = dors_auth.dors_provision("alice", MASTER, params)
    src = RandomSource.seeded(b"\x03" * 32)
    dors_auth.dors_handshake(Loopback(), user, gateway, src)

    user2 = persist.dors_user_from_dict(persist.dors_user_to_dict(user))
    gateway2 = persist.dors_gateway_from_dict(persist.dors_gateway_to_dict(gateway))
    assert user2.chain == user.chain
    assert user2.secret_key == user.secret_key
    assert gateway2.public_key.leaf_digests == gateway.public_key.leaf_digests
    # The restored pair still completes a handshake with matching keys.
    uk, gk = dors_auth.dors_handshake(Loopback(), user2, gateway2, src)
    assert uk == gk


# SHA-256 of the persisted gateway side for the production parameters.
# The earlier layout, one hex string per leaf, pinned to the second value;
# the test rebuilds it from the current one, so both carry the same leaves.
# Re-pinned when the entry stopped writing the forest's roots and began to
# write every tree by position as ``trees``: the same trees, chain and link
# key as before.
DORS_GATEWAY_JSON_SHA256 = "54de44c76ead0e8f2d205b9eb5a2d161663be1b90d50f261df3060dc1ccc1a36"
PER_LEAF_JSON_SHA256 = "c682f007e137de1e5ebb4412f60165dd10d77bbd00b411363f30c4cc621a43a7"


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
    assert all(isinstance(tree, str) and len(tree) == 64 * t for tree in data["trees"])
    assert hashlib.sha256(persist.dumps(data)).hexdigest() == DORS_GATEWAY_JSON_SHA256
    per_leaf = dict(data, trees=[_per_leaf(tree) for tree in data["trees"]])
    assert hashlib.sha256(persist.dumps(per_leaf)).hexdigest() == PER_LEAF_JSON_SHA256
    assert ["".join(leaves) for leaves in per_leaf["trees"]] == data["trees"]
    restored = persist.dors_gateway_from_dict(json.loads(persist.dumps(data)))
    assert persist.dors_gateway_to_dict(restored) == data


def _spoil_leaf(tree: str, leaf: int, spoil) -> str:
    """``tree`` with leaf ``leaf``'s 64 hex digits replaced by ``spoil`` of them."""
    return tree[: 64 * leaf] + spoil(tree[64 * leaf : 64 * leaf + 64]) + tree[64 * leaf + 64 :]


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda h: h[:63], id="one-hex-digit-short"),
        pytest.param(lambda h: h[:63] + "g", id="not-hex"),
        pytest.param(lambda h: h[:30] + "  " + h[32:], id="whitespace-inside"),  # still 64 chars
        pytest.param(lambda h: h[:31] + " " + h[32:], id="odd-digit-count"),  # still 64 chars
    ],
)
def test_dors_gateway_from_dict_rejects_malformed_leaf_digest(spoil):
    params = dors_auth.DorsParams(t=16, k=4, f=2, r=2)
    _, gateway = dors_auth.dors_provision("alice", MASTER, params)
    data = persist.dors_gateway_to_dict(gateway)
    data["trees"][1] = _spoil_leaf(data["trees"][1], 5, spoil)
    with pytest.raises(ValueError):
        persist.dors_gateway_from_dict(data)


ROOT_HEX = "00" * 32  # a well-formed root


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda data: data["trees"].__setitem__(0, data["trees"][0][: 3 * 64]), id="three-leaf-tree"),
        pytest.param(
            lambda data: data["trees"].__setitem__(1, data["trees"][1] + data["trees"][1][:64]),
            id="tree-of-t-plus-one-leaves",
        ),
        pytest.param(lambda data: data["trees"].__setitem__(1, " " * len(data["trees"][1])), id="tree-all-whitespace"),
        pytest.param(lambda data: data["trees"].__setitem__(1, " "), id="tree-one-space-not-empty"),
        pytest.param(lambda data: data["trees"].pop(), id="too-few-trees"),
        pytest.param(lambda data: data["trees"].append(data["trees"][0]), id="too-many-trees"),
        pytest.param(lambda data: data["trees"].append(""), id="too-many-trees-extra-empty"),
        pytest.param(
            lambda data: data["trees"].__setitem__(0, _per_leaf(data["trees"][0])), id="tree-in-per-leaf-layout"
        ),
        pytest.param(lambda data: data["trees"].__setitem__(0, None), id="tree-as-null"),
        pytest.param(lambda data: data.update(trees="".join(data["trees"])), id="trees-as-one-string"),
        pytest.param(lambda data: data.update(next_roots=ROOT_HEX), id="next-roots-as-string"),
        pytest.param(lambda data: data.update(next_roots=[0]), id="next-root-as-number"),
        pytest.param(
            lambda data: data.update(next_roots=[ROOT_HEX] * 3, trees=data["trees"] + [""] * 3),
            id="more-next-roots-than-f",
        ),
        pytest.param(lambda data: data.update(next_roots=[ROOT_HEX]), id="tree-built-ahead-missing"),
        pytest.param(
            lambda data: data.update(next_roots=[ROOT_HEX], trees=data["trees"] + [data["trees"][0][: 3 * 64]]),
            id="three-leaf-tree-built-ahead",
        ),
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
@given(params=dors_params(), uid=st.text(min_size=1, max_size=8), mask=st.integers(0, 63))
def test_dors_forest_round_trips_for_any_params(params, uid, mask):
    """Any subset of the trees, those not held written as "", round-trips.
    The forest's own roots are not written, and neither a live nor a
    restored side holds them."""
    _, gateway = dors_auth.dors_provision(uid, MASTER, params)
    data = json.loads(persist.dumps(persist.dors_gateway_to_dict(gateway)))
    assert [len(tree) for tree in data["trees"]] == [64 * params.t] * params.f
    restored = persist.dors_gateway_from_dict(data)
    assert restored.public_key.params == params
    assert restored.public_key == gateway.public_key
    assert persist.dors_gateway_to_dict(restored) == data
    data["trees"] = ["" if mask >> i & 1 else tree for i, tree in enumerate(data["trees"])]
    restored = persist.dors_gateway_from_dict(data)
    assert restored.public_key.leaf_digests == [bytes.fromhex(tree) for tree in data["trees"]]
    assert persist.dors_gateway_to_dict(restored) == data


def test_dhs_entities_round_trip():
    src = RandomSource.seeded(b"\x04" * 32)
    master = random_key(src)
    edge = dhs_auth.EdgeServer()
    card = dhs_auth.dhs_register(master, edge, "bob", "pw", src)

    card2 = persist.card_from_dict(persist.card_to_dict(card))
    edge2 = persist.edge_server_from_dict(persist.edge_server_to_dict(edge))
    request = dhs_auth.dhs_login(card2, "bob", "pw", src)
    challenge = dhs_auth.dhs_edge_verify(edge2, request, src)
    ck, ek, _ = dhs_auth.dhs_session_agree(Loopback(), card2, edge2, challenge)
    assert ck == ek


def test_iids_persist_as_hex_and_integers_written_before_still_load():
    src = RandomSource.seeded(b"\x04" * 32)
    edge = dhs_auth.EdgeServer()
    card = dhs_auth.dhs_register(random_key(src), edge, "bob", "pw", src)
    card.current_iid = dhs_auth.InterfaceIdentifier(0x00AB)
    card_data, edge_data = persist.card_to_dict(card), persist.edge_db_to_dict(edge.db)
    assert card_data["current_iid"] == "00000000000000ab"
    assert edge_data["bob"]["current_iid"] == edge.db["bob"].current_iid.to_bytes().hex()
    old_card = dict(card_data, current_iid=0xAB)
    old_edge = {"bob": dict(edge_data["bob"], current_iid=edge.db["bob"].current_iid.iid)}
    assert persist.card_to_dict(persist.card_from_dict(old_card)) == card_data
    assert persist.edge_db_to_dict(persist.edge_db_from_dict(old_edge)) == edge_data


def test_edge_db_capture_excludes_bindings():
    src = RandomSource.seeded(b"\x05" * 32)
    master = random_key(src)
    edge = dhs_auth.EdgeServer()
    dhs_auth.dhs_register(master, edge, "bob", "pw", src)
    table = persist.dumps(persist.edge_db_to_dict(edge.db)).decode()
    assert edge.bindings["bob"].hex() not in table


def test_full_gateway_state_round_trip():
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw", capabilities=(CAP_DORS, CAP_CARD))
    gw.owner_verify("owner", "alice", "activate")
    snapshot = ContextSnapshot(uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True, timestamp=600)
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


def test_no_granted_session_key_or_scheme_is_persisted():
    """The granted login's session carries its key and scheme, but the
    state holds neither; a restored session is its id, owner and minute."""
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw", capabilities=(CAP_DORS, CAP_CARD))
    gw.register_user("mo", "Mo", 30, "resident", "pw")
    for uid in ("alice", "mo"):
        gw.owner_verify("owner", uid, "activate")
    granted = []
    for uid, origin, ip_class in (
        ("alice", ORIGIN_LOCAL, IP_HOME), ("alice", ORIGIN_INTERNET, IP_KNOWN), ("mo", ORIGIN_LOCAL, IP_HOME)
    ):
        snapshot = ContextSnapshot(uid, origin, ip_class, origin == ORIGIN_LOCAL, 600)
        result = gw.login(uid, "pw", snapshot)
        assert result.status == "grant"
        granted.append(result.session)
    assert [session.scheme for session in granted] == [SCHEME_DORS, SCHEME_DHS, SCHEME_MHT]
    text = persist.dumps(persist.gateway_state_to_dict(gw)).decode()
    for session in granted:
        assert session.session_key.hex() not in text
    assert '"scheme"' not in text and '"session_key"' not in text
    restored = Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32))
    persist.restore_gateway_state(restored, json.loads(text))
    assert [restored.sessions[session.session_id] for session in granted] == [
        GatewaySession(session.session_id, session.uid, None, None, session.established_minutes)
        for session in granted
    ]


def _unread_key_holder(state: dict, key: str) -> dict:
    """The dict of a gateway state dict that once held ``key``."""
    if key == "home_registered":
        return state
    if key == "uid":
        return state["wallets"]["alice"]
    if key in ("revealed", "active_tree", "used_signatures"):
        return state["wallets"]["alice"]["dors"]
    if key == "locked":
        return state["wallets"]["alice"]["card"]
    if key in ("roots", "dropped", "leaf_digests"):
        return state["dors_registry"]["alice"]
    (session,) = state["sessions"].values()
    return session


@pytest.mark.parametrize(
    "key, value",
    [
        ("home_registered", ["alice"]),
        ("home_registered", "alice"),
        ("uid", "alice"),
        ("uid", 7),
        ("revealed", {"0": [3, 17]}),
        ("revealed", "0"),
        ("origin", "local"),
        ("origin", None),
        ("device_grants", ["thermostat"]),
        ("device_grants", "thermostat"),
        ("active_tree", 0),
        ("active_tree", -1),
        ("used_signatures", 1),
        ("used_signatures", None),
        ("locked", True),
        ("locked", 0),
        ("roots", ["00" * 32] * 8),
        ("roots", "zz"),
        ("dropped", 1),
        ("dropped", -1),
        ("leaf_digests", ["00" * 32 * 256]),
        ("leaf_digests", "zz"),
        ("scheme", "dors"),
        ("scheme", 7),
        ("session_key", "00" * 32),
        ("session_key", "zz"),
    ],
)
def test_a_key_restore_no_longer_reads_is_ignored_whatever_it_holds(key, value):
    """A state written while it still held ``key``, in the form it was written
    in or damaged, restores to the same gateway as one without it."""
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw", capabilities=(CAP_DORS, CAP_CARD))
    gw.owner_verify("owner", "alice", "activate")
    snapshot = ContextSnapshot(uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True, timestamp=600)
    assert gw.login("alice", "pw", snapshot).status == "grant"
    clean = persist.dumps(persist.gateway_state_to_dict(gw))
    state = json.loads(clean)
    _unread_key_holder(state, key)[key] = value
    gw2 = Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32))
    persist.restore_gateway_state(gw2, state)
    assert persist.dumps(persist.gateway_state_to_dict(gw2)) == clean


def test_tree_less_dors_gateway_keeps_no_tree_and_ignores_older_keys():
    params = dors_auth.DorsParams(t=16, k=4, f=3, r=2)
    _, gateway = dors_auth.dors_provision("alice", MASTER, params)
    gateway.next_forest.grow(dors_auth.dors_seed("alice#1", MASTER), 2)
    full = persist.dors_gateway_to_dict(gateway)
    bare = persist.dors_gateway_to_dict(gateway, with_forest=False)
    assert bare == {key: full[key] for key in ("uid", "params", "chain", "link_key", "next_roots")}
    assert len(full["trees"]) == params.f + 2
    restored = persist.dors_gateway_from_dict(json.loads(persist.dumps(bare)))
    assert (restored.public_key.leaf_digests, restored.public_key.roots) == ([b""] * params.f, [])
    assert restored.next_forest.leaf_digests == [b""] * 2
    assert restored.next_forest.roots == gateway.next_forest.roots
    assert persist.dors_gateway_to_dict(restored, with_forest=False) == bare
    # The roots, dropped count and leaf digests an older entry carries, in
    # the form they were written in or damaged, are not read. Its roots are
    # the forest's own, from dors_keygen, since the live side holds none.
    _, forest, _ = dors_auth.dors_keygen(dors_auth.dors_seed("alice", MASTER), params)
    roots = [root.hex() for root in forest.roots]
    assert len(roots) == params.f
    for older in (
        dict(bare, roots=roots, dropped=1, leaf_digests=full["trees"][1:]),
        dict(bare, roots="zz", dropped=-1, leaf_digests="zz"),
    ):
        assert persist.dors_gateway_to_dict(persist.dors_gateway_from_dict(older), with_forest=False) == bare


@pytest.mark.parametrize(
    "next_roots",
    [
        "00" * 32,  # one root as a string
        ["00" * 32] * 4,  # more built ahead than f
        ["00" * 15 + "  " + "00" * 16],  # 64 chars, but whitespace inside
        ["zz" * 32],  # not hex
    ],
)
def test_tree_less_dors_gateway_rejects_malformed_next_roots(next_roots):
    params = dors_auth.DorsParams(t=16, k=4, f=3, r=2)
    _, gateway = dors_auth.dors_provision("alice", MASTER, params)
    data = dict(persist.dors_gateway_to_dict(gateway, with_forest=False), next_roots=next_roots)
    with pytest.raises(ValueError):
        persist.dors_gateway_from_dict(data)


def test_a_gateway_restored_without_trees_builds_only_the_tree_a_login_needs():
    gw = Gateway(RandomSource.seeded(b"\x06" * 32), Key256(b"\x77" * 32))
    gw.register_user("alice", "Alice", 30, "resident", "pw", capabilities=(CAP_DORS,))
    gw.owner_verify("owner", "alice", "activate")
    full = persist.gateway_state_to_dict(gw)
    bare = persist.gateway_state_to_dict(gw, with_forests=False)
    assert "trees" not in bare["dors_registry"]["alice"]
    assert dict(bare, dors_registry=None) == dict(full, dors_registry=None)
    gw2 = Gateway(RandomSource.seeded(b"\x08" * 32), Key256(b"\x77" * 32))
    persist.restore_gateway_state(gw2, json.loads(persist.dumps(bare)))
    assert persist.dumps(persist.gateway_state_to_dict(gw2, with_forests=False)) == persist.dumps(bare)
    gw2.db, gw2.src = gw.db, copy.deepcopy(gw.src)
    keys = [g.run_scheme(SCHEME_DORS, "alice", "pw", Loopback()) for g in (gw, gw2)]
    assert keys[0] == keys[1]
    trees = gw.dors_registry["alice"].public_key.leaf_digests
    assert gw2.dors_registry["alice"].public_key.leaf_digests == [trees[0]] + [b""] * (len(trees) - 1)

"""The DORS forest built one tree at a time, against a reference that keeps
every tree.

A provision builds a forest's tree 0 alone. The gateway side builds each
later tree when its chain first names it and drops the tree before, so it
holds at most one. The reference below builds the same trees at the same
logins, from the user's forest seed, and drops none. Driven through
``Gateway.login`` from the same seed, both must carry the same wire bytes,
derive the same session keys, reach the same chain values and charge
``METER`` the same, login by login. So must a gateway saved and restored
in either persisted form at any login count.
"""

import copy
import hashlib
import json
from dataclasses import dataclass
from functools import cache
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshaf import dors_auth, persist
from sshaf import gateway as gw_mod
from sshaf.context_engine import IP_HOME, ORIGIN_LOCAL, SCHEME_DORS, ContextSnapshot
from sshaf.gateway import CAP_DORS, Gateway
from sshaf.primitives import METER, Key256, RandomSource

SEED = b"\x3c" * 32
UID = "dora"
PARAMS = dors_auth.DorsParams()  # what the gateway provisions
EPOCH = PARAMS.f * PARAMS.r  # logins one forest signs
# What a DORS login costs on METER (hashes, macs) when it builds no tree.
LOGIN_COST = (21, 20)
# One tree build: t leaf digests and t-1 Merkle nodes, from t leaf kdfs.
TREE_COST = (2 * PARAMS.t - 1, PARAMS.t)
# A re-key: one tree, the genesis hash, and the seed and link kdfs.
REKEY_COST = (TREE_COST[0] + 1, TREE_COST[1] + 2)

# SHA-256 of the reference's 200-login transcript (every carried message,
# then the session key and chain value of each login). Re-pinned when the
# genesis came to commit to tree 0's root alone: the chain values, and with
# them the subsets and session keys, moved; the message count and sizes
# did not.
TRANSCRIPT_200_SHA256 = "239d3e9a8d0982fab294f1ed18cc1089885e98a1585628eb49704fa4f7772f36"


class KeepEveryTreeGateway(Gateway):
    """Before each handshake, builds the tree the gateway's chain names from
    the user's forest seed, unless the side holds it, and drops no tree."""

    def run_scheme(self, scheme, uid, password, link):
        side, seed = self.dors_registry[uid], self.wallets[uid].dors.secret_key.forest_seed
        params = side.public_key.params
        tree = side.chain.signature_count // params.r
        if tree < params.f and not side.public_key.leaf_digests[tree]:
            side.public_key.leaf_digests[tree] = dors_auth.dors_tree(seed, tree, params)[0]
        return super().run_scheme(scheme, uid, password, link)


class Recorder:
    """Stands in for ``gateway.Loopback``: the link it returns carries each
    message as its wire bytes, decoded on arrival, and keeps them."""

    def __init__(self):
        self.messages = []

    def __call__(self):
        return self

    def carry(self, sender, receiver, message, decode):
        data = message.encode()
        self.messages.append((sender, data))
        return decode(data)


@dataclass(frozen=True)
class Login:
    messages: tuple
    session_key: Key256
    user_chain: dors_auth.ChainState
    gateway_chain: dors_auth.ChainState
    meter: tuple[int, int]  # hashes, macs
    held: int  # trees of leaf digests the gateway side holds after it


def boot(cls=Gateway) -> Gateway:
    gw = cls(RandomSource.seeded(SEED), Key256(b"\x99" * 32))
    gw.register_user(UID, "Dora", 30, "resident", "pw", capabilities=(CAP_DORS,))
    gw.owner_verify("owner", UID, "activate")
    return gw


def drive(gw: Gateway, logins: int) -> list[Login]:
    """``logins`` granted local logins of UID, an hour apart, which all run
    DORS."""
    records = []
    for _ in range(logins):
        gw.advance_time(60)
        recorder = Recorder()
        snapshot = ContextSnapshot(UID, ORIGIN_LOCAL, IP_HOME, True, gw.sim_minutes)
        before = METER.snapshot()
        with mock.patch.object(gw_mod, "Loopback", recorder):
            result = gw.login(UID, "pw", snapshot)
        after = METER.snapshot()
        assert (result.status, result.session.scheme) == ("grant", SCHEME_DORS)
        side = gw.dors_registry[UID]
        records.append(Login(
            tuple(recorder.messages),
            result.session.session_key,
            gw.wallets[UID].dors.chain,
            side.chain,
            (after[0] - before[0], after[1] - before[1]),
            sum(map(bool, side.public_key.leaf_digests)),
        ))
    return records


@cache
def reference(logins: int = 200) -> tuple[Login, ...]:
    return tuple(drive(boot(KeepEveryTreeGateway), logins))


def transcript_sha256(records) -> str:
    sha = hashlib.sha256()
    for login in records:
        for sender, data in login.messages:
            sha.update(sender.encode() + len(data).to_bytes(4, "big") + data)
        sha.update(b"keys" + login.session_key.bytes + login.gateway_chain.value.bytes)
    return sha.hexdigest()


def assert_same_protocol(records, expected) -> None:
    for login, ref in zip(records, expected, strict=True):
        assert login.messages == ref.messages
        assert login.session_key == ref.session_key
        assert login.user_chain == login.gateway_chain == ref.gateway_chain == ref.user_chain


def test_reference_transcript_is_pinned():
    assert transcript_sha256(reference()) == TRANSCRIPT_200_SHA256


def test_200_logins_match_the_reference_and_hold_one_tree():
    """Three re-keys and then some: the same transcript, keys, chains and
    METER counts login by login, while the reference comes to hold all f
    trees of an epoch and the gateway side never more than one."""
    records = drive(boot(), 200)
    assert_same_protocol(records, reference())
    assert transcript_sha256(records) == TRANSCRIPT_200_SHA256
    assert [login.meter for login in records] == [login.meter for login in reference()]
    assert {login.held for login in records} == {1}
    assert max(login.held for login in reference()) == PARAMS.f


def test_only_a_rotation_or_rekey_login_builds_a_tree():
    """Provisioning builds tree 0; each later tree costs exactly one tree
    on the login that rotates to it, and a re-key one tree and the kdfs and
    genesis of a provision; every other DORS login builds nothing."""
    for n, login in enumerate(reference(), start=1):
        signature = (n - 1) % EPOCH + 1  # of the forest this login signs with
        if n > EPOCH and signature == 1:
            extra = REKEY_COST
        elif signature % PARAMS.r == 1 and signature > 1:
            extra = TREE_COST
        else:
            extra = (0, 0)
        assert login.meter == (LOGIN_COST[0] + extra[0], LOGIN_COST[1] + extra[1]), n


def verify_cost(capabilities) -> tuple[tuple[int, int], Gateway]:
    """What activating UID with ``capabilities`` costs on METER."""
    gw = Gateway(RandomSource.seeded(SEED), Key256(b"\x99" * 32))
    gw.register_user(UID, "Dora", 30, "resident", "pw", capabilities=capabilities)
    before = METER.snapshot()
    gw.owner_verify("owner", UID, "activate")
    after = METER.snapshot()
    return (after[0] - before[0], after[1] - before[1]), gw


def test_provisioning_builds_one_tree():
    """Activating a DORS user costs what a re-key does over activating one
    without DORS, and leaves the gateway side holding tree 0 alone."""
    (hashes, macs), gw = verify_cost((CAP_DORS,))
    without, _ = verify_cost(())
    assert (hashes - without[0], macs - without[1]) == REKEY_COST
    held = [bool(tree) for tree in gw.dors_registry[UID].public_key.leaf_digests]
    assert held == [True] + [False] * (PARAMS.f - 1)


# Small enough that a property example crosses several re-keys: an epoch
# is 6 logins, and 20 logins re-key three times.
SMALL = dors_auth.DorsParams(t=16, k=4, f=3, r=2)
SMALL_LOGINS = 20


def small_forests():
    """Provisions SMALL forests while active."""
    return mock.patch.object(dors_auth.dors_provision, "__defaults__", (SMALL,))


@cache
def unbroken_small_run() -> tuple[Login, ...]:
    with small_forests():
        records = tuple(drive(boot(), SMALL_LOGINS))
    # The first login and at least two re-keys sign a forest's first signature.
    assert sum(login.gateway_chain.signature_count == 1 for login in records) >= 3
    return records


@settings(max_examples=100, deadline=None)
@given(saves=st.dictionaries(st.integers(0, SMALL_LOGINS - 1), st.booleans()))
@example(saves={0: False, 5: True, 6: False, 7: False, 12: True})
def test_saves_and_restores_at_any_login_counts_change_nothing(saves):
    """Saved before login n (n in ``saves``) and restored into a fresh
    gateway, with its trees when ``saves[n]`` holds and in the tree-less
    form the CLI stores otherwise, the gateway runs every login as the
    unbroken run does: the same wire bytes, keys and chains. The side never
    holds more than one tree, in memory or in the dict. A tree-less restore
    costs its next login one tree more, unless that login builds one anyway;
    a restore with its tree costs nothing."""
    expected = unbroken_small_run()
    with small_forests():
        gw, records = boot(), []
        for n in range(SMALL_LOGINS):
            if n in saves:
                data = json.loads(persist.dumps(persist.gateway_state_to_dict(gw, with_forests=saves[n])))
                if saves[n]:
                    assert sum(map(bool, data["dors_registry"][UID]["trees"])) == 1
                restored = Gateway(RandomSource.seeded(b"\x08" * 32), gw.db_key)
                persist.restore_gateway_state(restored, data)
                restored.db, restored.src = gw.db, copy.deepcopy(gw.src)
                assert persist.gateway_state_to_dict(restored, with_forests=saves[n]) == data
                gw = restored
            (login,) = drive(gw, 1)
            records.append(login)
            builds_anyway = n % SMALL.r == 0 and n > 0
            extra = 0 if saves.get(n, True) or builds_anyway else 1
            ref = expected[n].meter
            assert login.meter == (ref[0] + extra * (2 * SMALL.t - 1), ref[1] + extra * SMALL.t), n
            assert login.held == 1
    assert_same_protocol(records, expected)


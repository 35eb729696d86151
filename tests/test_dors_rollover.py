"""The rolling DORS forest against the re-key it replaces.

While a user's last tree signs, the gateway builds the next epoch's trees,
and it drops the leaf digests of spent trees. The reference below is the
gateway's earlier re-key: nothing is dropped or built ahead, and a spent
forest is expanded whole by ``dors_provision``. Driven through
``Gateway.login`` from the same seed, both must carry the same wire bytes,
derive the same session keys and reach the same chain values; only where
in the epoch the hashing happens may differ.
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
from sshaf.errors import ForestExhausted
from sshaf.gateway import CAP_DORS, Gateway
from sshaf.primitives import METER, Key256, RandomSource

SEED = b"\x3c" * 32
UID = "dora"
PARAMS = dors_auth.DorsParams()  # what the gateway provisions
EPOCH = PARAMS.f * PARAMS.r  # logins one forest signs
LAST_TREE = range((PARAMS.f - 1) * PARAMS.r + 1, EPOCH + 1)  # logins signing with it, in an epoch
# One tree build: t leaf digests and t-1 Merkle nodes; t leaf kdfs, plus the
# kdf that re-derives the forest's seed, once per building login.
TREE_COST = (2 * PARAMS.t - 1, PARAMS.t + 1)

# SHA-256 of the 200-login transcript (every carried message, then the
# session key and chain value of each login), recorded with the re-key that
# expanded a spent forest whole.
TRANSCRIPT_200_SHA256 = "78e304c27c330b902ea3d9aaedfeafb489ed3ab20b4d066f83e074d6e36b87f0"


class FullRekeyGateway(Gateway):
    """The DORS re-key as the gateway ran it before forests rolled."""

    def run_scheme(self, scheme, uid, password, link):
        assert scheme == SCHEME_DORS
        wallet = self.wallet_for(uid)
        try:
            keys = dors_auth.dors_handshake(link, wallet.dors, self.dors_registry[uid], self.src)
        except ForestExhausted:
            wallet.dors, side = dors_auth.dors_provision(
                f"{uid}#{self.dors_epochs[uid]}", self.master_secret
            )
            wallet.dors.uid = side.uid = uid
            self.dors_registry[uid] = side
            self.dors_epochs[uid] += 1
            keys = dors_auth.dors_handshake(link, wallet.dors, side, self.src)
        assert keys[0] == keys[1]
        return keys[1]


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


def boot(cls=Gateway) -> Gateway:
    gw = cls(RandomSource.seeded(SEED), Key256(b"\x99" * 32))
    gw.register_user(UID, "Dora", 30, "resident", "pw", capabilities=(CAP_DORS,))
    gw.owner_verify("owner", UID, "activate")
    return gw


def drive(gw: Gateway, logins: int, each=lambda gw: None) -> list[Login]:
    """``logins`` granted local logins of UID, an hour apart, which all run
    DORS; ``each`` sees the gateway after every one."""
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
        records.append(Login(
            tuple(recorder.messages),
            result.session.session_key,
            gw.wallets[UID].dors.chain,
            gw.dors_registry[UID].chain,
            (after[0] - before[0], after[1] - before[1]),
        ))
        each(gw)
    return records


@cache
def reference(logins: int = 200) -> tuple[Login, ...]:
    return tuple(drive(boot(FullRekeyGateway), logins))


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


def held_trees(gw: Gateway) -> int:
    """Trees of leaf digests UID's persisted DORS entry holds."""
    entry = persist.gateway_state_to_dict(gw)["dors_registry"][UID]
    return sum(map(bool, entry["trees"]))


def test_reference_transcript_is_pinned():
    assert transcript_sha256(reference()) == TRANSCRIPT_200_SHA256


def test_200_logins_match_the_full_rekey():
    """Three re-keys and then some: the same transcript, keys and chains,
    and the METER redistribution login by login."""
    sizes = []

    def check(gw):
        sizes.append(held_trees(gw))

    records = drive(boot(), 200, check)
    expected = reference()
    assert_same_protocol(records, expected)
    assert transcript_sha256(records) == TRANSCRIPT_200_SHA256
    assert max(sizes) <= PARAMS.f + 1

    whole_forest = (PARAMS.f * (2 * PARAMS.t - 1), PARAMS.f * PARAMS.t)
    for n, (login, ref) in enumerate(zip(records, expected), start=1):
        signature = (n - 1) % EPOCH + 1  # of the forest this login signs with
        delta = (login.meter[0] - ref.meter[0], login.meter[1] - ref.meter[1])
        if n > EPOCH and signature == 1:
            # The re-key login: the reference expands a whole forest here.
            assert delta == (-whole_forest[0], -whole_forest[1]), n
        elif signature in LAST_TREE:
            assert delta == TREE_COST, n
        else:
            assert delta == (0, 0), n  # no tree is built on the p50 path


def test_meter_totals_agree_at_each_epoch_boundary():
    """Over a whole epoch the hashing is the same; the macs differ only by
    the kdf that re-derives the next epoch's seed at each building login,
    f of them per epoch with the default one tree per login."""
    records = drive(boot(), 3 * EPOCH + 1)
    expected = reference()
    for epochs in (1, 2, 3):
        boundary = epochs * EPOCH + 1  # through the re-key login
        total = [sum(login.meter[i] for login in records[:boundary]) for i in (0, 1)]
        ref_total = [sum(login.meter[i] for login in expected[:boundary]) for i in (0, 1)]
        assert total[0] == ref_total[0]
        assert total[1] == ref_total[1] + epochs * PARAMS.f


def needed_tree(entry: dict) -> int:
    """The position in ``entry["trees"]`` of the tree the next login signs
    with: the one its chain names, or at a re-key the next forest's first."""
    return min(entry["chain"]["signature_count"] // PARAMS.r, PARAMS.f)


@settings(max_examples=20, deadline=None)
@given(logins=st.integers(0, 3 * EPOCH), mask=st.integers(0, (1 << 2 * PARAMS.f) - 1))
@example(logins=EPOCH, mask=1 << PARAMS.f)  # the re-key, the next forest's first tree blanked
@example(logins=EPOCH - 1, mask=(1 << 2 * PARAMS.f) - 1)  # the last tree's last login, all blanked
def test_any_login_count_persists_and_continues_as_the_full_rekey(logins, mask):
    """After any number of logins in up to three epochs, the gateway state
    survives a save and load in either form. With every tree in the dict,
    the next login matches the reference at the cost it has in process. In
    the tree-less form the CLI stores, the next min(EPOCH + 1, 200 - n)
    logins, across a re-key, still match the reference; the first builds
    the tree it signs with, one tree and one ``dors_seed`` kdf more than in
    process, so two trees when it signs with the last tree. With any subset
    of the trees blanked (bit i of ``mask`` blanks ``trees[i]``), the same
    logins match too, and the first costs one tree more than in process if
    the tree it signs with was blanked, and nothing more otherwise."""
    gw = boot()
    records = drive(gw, logins)
    full = json.loads(persist.dumps(persist.gateway_state_to_dict(gw)))
    bare = json.loads(persist.dumps(persist.gateway_state_to_dict(gw, with_forests=False)))
    masked = copy.deepcopy(full)
    entry = masked["dors_registry"][UID]
    entry["trees"] = ["" if mask >> i & 1 else tree for i, tree in enumerate(entry["trees"])]
    assert held_trees(gw) <= PARAMS.f + 1

    def restore(data) -> Gateway:
        restored = Gateway(RandomSource.seeded(b"\x08" * 32), gw.db_key)
        persist.restore_gateway_state(restored, data)
        restored.db, restored.src = gw.db, copy.deepcopy(gw.src)
        return restored

    whole, treeless, partial = restore(full), restore(bare), restore(masked)
    assert persist.gateway_state_to_dict(whole) == full
    assert persist.gateway_state_to_dict(treeless, with_forests=False) == bare
    assert persist.gateway_state_to_dict(partial) == masked
    in_process = drive(whole, 1)
    assert_same_protocol(records + in_process, reference()[: logins + 1])
    after = drive(treeless, min(EPOCH + 1, 200 - logins))
    assert_same_protocol(records + after, reference()[: logins + len(after)])
    assert after[0].meter == tuple(m + c for m, c in zip(in_process[0].meter, TREE_COST))
    if logins % EPOCH + 1 in LAST_TREE:
        assert after[0].meter == tuple(m + 2 * c for m, c in zip(reference()[logins].meter, TREE_COST))
    after = drive(partial, min(EPOCH + 1, 200 - logins))
    assert_same_protocol(records + after, reference()[: logins + len(after)])
    blanked = mask >> needed_tree(entry) & 1
    assert after[0].meter == tuple(m + blanked * c for m, c in zip(in_process[0].meter, TREE_COST))


def test_state_without_trees_built_ahead_rekeys_in_full():
    """A state written before forests rolled holds every tree and nothing
    built ahead, even in the last tree: it loads, the logins left in the
    last tree build ahead, and the re-key builds only the rest."""
    gw = boot()
    drive(gw, EPOCH - 2)
    data = persist.gateway_state_to_dict(gw)
    entry = data["dors_registry"][UID]
    _, whole = dors_auth.dors_provision(f"{UID}#0", gw.master_secret)
    entry["trees"] = [tree.hex() for tree in whole.public_key.leaf_digests]
    del entry["next_roots"]
    restored = Gateway(RandomSource.seeded(b"\x08" * 32), gw.db_key)
    persist.restore_gateway_state(restored, data)
    restored.db = gw.db
    restored.src = gw.src
    records = drive(restored, 4)  # two in the last tree, the re-key, one more
    assert_same_protocol(records, reference()[EPOCH - 2 : EPOCH + 2])
    rekey = reference()[EPOCH].meter
    built_before = 2  # by the two logins left in the last tree
    assert records[2].meter == (
        rekey[0] - built_before * (2 * PARAMS.t - 1),
        rekey[1] - built_before * PARAMS.t,
    )

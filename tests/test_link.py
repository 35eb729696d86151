"""Each scheme's handshake driver gives the same result over the in-process
loopback as over the simulated network, and every message position of a
run can be dropped."""

import pytest

from sshaf import dhs_auth, dors_auth, merkle_auth, persist
from sshaf.harness.simnet import LINK_LOCAL, MessageDropped, SimClock, SimConfig, SimLink, Transcript
from sshaf.link import USER, Loopback
from sshaf.primitives import Key256, RandomSource

SEEDS = (b"\x31" * 32, b"\x32" * 32, b"\x33" * 32)
SMALL_DORS = dors_auth.DorsParams(t=16, k=4, f=2, r=2)


class MhtPair:
    MESSAGES = 4

    def __init__(self, seed):
        self.src = RandomSource.seeded(seed)
        self.registry = {}
        self.user, self.gateway = merkle_auth.mht_register(
            self.registry, "alice", Key256(self.src.read(32))
        )

    def handshake(self, link):
        return merkle_auth.mht_handshake(link, self.user, self.registry, self.src)

    def state(self):
        return [persist.dumps(persist.mht_state_to_dict(s)) for s in (self.user, self.gateway)]


class DorsPair:
    MESSAGES = 2

    def __init__(self, seed):
        self.src = RandomSource.seeded(seed)
        self.user, self.gateway = dors_auth.dors_provision(
            "alice", Key256(self.src.read(32)), SMALL_DORS
        )

    def handshake(self, link):
        return dors_auth.dors_handshake(link, self.user, self.gateway, self.src)

    def state(self):
        return [
            persist.dumps(persist.dors_user_to_dict(self.user)),
            persist.dumps(persist.dors_gateway_to_dict(self.gateway)),
        ]


class DhsPair:
    MESSAGES = 4

    def __init__(self, seed):
        self.src = RandomSource.seeded(seed)
        home = dhs_auth.dhs_initialize(self.src)
        self.edge = dhs_auth.EdgeServer()
        self.card = dhs_auth.dhs_register(home, self.edge, "alice", "pw", self.src)

    def handshake(self, link):
        return dhs_auth.dhs_handshake(link, self.card, self.edge, "pw", self.src)

    def state(self):
        return [
            persist.dumps(persist.card_to_dict(self.card)),
            persist.dumps(persist.edge_server_to_dict(self.edge)),
        ]


PAIRS = (MhtPair, DorsPair, DhsPair)


class DropAt:
    """Drop stream that drops only the message at ``position``."""

    def __init__(self, position):
        self.position = position
        self.draws = 0

    def read(self, n):
        drop = self.draws == self.position
        self.draws += 1
        return (b"\x00" if drop else b"\xff") * n


def sim_link(drop_stream=None, drop_rate=0.0):
    config = SimConfig(drop_rate=drop_rate)
    return SimLink(config, LINK_LOCAL, SimClock(), Transcript(), drop_stream)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
def test_driver_agrees_over_loopback_and_simlink(pair, seed):
    local, remote = pair(seed), pair(seed)
    loopback, link = Loopback(), sim_link()
    local_keys = local.handshake(loopback)
    remote_keys = remote.handshake(link)
    assert local_keys[0] == local_keys[1]
    assert local_keys == remote_keys
    assert local.state() == remote.state()
    delivered = [
        e.data for e in link.transcript.events if e.sender == USER and e.outcome == "delivered"
    ]
    assert delivered == [m.encode() for sender, m in loopback.carried if sender == USER]
    assert len(loopback.carried) == link.messages == pair.MESSAGES


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
def test_every_drop_position_stops_the_run_there(pair):
    for position in range(pair.MESSAGES):
        link = sim_link(DropAt(position), drop_rate=0.5)
        with pytest.raises(MessageDropped):
            pair(SEEDS[0]).handshake(link)
        assert link.messages == position
        assert [e.outcome for e in link.transcript.events] == ["delivered"] * position + ["dropped"]

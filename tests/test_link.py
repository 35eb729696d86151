"""Each scheme's handshake driver gives the same result over the in-process
loopback as over the simulated network, every message position of a run
can be dropped, and every handshake message's decoder accepts exactly the
bytes its encoder writes. The drops come from ``DropAt``, a simulated link
that loses the message at one position; ``RecordingLink`` keeps what the
simulated link delivered, which the link itself does not."""

from functools import partial
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf import dhs_auth, dors_auth, merkle_auth, persist
from sshaf.errors import Busy, MalformedPacket, UserAuthFailed
from sshaf.harness.simnet import LINK_LOCAL, SimLink
from sshaf.link import USER, Loopback, Reader
from sshaf.primitives import Digest256, Key256, Nonce128, RandomSource, random_key

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
        master = random_key(self.src)
        self.edge = dhs_auth.EdgeServer()
        self.card = dhs_auth.dhs_register(master, self.edge, "alice", "pw", self.src)

    def handshake(self, link):
        return dhs_auth.dhs_handshake(link, self.card, self.edge, "pw", self.src)

    def state(self):
        return [
            persist.dumps(persist.card_to_dict(self.card)),
            persist.dumps(persist.edge_server_to_dict(self.edge)),
        ]


PAIRS = (MhtPair, DorsPair, DhsPair)


class MessageDropped(Exception):
    """The link lost a message."""


class DropAt(SimLink):
    """A simulated link that delivers every message up to ``position`` and
    loses that one: the run stops there."""

    def __init__(self, position):
        super().__init__(LINK_LOCAL)
        self.position = position

    def send(self, sender, receiver, data):
        if self.messages == self.position:
            raise MessageDropped(f"{sender} -> {receiver}")
        return super().send(sender, receiver, data)


class RecordingLink(SimLink):
    """A simulated link that records each ``(sender, data)`` it delivers."""

    def __init__(self):
        super().__init__(LINK_LOCAL)
        self.delivered = []

    def send(self, sender, receiver, data):
        self.delivered.append((sender, data))
        return super().send(sender, receiver, data)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
def test_driver_agrees_over_loopback_and_simlink(pair, seed):
    local, remote = pair(seed), pair(seed)
    loopback, link = Loopback(), RecordingLink()
    local_keys = local.handshake(loopback)
    remote_keys = remote.handshake(link)
    assert local_keys[0] == local_keys[1]
    assert local_keys == remote_keys
    assert local.state() == remote.state()
    delivered = [data for sender, data in link.delivered if sender == USER]
    assert delivered == [m.encode() for sender, m in loopback.carried if sender == USER]
    assert len(loopback.carried) == link.messages == pair.MESSAGES


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.__name__)
def test_every_drop_position_stops_the_run_there(pair):
    for position in range(pair.MESSAGES):
        link = DropAt(position)
        with pytest.raises(MessageDropped):
            pair(SEEDS[0]).handshake(link)
        assert link.messages == position


class FlipM3(Loopback):
    """Loopback that hands the gateway an M3 with one tag bit flipped."""

    def carry(self, sender, receiver, message, decode):
        if isinstance(message, merkle_auth.MhtM3):
            tag = message.tag_u.bytes
            message = merkle_auth.MhtM3(Digest256(bytes([tag[0] ^ 1]) + tag[1:]))
        return super().carry(sender, receiver, message, decode)


def assert_next_mht_run_succeeds(pair):
    user_key, gateway_key = pair.handshake(Loopback())
    assert user_key == gateway_key
    assert pair.user.txn_counter == pair.gateway.txn_counter == 1


@pytest.mark.parametrize("position", [0, 1, 2])
def test_mht_run_lost_before_the_gateway_commits_leaves_nothing_pending(position):
    pair = MhtPair(SEEDS[0])
    with pytest.raises(MessageDropped):
        pair.handshake(DropAt(position))
    assert pair.user.pending is None
    assert_next_mht_run_succeeds(pair)


def test_mht_run_whose_m3_the_gateway_rejects_leaves_nothing_pending():
    pair = MhtPair(SEEDS[0])
    with pytest.raises(UserAuthFailed):
        pair.handshake(FlipM3())
    assert pair.user.pending is None
    assert_next_mht_run_succeeds(pair)


def test_mht_run_lost_at_m4_still_blocks_the_next_run():
    # The gateway has committed and the user keeps its candidate: recovering
    # needs the authenticated resync of ROADMAP's loss-tolerant commits, which
    # is not built yet.
    pair = MhtPair(SEEDS[0])
    with pytest.raises(MessageDropped):
        pair.handshake(DropAt(3))
    assert pair.user.pending is not None
    with pytest.raises(Busy):
        pair.handshake(Loopback())


# --- decoders -------------------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None)

digests = st.binary(min_size=32, max_size=32).map(Digest256)
nonces = st.binary(min_size=16, max_size=16).map(Nonce128)
uids = st.text(max_size=40)


def signatures(params):
    k = params.k
    return st.builds(
        dors_auth.DorsSignature,
        st.integers(0, 2**16 - 1),
        st.lists(st.integers(0, 2**16 - 1), min_size=k, max_size=k),
        st.binary(min_size=32 * k, max_size=32 * k).map(
            lambda raw: [Key256(raw[32 * i : 32 * i + 32]) for i in range(k)]
        ),
    )


def tagged_bytes(type_tag):
    """Random bytes, half of them behind the right type tag."""
    return st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(lambda b: bytes([type_tag]) + b))


def sized_bytes(size):
    """Random bytes, some of them exactly ``size`` long."""
    return st.one_of(st.binary(max_size=size + 8), st.binary(min_size=size, max_size=size))


class Codec(NamedTuple):
    messages: st.SearchStrategy
    decode: Callable
    raw: st.SearchStrategy  # random bytes, now and then a valid frame


WIRE_PARAMS = [dors_auth.DorsParams(t=4, k=2, f=2, r=1), dors_auth.DorsParams()]
m1s = st.builds(merkle_auth.MhtM1, uids, nonces, st.integers(0, 2**64 - 1))
proofs = st.builds(merkle_auth.MerkleProof, st.integers(0, 2**32 - 1), st.lists(digests, max_size=12))
login_requests = st.builds(
    dhs_auth.LoginRequest,
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1).map(dhs_auth.InterfaceIdentifier),
    uids,
    nonces,
    digests,
)
# A record of random bytes behind a random address and its own length.
framed_records = st.tuples(st.binary(min_size=16, max_size=16), st.binary(max_size=100)).map(
    lambda parts: parts[0] + len(parts[1]).to_bytes(4, "big") + parts[1]
)
CODECS = {
    "MhtM1": Codec(m1s, merkle_auth.MhtM1.decode, tagged_bytes(merkle_auth.M1_TYPE)),
    "MhtM2": Codec(
        st.builds(merkle_auth.MhtM2, nonces, proofs, digests, digests),
        merkle_auth.MhtM2.decode,
        tagged_bytes(merkle_auth.M2_TYPE),
    ),
    "MhtM3": Codec(
        st.builds(merkle_auth.MhtM3, digests), merkle_auth.MhtM3.decode, tagged_bytes(merkle_auth.M3_TYPE)
    ),
    "MhtM4": Codec(
        st.builds(merkle_auth.MhtM4, digests), merkle_auth.MhtM4.decode, tagged_bytes(merkle_auth.M4_TYPE)
    ),
    **{
        f"DorsSignature-t{params.t}-k{params.k}": Codec(
            signatures(params),
            partial(dors_auth.DorsSignature.decode, params=params),
            sized_bytes(2 + 34 * params.k),
        )
        for params in WIRE_PARAMS
    },
    "LoginRequest": Codec(
        login_requests, dhs_auth.LoginRequest.decode, st.one_of(st.binary(max_size=120), framed_records)
    ),
    "Challenge": Codec(
        st.builds(dhs_auth.Challenge, uids, nonces), dhs_auth.Challenge.decode, st.binary(max_size=120)
    ),
    "ConfirmMessage": Codec(
        st.builds(dhs_auth.ConfirmMessage, uids, digests),
        dhs_auth.ConfirmMessage.decode,
        st.binary(max_size=120),
    ),
    "AckMessage": Codec(
        st.builds(dhs_auth.AckMessage, digests), dhs_auth.AckMessage.decode, st.binary(max_size=120)
    ),
    "Nonce128": Codec(nonces, Nonce128.decode, sized_bytes(16)),
}
each_codec = pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS.keys())


@each_codec
@PROPERTY
@given(data=st.data())
def test_decode_inverts_encode(codec, data):
    msg = data.draw(codec.messages)
    assert codec.decode(msg.encode()) == msg


@each_codec
@PROPERTY
@given(data=st.data())
def test_truncated_or_extended_frames_rejected(codec, data):
    wire = data.draw(codec.messages).encode()
    cut = data.draw(st.integers(0, len(wire) - 1))
    with pytest.raises(MalformedPacket):
        codec.decode(wire[:cut])
    with pytest.raises(MalformedPacket):
        codec.decode(wire + data.draw(st.binary(min_size=1, max_size=40)))


@each_codec
@PROPERTY
@given(data=st.data())
def test_random_bytes_decode_canonically_or_raise_malformed(codec, data):
    raw = data.draw(codec.raw)
    try:
        msg = codec.decode(raw)
    except MalformedPacket:
        return
    assert msg.encode() == raw


def test_reader_reads_fields_in_turn_and_rejects_bad_framing_naming_the_message():
    r = Reader(b"\x02\x00\x03bob\x01\x02!", "frame").tagged(2)
    assert (r.uid(), r.int(2), r.take(1)) == ("bob", 0x0102, b"!")
    assert r.done("message") == "message"
    for data, read in (
        (b"\x01", lambda r: r.tagged(2)),  # wrong type tag
        (b"\x00\x02b", lambda r: r.uid()),  # uid runs past the end
        (b"\x00\x01\xff", lambda r: r.uid()),  # uid is not UTF-8
        (b"\x00", lambda r: r.int(2)),  # integer runs past the end
        (b"", lambda r: r.tagged(2)),  # no type tag at all
        (b"\x00\x00", lambda r: r.done(r.take(1))),  # a byte left over
    ):
        with pytest.raises(MalformedPacket, match="frame"):
            read(Reader(data, "frame"))

"""Smart-card scheme tests: addressing, the six phases, identifier
rotation, and the lockout rule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf.errors import (
    AgreeFailed,
    AlreadyRegistered,
    CardLocked,
    IdentifierMismatch,
    LocalAuthFailed,
    MalformedPacket,
    TagInvalid,
)
from sshaf.dhs_auth import (
    AckMessage,
    Challenge,
    ConfirmMessage,
    EdgeServer,
    InterfaceIdentifier,
    Ipv6Packet,
    dhs_card_confirm,
    dhs_decapsulate,
    dhs_edge_complete,
    dhs_edge_verify,
    dhs_encapsulate,
    dhs_generate_iid,
    dhs_initialize,
    dhs_login,
    dhs_register,
    dhs_session_agree,
)
from sshaf.link import Loopback
from sshaf.primitives import Digest256, Key256, Nonce128, RandomSource, hash_bytes


def make_world(seed=b"\x21"):
    src = RandomSource.seeded(seed * 32)
    home = dhs_initialize(src)
    edge = EdgeServer()
    card = dhs_register(home, edge, "bob", "hunter2", src)
    return src, home, edge, card


def run_session(card, edge, src, password="hunter2"):
    request = dhs_login(card, card.uid, password, src)
    challenge = dhs_edge_verify(edge, request.encode(), src)
    return dhs_session_agree(Loopback(), card, edge, challenge)


# --- initialization / registration ---------------------------------------

def test_initialize_reproducible_from_seed():
    a = dhs_initialize(RandomSource.seeded(b"\x01" * 32))
    b = dhs_initialize(RandomSource.seeded(b"\x01" * 32))
    c = dhs_initialize(RandomSource.seeded(b"\x02" * 32))
    assert a.master_secret == b.master_secret
    assert a.master_secret != c.master_secret
    assert a.registered == set()


def test_register_aligns_card_and_edge_identifiers():
    _, home, edge, card = make_world()
    assert edge.db["bob"].current_iid == card.current_iid
    assert "bob" in home.registered


def test_register_duplicate():
    src, home, edge, _ = make_world()
    with pytest.raises(AlreadyRegistered):
        dhs_register(home, edge, "bob", "other", src)


def test_card_secret_differs_from_edge_share():
    _, _, edge, card = make_world()
    assert card.card_secret != edge.db["bob"].edge_share


def test_home_server_keeps_no_session_table():
    _, home, _, _ = make_world()
    assert set(vars(home)) == {"master_secret", "registered"}


# --- addressing -----------------------------------------------------------

def test_iid_deterministic_and_nonce_sensitive():
    secret = Key256(b"\x05" * 32)
    n1 = Nonce128(b"\x01" * 16)
    n2 = Nonce128(b"\x02" * 16)
    assert dhs_generate_iid("bob", n1, secret) == dhs_generate_iid("bob", n1, secret)
    assert dhs_generate_iid("bob", n1, secret) != dhs_generate_iid("bob", n2, secret)
    assert 0 <= dhs_generate_iid("bob", n1, secret).iid < 1 << 64


def test_iid_is_leading_8_bytes_of_digest():
    secret = Key256(b"\x05" * 32)
    nonce = Nonce128(b"\x01" * 16)
    digest = hash_bytes(secret.bytes + b"bob" + nonce.bytes)
    assert dhs_generate_iid("bob", nonce, secret).to_bytes() == digest.bytes[:8]


def test_encapsulate_zero_iid():
    packet = dhs_encapsulate(b"req", InterfaceIdentifier(0))
    assert packet.encode()[8:16] == b"\x00" * 8


def test_encapsulate_decapsulate_inverse():
    rng = RandomSource.seeded(b"\x03" * 32)
    for _ in range(20):
        iid = InterfaceIdentifier(int.from_bytes(rng.read(8), "big"))
        payload = rng.read(int.from_bytes(rng.read(2), "big") % 4096)
        packet = dhs_encapsulate(payload, iid, prefix=0x20010DB8_0000_0042)
        out_iid, out_payload = dhs_decapsulate(packet.encode())
        assert out_iid == iid
        assert out_payload == payload


def test_prefix_does_not_affect_extracted_iid():
    iid = InterfaceIdentifier(0xDEADBEEF)
    a = dhs_encapsulate(b"x", iid, prefix=0).encode()
    b = dhs_encapsulate(b"x", iid, prefix=(1 << 64) - 1).encode()
    assert dhs_decapsulate(a)[0] == dhs_decapsulate(b)[0] == iid


def test_truncated_packet_rejected():
    packet = dhs_encapsulate(b"payload", InterfaceIdentifier(7)).encode()
    with pytest.raises(MalformedPacket):
        dhs_decapsulate(packet[:12])
    with pytest.raises(MalformedPacket):
        dhs_decapsulate(packet[:-2])


# --- login ------------------------------------------------------------------

def test_login_carries_current_iid():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    iid, _ = dhs_decapsulate(request.encode())
    assert iid == card.current_iid


def test_wrong_password_emits_nothing_and_counts():
    src, _, _, card = make_world()
    with pytest.raises(LocalAuthFailed):
        dhs_login(card, "bob", "wrong", src)
    assert card.failed_attempts == 1
    assert card.pending_n_u is None


def test_three_strikes_locks_card():
    src, _, _, card = make_world()
    for _ in range(2):
        with pytest.raises(LocalAuthFailed):
            dhs_login(card, "bob", "wrong", src)
    with pytest.raises(CardLocked):
        dhs_login(card, "bob", "wrong", src)
    # Locked even with the right password now.
    with pytest.raises(CardLocked):
        dhs_login(card, "bob", "hunter2", src)


def test_successful_login_resets_strike_counter():
    src, _, edge, card = make_world()
    with pytest.raises(LocalAuthFailed):
        dhs_login(card, "bob", "wrong", src)
    dhs_login(card, "bob", "hunter2", src)
    assert card.failed_attempts == 0


# --- edge verification --------------------------------------------------------

def test_honest_login_yields_challenge():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, request.encode(), src)
    assert challenge.uid == "bob"


def test_stale_iid_rejected_after_session():
    src, _, edge, card = make_world()
    first_request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, first_request.encode(), src)
    dhs_session_agree(Loopback(), card, edge, challenge)
    # Identifier rotated; the recorded login packet is now stale.
    with pytest.raises(IdentifierMismatch):
        dhs_edge_verify(edge, first_request.encode(), src)


def test_forged_tag_rejected():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    raw = bytearray(request.encode())
    raw[-1] ^= 0x01  # flip a tag byte
    with pytest.raises(TagInvalid):
        dhs_edge_verify(edge, bytes(raw), src)


def test_unknown_uid_rejected():
    src, _, edge, card = make_world()
    # Hand-built request for a uid the edge has never seen.
    record = b"\x00\x07mallory" + b"\x01" * 16 + hash_bytes(b"tag").bytes
    packet = dhs_encapsulate(record, card.current_iid)
    with pytest.raises(IdentifierMismatch):
        dhs_edge_verify(edge, packet.encode(), src)


# --- session agreement ----------------------------------------------------------

def test_honest_session_keys_and_iids_agree():
    src, _, edge, card = make_world()
    card_key, edge_key, new_iid = run_session(card, edge, src)
    assert card_key == edge_key
    assert card.current_iid == new_iid == edge.db["bob"].current_iid


def test_consecutive_sessions_rotate_keys_and_iids():
    src, _, edge, card = make_world()
    seen_keys, seen_iids = set(), set()
    for _ in range(5):
        card_key, edge_key, new_iid = run_session(card, edge, src)
        assert card_key == edge_key
        seen_keys.add(card_key.bytes)
        seen_iids.add(new_iid.iid)
        assert edge.db["bob"].current_iid == card.current_iid
    assert len(seen_keys) == 5
    assert len(seen_iids) == 5


def test_tampered_challenge_nonce_fails_agreement():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, request.encode(), src)
    iid_before = edge.db["bob"].current_iid
    tampered = Challenge(challenge.uid, Nonce128(bytes(16)))
    confirm, _ = dhs_card_confirm(card, tampered)
    with pytest.raises(AgreeFailed):
        dhs_edge_complete(edge, confirm)
    assert edge.db["bob"].current_iid == iid_before


def test_bad_ack_leaves_card_iid_unchanged():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, request.encode(), src)
    confirm, session = dhs_card_confirm(card, challenge)
    dhs_edge_complete(edge, confirm)
    iid_before = card.current_iid
    from sshaf.dhs_auth import dhs_card_finish
    with pytest.raises(AgreeFailed):
        dhs_card_finish(card, challenge, AckMessage(hash_bytes(b"garbage")), session)
    assert card.current_iid == iid_before


def test_wire_record_round_trips():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, request.encode(), src)
    assert Challenge.decode(challenge.encode()) == challenge
    confirm, session = dhs_card_confirm(card, challenge)
    assert ConfirmMessage.decode(confirm.encode()) == confirm
    ack, _ = dhs_edge_complete(edge, confirm)
    assert AckMessage.decode(ack.encode()) == ack


# --- decoders -------------------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None)

digests = st.binary(min_size=32, max_size=32).map(Digest256)
nonces = st.binary(min_size=16, max_size=16).map(Nonce128)
uids = st.text(max_size=40)
messages = st.one_of(
    st.builds(Challenge, uids, nonces),
    st.builds(ConfirmMessage, uids, digests),
    st.builds(AckMessage, digests),
)
DECODERS = [Challenge, ConfirmMessage, AckMessage]


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


@pytest.mark.parametrize("cls", DECODERS)
@PROPERTY
@given(raw=st.binary(max_size=120))
def test_random_bytes_decode_canonically_or_raise_malformed(cls, raw):
    try:
        msg = cls.decode(raw)
    except MalformedPacket:
        return
    assert msg.encode() == raw


@pytest.mark.parametrize("cls,body_len", [(Challenge, 16), (ConfirmMessage, 32)])
def test_uid_frames_reject_bad_uid_fields(cls, body_len):
    body = b"\x07" * body_len
    for bad in (
        b"",
        b"\x00",  # frame ends inside the uid length
        b"\x00\x05bob" + body,  # uid length runs past the frame
        b"\xff\xffbob",
        b"\x00\x03b\xffb" + body,  # uid is not UTF-8
    ):
        with pytest.raises(MalformedPacket):
            cls.decode(bad)
    assert cls.decode(b"\x00\x03bob" + body).uid == "bob"


def test_ack_rejects_trailing_bytes():
    wire = AckMessage(Digest256(b"\x09" * 32)).encode()
    with pytest.raises(MalformedPacket):
        AckMessage.decode(wire + b"\x00")


def test_edge_verify_rejects_malformed_login_record():
    src, _, edge, card = make_world()
    for record in (
        b"\x00",
        b"\x00\x40bob",
        b"\x00\x03b\xffb" + bytes(48),
        b"\x00\x03bob" + bytes(47),  # short tag
        b"\x00\x03bob" + bytes(49),  # trailing byte
    ):
        packet = dhs_encapsulate(record, card.current_iid).encode()
        with pytest.raises(MalformedPacket):
            dhs_edge_verify(edge, packet, src)

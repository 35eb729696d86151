"""Smart-card scheme tests: addressing, the six phases, identifier
rotation, and the lockout rule."""

import pytest

from sshaf.errors import (
    AgreeFailed,
    AlreadyRegistered,
    CardLocked,
    IdentifierMismatch,
    LocalAuthFailed,
    MalformedPacket,
    TagInvalid,
)
from sshaf import persist
from sshaf.dhs_auth import (
    LOCKOUT_THRESHOLD,
    AckMessage,
    Challenge,
    ConfirmMessage,
    DEFAULT_PREFIX,
    EdgeServer,
    InterfaceIdentifier,
    LoginRequest,
    dhs_card_confirm,
    dhs_edge_complete,
    dhs_edge_verify,
    dhs_generate_iid,
    dhs_login,
    dhs_register,
    dhs_session_agree,
)
from sshaf.gateway import Gateway
from sshaf.link import Loopback
from sshaf.primitives import Digest256, Key256, Nonce128, RandomSource, hash_bytes, random_key


def make_world(seed=b"\x21"):
    src = RandomSource.seeded(seed * 32)
    master = random_key(src)
    edge = EdgeServer()
    card = dhs_register(master, edge, "bob", "hunter2", src)
    return src, master, edge, card


def run_session(card, edge, src, password="hunter2"):
    request = dhs_login(card, card.uid, password, src)
    challenge = dhs_edge_verify(edge, request, src)
    return dhs_session_agree(Loopback(), card, edge, challenge)


# --- initialization / registration ---------------------------------------

def test_initialize_reproducible_from_seed():
    # Initialization is the gateway's first boot: the gateway, the home
    # server, mints its master secret, and no card is registered yet.
    a, b, c = (
        Gateway(RandomSource.seeded(seed * 32), Key256(b"\x77" * 32))
        for seed in (b"\x01", b"\x01", b"\x02")
    )
    assert a.master_secret == b.master_secret
    assert a.master_secret != c.master_secret
    assert a.edge.db == {}


def test_register_aligns_card_and_edge_identifiers():
    _, _, edge, card = make_world()
    assert edge.db["bob"].current_iid == card.current_iid
    assert "bob" in edge.db


def test_register_duplicate():
    src, master, edge, _ = make_world()
    with pytest.raises(AlreadyRegistered):
        dhs_register(master, edge, "bob", "other", src)


def test_card_secret_differs_from_edge_share():
    _, _, edge, card = make_world()
    assert card.card_secret != edge.db["bob"].edge_share


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


NONCE, TAG = Nonce128(b"\x01" * 16), hash_bytes(b"tag")


def test_login_request_zero_iid():
    request = LoginRequest(DEFAULT_PREFIX, InterfaceIdentifier(0), "bob", NONCE, TAG)
    assert request.encode()[8:16] == b"\x00" * 8


def test_login_request_decode_inverts_encode():
    rng = RandomSource.seeded(b"\x03" * 32)
    for _ in range(20):
        iid = InterfaceIdentifier(int.from_bytes(rng.read(8), "big"))
        uid = rng.read(int.from_bytes(rng.read(2), "big") % 4096).hex()
        request = LoginRequest(0x20010DB8_0000_0042, iid, uid, Nonce128(rng.read(16)), TAG)
        decoded = LoginRequest.decode(request.encode())
        assert decoded.iid == iid
        assert decoded == request


def test_prefix_does_not_affect_extracted_iid():
    iid = InterfaceIdentifier(0xDEADBEEF)
    a = LoginRequest(0, iid, "x", NONCE, TAG).encode()
    b = LoginRequest((1 << 64) - 1, iid, "x", NONCE, TAG).encode()
    assert LoginRequest.decode(a).iid == LoginRequest.decode(b).iid == iid


def test_truncated_login_request_rejected():
    packet = LoginRequest(DEFAULT_PREFIX, InterfaceIdentifier(7), "bob", NONCE, TAG).encode()
    with pytest.raises(MalformedPacket):
        LoginRequest.decode(packet[:12])
    with pytest.raises(MalformedPacket):
        LoginRequest.decode(packet[:-2])


# --- login ------------------------------------------------------------------

def test_login_carries_current_iid():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    assert LoginRequest.decode(request.encode()).iid == card.current_iid


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
    # Locked even with the right password now, which resets nothing.
    for _ in range(2):
        with pytest.raises(CardLocked):
            dhs_login(card, "bob", "hunter2", src)
    assert (card.failed_attempts, card.pending_n_u) == (LOCKOUT_THRESHOLD, None)


@pytest.mark.parametrize("failures", [LOCKOUT_THRESHOLD, LOCKOUT_THRESHOLD + 4])
def test_a_restored_card_past_the_threshold_is_locked(failures):
    """The lock is the failure count: a persisted card holds no separate
    flag, and one restored at or past the threshold is locked."""
    src, _, _, card = make_world()
    data = dict(persist.card_to_dict(card), failed_attempts=failures)
    assert "locked" not in data
    restored = persist.card_from_dict(data)
    for password in ("hunter2", "wrong"):
        with pytest.raises(CardLocked):
            dhs_login(restored, "bob", password, src)
    assert restored.failed_attempts == failures


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
    challenge = dhs_edge_verify(edge, request, src)
    assert challenge.uid == "bob"


def test_stale_iid_rejected_after_session():
    src, _, edge, card = make_world()
    first_request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, first_request, src)
    dhs_session_agree(Loopback(), card, edge, challenge)
    # Identifier rotated; the recorded login request is now stale.
    with pytest.raises(IdentifierMismatch):
        dhs_edge_verify(edge, first_request, src)


def test_forged_tag_rejected():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    raw = bytearray(request.encode())
    raw[-1] ^= 0x01  # flip a tag byte
    with pytest.raises(TagInvalid):
        dhs_edge_verify(edge, LoginRequest.decode(bytes(raw)), src)


def test_unknown_uid_rejected():
    src, _, edge, card = make_world()
    # Hand-built request for a uid the edge has never seen.
    request = LoginRequest(DEFAULT_PREFIX, card.current_iid, "mallory", NONCE, TAG)
    with pytest.raises(IdentifierMismatch):
        dhs_edge_verify(edge, request, src)


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
    challenge = dhs_edge_verify(edge, request, src)
    iid_before = edge.db["bob"].current_iid
    tampered = Challenge(challenge.uid, Nonce128(bytes(16)))
    confirm, _ = dhs_card_confirm(card, tampered)
    with pytest.raises(AgreeFailed):
        dhs_edge_complete(edge, confirm)
    assert edge.db["bob"].current_iid == iid_before


def test_bad_ack_leaves_card_iid_unchanged():
    src, _, edge, card = make_world()
    request = dhs_login(card, "bob", "hunter2", src)
    challenge = dhs_edge_verify(edge, request, src)
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
    challenge = dhs_edge_verify(edge, request, src)
    assert Challenge.decode(challenge.encode()) == challenge
    confirm, session = dhs_card_confirm(card, challenge)
    assert ConfirmMessage.decode(confirm.encode()) == confirm
    ack, _ = dhs_edge_complete(edge, confirm)
    assert AckMessage.decode(ack.encode()) == ack


# --- decoders -------------------------------------------------------------------
# The round-trip, truncation and random-bytes properties of every decoder are
# in tests/test_link.py; the cases here are the DHS messages' own.

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


def test_malformed_login_record_is_rejected_at_decode():
    iid = InterfaceIdentifier(7).to_bytes()
    for record in (
        b"\x00",
        b"\x00\x40bob",
        b"\x00\x03b\xffb" + bytes(48),
        b"\x00\x03bob" + bytes(47),  # short tag
        b"\x00\x03bob" + bytes(49),  # trailing byte
    ):
        packet = bytes(8) + iid + len(record).to_bytes(4, "big") + record
        with pytest.raises(MalformedPacket):
            LoginRequest.decode(packet)

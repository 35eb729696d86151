"""Lifecycle, decision wiring, and encrypted persistence tests."""

import hashlib
import json

import pytest

from sshaf import persist
from sshaf.context_engine import (
    DENY,
    GRANT,
    IP_HOME,
    IP_KNOWN,
    IP_UNKNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    SCHEME_DHS,
    SCHEME_DORS,
    SCHEME_MHT,
    STEP_UP,
    AccessPolicy,
    CalendarInterval,
    ContextSnapshot,
)
from sshaf.errors import (
    AlreadyRegistered,
    AuthFailed,
    AuthenticatedDecryptionFailed,
    Forbidden,
    InvalidTransition,
    NotVerified,
    SessionExpired,
    UnknownDevice,
    UnknownUser,
)
from sshaf.gateway import (
    CAP_CARD,
    CAP_DORS,
    Gateway,
    UsageRecord,
    UserDatabase,
    UserProfile,
    _keystream,
    decrypt_db,
    encrypt_db,
    load_db,
    store_db,
)
from sshaf.primitives import METER, Key256, Nonce128, RandomSource

DB_KEY = Key256(b"\x99" * 32)
WORK_CAL = [CalendarInterval(weekday=d, start_minute=8 * 60, end_minute=22 * 60) for d in range(7)]


def make_gateway(seed=b"\x30"):
    return Gateway(RandomSource.seeded(seed * 32), DB_KEY)


def good_snapshot(uid="alice", **kwargs):
    defaults = dict(
        origin=ORIGIN_LOCAL,
        ip_class=IP_HOME,
        bluetooth_present=True,
        timestamp=2 * 1440 + 10 * 60,  # weekday 2, 10:00
    )
    defaults.update(kwargs)
    return ContextSnapshot(uid=uid, **defaults)


def register_and_activate(gw, uid="alice", password="pw-alice", role="resident", caps=()):
    gw.register_user(uid, "Alice", 30, role, password, calendar=list(WORK_CAL), capabilities=caps)
    gw.owner_verify("owner", uid, "activate")
    return gw


# --- registration and verification ------------------------------------------

def test_registration_starts_pending():
    gw = make_gateway()
    profile = gw.register_user("alice", "Alice", 30, "resident", "pw")
    assert profile.status == "pending"


def test_login_while_pending_not_verified():
    gw = make_gateway()
    gw.register_user("alice", "Alice", 30, "resident", "pw")
    with pytest.raises(NotVerified):
        gw.login("alice", "pw", good_snapshot())


def test_duplicate_registration():
    gw = make_gateway()
    gw.register_user("alice", "Alice", 30, "resident", "pw")
    with pytest.raises(AlreadyRegistered):
        gw.register_user("alice", "Alice II", 31, "guest", "pw2")


def test_unknown_user_login():
    gw = make_gateway()
    with pytest.raises(UnknownUser):
        gw.login("nobody", "pw", good_snapshot(uid="nobody"))


def test_owner_activation_provisions_mht():
    gw = make_gateway()
    gw.register_user("alice", "Alice", 30, "guest", "pw")
    profile = gw.owner_verify("owner", "alice", "activate")
    assert profile.status == "active"
    assert gw.wallet_for("alice").mht is not None
    assert "alice" in gw.mht_registry


def test_capability_flags_control_extra_provisioning():
    gw = make_gateway()
    gw.register_user("carol", "Carol", 35, "resident", "pw", capabilities=(CAP_DORS, CAP_CARD))
    gw.owner_verify("owner", "carol", "activate")
    wallet = gw.wallet_for("carol")
    assert wallet.dors is not None
    assert wallet.card is not None


def test_non_owner_cannot_verify():
    gw = make_gateway()
    register_and_activate(gw, "resident1", role="resident")
    gw.register_user("dave", "Dave", 20, "guest", "pw")
    with pytest.raises(Forbidden):
        gw.owner_verify("resident1", "dave", "activate")


def test_activating_active_user_is_invalid_transition():
    gw = make_gateway()
    register_and_activate(gw)
    with pytest.raises(InvalidTransition):
        gw.owner_verify("owner", "alice", "activate")


def test_reject_discards_pending_card():
    gw = make_gateway()
    gw.register_user("eve", "Eve", 28, "guest", "pw", capabilities=(CAP_CARD,))
    assert "eve" in gw.edge.db
    gw.owner_verify("owner", "eve", "reject")
    assert "eve" not in gw.edge.db
    assert "eve" not in gw.home.registered


# --- login ----------------------------------------------------------------------

def test_local_login_grants_session_via_mht():
    gw = make_gateway()
    register_and_activate(gw)
    result = gw.login("alice", "pw-alice", good_snapshot())
    assert result.status == GRANT
    assert result.session.scheme == SCHEME_MHT
    assert result.session.session_key is not None
    assert gw.mht_registry["alice"].txn_counter == 1


def test_internet_login_with_card_uses_dhs():
    gw = make_gateway()
    register_and_activate(gw, caps=(CAP_CARD,))
    snapshot = good_snapshot(origin=ORIGIN_INTERNET, ip_class=IP_KNOWN, bluetooth_present=False)
    result = gw.login("alice", "pw-alice", snapshot)
    assert result.status == GRANT
    assert result.session.scheme == SCHEME_DHS


def test_fresh_local_dors_user_uses_dors():
    gw = make_gateway()
    register_and_activate(gw, caps=(CAP_DORS,))
    result = gw.login("alice", "pw-alice", good_snapshot())
    assert result.status == GRANT
    assert result.session.scheme == SCHEME_DORS


def test_tampered_protocol_state_fails_regardless_of_confidence():
    gw = make_gateway()
    register_and_activate(gw)
    gw.mht_registry["alice"].shared_key = Key256(b"\x00" * 32)
    with pytest.raises(AuthFailed):
        gw.login("alice", "pw-alice", good_snapshot())


def test_wrong_password_lowers_confidence_to_step_up_or_deny():
    gw = make_gateway()
    register_and_activate(gw)
    snap = good_snapshot(bluetooth_present=False, ip_class=IP_UNKNOWN, timestamp=0)
    result = gw.login("alice", "not-the-password", snap)
    assert result.status == DENY


def test_step_up_band_issues_single_use_retry_token():
    gw = make_gateway()
    register_and_activate(gw)
    # credentials .40 + history neutral .05 = .45: inside [0.30, 0.50).
    snap = good_snapshot(bluetooth_present=False, ip_class=IP_UNKNOWN, timestamp=0)
    first = gw.login("alice", "pw-alice", snap)
    assert first.status == STEP_UP
    assert first.retry_token
    # Context unchanged on retry: one retry maximum, then deny.
    second = gw.login("alice", "pw-alice", snap, retry_token=first.retry_token)
    assert second.status == DENY
    assert "exhausted" in second.reason


def test_step_up_retry_with_better_context_grants():
    gw = make_gateway()
    register_and_activate(gw)
    snap = good_snapshot(bluetooth_present=False, ip_class=IP_UNKNOWN, timestamp=0)
    first = gw.login("alice", "pw-alice", snap)
    assert first.status == STEP_UP
    improved = gw.login("alice", "pw-alice", good_snapshot(), retry_token=first.retry_token)
    assert improved.status == GRANT


def test_sessions_use_exactly_one_scheme():
    gw = make_gateway()
    register_and_activate(gw, caps=(CAP_CARD, CAP_DORS))
    local = gw.login("alice", "pw-alice", good_snapshot())
    remote = gw.login(
        "alice",
        "pw-alice",
        good_snapshot(origin=ORIGIN_INTERNET, ip_class=IP_KNOWN, bluetooth_present=False),
    )
    assert local.session.scheme in (SCHEME_MHT, SCHEME_DORS)
    assert remote.session.scheme == SCHEME_DHS
    assert local.session.scheme != ""  # scheme fixed at grant time


# --- device access -----------------------------------------------------------------

def grant_session(gw, uid="alice", **snapshot_kwargs):
    result = gw.login(uid, f"pw-{uid}", good_snapshot(uid=uid, **snapshot_kwargs))
    assert result.status == GRANT, result
    return result.session


def test_device_access_grant_and_deny_by_threshold():
    gw = make_gateway()
    register_and_activate(gw)
    session = grant_session(gw)
    # Full-context confidence 0.95 clears the camera's 0.8.
    assert gw.authorize_device_access(session, "porch-camera", good_snapshot()) == GRANT
    # Weak context (cred .4 + hist ~.05) against the lock's 0.9: deny.
    weak = good_snapshot(bluetooth_present=False, ip_class=IP_UNKNOWN, timestamp=0)
    assert gw.authorize_device_access(session, "front-lock", weak) == DENY


def test_usage_log_grows_by_one_per_authorization():
    gw = make_gateway()
    register_and_activate(gw)
    session = grant_session(gw)
    before = len(gw.db.usage_patterns)
    gw.authorize_device_access(session, "thermostat", good_snapshot())
    gw.authorize_device_access(session, "porch-camera", good_snapshot())
    assert len(gw.db.usage_patterns) == before + 2


def test_session_ttl_exact_boundary():
    gw = make_gateway()
    register_and_activate(gw)
    session = grant_session(gw)
    gw.advance_time(30)
    assert gw.authorize_device_access(session, "thermostat", good_snapshot()) == GRANT
    gw.advance_time(1)
    with pytest.raises(SessionExpired):
        gw.authorize_device_access(session, "thermostat", good_snapshot())


def test_unknown_device_rejected():
    gw = make_gateway()
    register_and_activate(gw)
    session = grant_session(gw)
    with pytest.raises(UnknownDevice):
        gw.authorize_device_access(session, "toaster", good_snapshot())


def test_internet_origin_role_allowlist():
    gw = make_gateway()
    register_and_activate(gw, caps=(CAP_CARD,))
    snapshot = good_snapshot(origin=ORIGIN_INTERNET, ip_class=IP_KNOWN, bluetooth_present=False)
    result = gw.login("alice", "pw-alice", snapshot)
    session = result.session
    # Residents may reach the thermostat from outside, never the lock.
    assert gw.authorize_device_access(session, "front-lock", snapshot) == DENY
    decision = gw.authorize_device_access(session, "thermostat", snapshot)
    assert decision in (GRANT, STEP_UP)


def test_foreign_session_object_rejected():
    gw = make_gateway()
    register_and_activate(gw)
    session = grant_session(gw)
    gw.sessions.clear()  # revoked behind the caller's back
    with pytest.raises(SessionExpired):
        gw.authorize_device_access(session, "thermostat", good_snapshot())


def test_login_purges_sessions_past_ttl_and_keeps_live_ones():
    gw = make_gateway()
    register_and_activate(gw)
    first = grant_session(gw)
    gw.advance_time(10)
    second = grant_session(gw)
    gw.advance_time(20)  # first is exactly at the TTL: still live
    third = grant_session(gw)
    assert list(gw.sessions) == [first.session_id, second.session_id, third.session_id]
    gw.advance_time(1)  # first is one minute past the TTL
    fourth = grant_session(gw)
    assert list(gw.sessions) == [second.session_id, third.session_id, fourth.session_id]


def test_session_purged_by_login_still_raises_session_expired():
    gw = make_gateway()
    register_and_activate(gw)
    stale = grant_session(gw)
    gw.advance_time(31)
    grant_session(gw)
    assert stale.session_id not in gw.sessions
    with pytest.raises(SessionExpired):
        gw.authorize_device_access(stale, "thermostat", good_snapshot())


def test_persisted_state_holds_only_live_sessions():
    gw = make_gateway()
    register_and_activate(gw)
    grant_session(gw)
    gw.advance_time(31)
    live = grant_session(gw)
    state = json.loads(persist.dumps(persist.gateway_state_to_dict(gw)))
    assert list(state["sessions"]) == [live.session_id]
    restored = make_gateway(b"\x31")
    persist.restore_gateway_state(restored, state)
    assert list(restored.sessions) == [live.session_id]


# --- encrypted persistence ------------------------------------------------------------

def test_store_load_round_trip(tmp_path):
    gw = make_gateway()
    register_and_activate(gw)
    grant_session(gw)
    path = tmp_path / "db.enc"
    gw.save_database(path)
    assert load_db(path, DB_KEY) == gw.db


def test_load_with_wrong_key_fails(tmp_path):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    gw.save_database(path)
    with pytest.raises(AuthenticatedDecryptionFailed):
        load_db(path, Key256(b"\x98" * 32))


def test_any_flipped_ciphertext_byte_fails(tmp_path):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    gw.save_database(path)
    blob = bytearray(path.read_bytes())
    for pos in (0, 6, len(blob) // 2, len(blob) - 1):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x01
        path.write_bytes(bytes(corrupted))
        with pytest.raises(AuthenticatedDecryptionFailed):
            load_db(path, DB_KEY)


def test_truncated_file_fails(tmp_path):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    gw.save_database(path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(AuthenticatedDecryptionFailed):
        load_db(path, DB_KEY)


def test_file_magic_layout(tmp_path):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    gw.save_database(path)
    blob = path.read_bytes()
    assert blob[:6] == b"SSHAF1"
    assert len(blob) >= 6 + 16 + 32


def test_no_plaintext_credentials_in_stored_file(tmp_path):
    gw = make_gateway()
    gw.register_user("alice", "Alice", 30, "resident", "sup3r-secret-pw")
    path = tmp_path / "db.enc"
    gw.save_database(path)
    blob = path.read_bytes()
    assert b"sup3r-secret-pw" not in blob
    assert b"owner-pass" not in blob
    assert b"alice" not in blob  # whole table is ciphertext, not just secrets


# --- database cipher bytes --------------------------------------------------------

DB_SALT = Nonce128(b"\x5c" * 16)
# SHA-256 of encrypt_db(fixed_database(), DB_KEY, DB_SALT), taken from the
# per-byte implementation; a faster cipher must write the same file.
FIXED_DB_BLOB_SHA256 = "8e0ed0edbe2ce1d0607042bdc424d57afe630b50c2f3b81c90f77d5c810583b5"


def fixed_database() -> UserDatabase:
    return UserDatabase(
        profiles={
            "alice": UserProfile(
                "alice", "Alice", 30, "resident", "active", (CAP_DORS, CAP_CARD), "0a" * 16, "b7" * 32
            ),
            "bob": UserProfile("bob", "Bob \u00e9", 9, "guest"),
        },
        calendars={"alice": WORK_CAL[:3], "bob": []},
        usage_patterns=[
            UsageRecord("alice", "thermostat", 600 + 37 * i, i % 6, i % 7, IP_HOME, GRANT)
            for i in range(40)
        ],
        access_policies={"front-lock": AccessPolicy(0.9), "thermostat": AccessPolicy(0.5, 0.1)},
    )


def reference_keystream(enc_key: Key256, salt: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(enc_key.bytes + salt + counter.to_bytes(8, "big")).digest()
        counter += 1
    return out[:length]


def test_keystream_matches_per_block_reference():
    enc_key = Key256(bytes(range(32)))
    for length in range(131):
        assert _keystream(enc_key, DB_SALT.bytes, length) == reference_keystream(
            enc_key, DB_SALT.bytes, length
        )


def test_encrypt_db_bytes_are_pinned_and_round_trip():
    blob = encrypt_db(fixed_database(), DB_KEY, DB_SALT)
    assert hashlib.sha256(blob).hexdigest() == FIXED_DB_BLOB_SHA256
    assert decrypt_db(blob, DB_KEY) == fixed_database()


def test_db_crypto_meters_its_kdfs_and_mac_but_not_the_keystream():
    # Each direction runs two kdfs and one MAC, each one mac_count.
    db = fixed_database()
    hashes, macs = METER.snapshot()
    blob = encrypt_db(db, DB_KEY, DB_SALT)
    assert METER.snapshot() == (hashes, macs + 3)
    decrypt_db(blob, DB_KEY)
    assert METER.snapshot() == (hashes, macs + 6)

"""Lifecycle, decision wiring, and encrypted persistence tests."""

import dataclasses
import hashlib
import hmac
import itertools
import json
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    classify_access,
    record_from_snapshot,
    train_classifier,
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
    DB_MAGIC,
    USAGE_LOG_ROWS,
    Gateway,
    UsageRecord,
    UserDatabase,
    UserProfile,
    _keystream,
    decrypt_db,
    default_devices,
    encrypt_db,
    load_db,
    serialize_db,
    store_db,
)
from sshaf.primitives import METER, Key256, Nonce128, RandomSource, kdf, mac, xor_bytes
from synthetic import make_synthetic_dataset

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


@pytest.mark.parametrize(
    "role, caps, bad",
    [("admin", (), "bad role 'admin'"), ("resident", (CAP_DORS, "dros"), "bad capability 'dros'")],
)
def test_registration_rejects_an_unknown_role_or_capability(role, caps, bad):
    gw = make_gateway()
    with pytest.raises(ValueError, match=bad):
        gw.register_user("alice", "Alice", 30, role, "pw", capabilities=caps)
    assert "alice" not in gw.db.profiles


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


ALL_WEEK = [CalendarInterval(weekday=d, start_minute=0, end_minute=1440) for d in range(7)]


def _history_settings():
    """(model, login timestamp) for a neutral history factor, and for the
    timestamps whose login record the synthetic model scores lowest and
    highest on each IP class."""
    model = train_classifier(make_synthetic_dataset())
    stamps = [day * 1440 + bucket * 240 for day in range(7) for bucket in range(6)]

    def score(ip_class, timestamp):
        snap = ContextSnapshot("u", ORIGIN_LOCAL, ip_class, False, timestamp)
        return classify_access(model, record_from_snapshot(snap))

    def extreme(pick):
        return {ip: pick(stamps, key=lambda t: score(ip, t)) for ip in (IP_HOME, IP_KNOWN, IP_UNKNOWN)}

    neutral = dict.fromkeys((IP_HOME, IP_KNOWN, IP_UNKNOWN), 2 * 1440 + 600)
    return {"neutral": (None, neutral), "floor": (model, extreme(min)), "ceiling": (model, extreme(max))}


@pytest.mark.parametrize("history", ["neutral", "floor", "ceiling"])
def test_no_wrong_password_login_opens_a_session(history):
    model, stamps = _history_settings()[history]
    gw = make_gateway()
    gw.set_classifier(model)
    for uid, calendar in (("cal", ALL_WEEK), ("nocal", [])):
        gw.register_user(uid, uid, 30, "resident", f"pw-{uid}", calendar=calendar)
        gw.owner_verify("owner", uid, "activate")
    opened = set()  # sessions granted to the right password
    lattice = itertools.product(
        (True, False), (True, False), (IP_HOME, IP_KNOWN, IP_UNKNOWN), ("cal", "nocal"),
        (ORIGIN_LOCAL, ORIGIN_INTERNET),
    )
    for password_ok, bluetooth, ip_class, uid, origin in lattice:
        if origin == ORIGIN_INTERNET and bluetooth:
            continue  # no such snapshot
        snap = ContextSnapshot(uid, origin, ip_class, bluetooth, stamps[ip_class])
        password = f"pw-{uid}" if password_ok else "WRONG"
        result = gw.login(uid, password, snap)
        if not password_ok:
            assert result.session is None and result.status in (STEP_UP, DENY)
            if result.status == STEP_UP:
                retry = gw.login(uid, password, snap, retry_token=result.retry_token)
                assert retry.session is None and retry.status == DENY
            continue
        if result.status == GRANT:
            opened.add(result.session.session_id)
            for device in default_devices():
                gw.authorize_device_access(result.session, device, snap)
    # Every device request ran on one of these sessions, so each rests on a
    # correct password, as the credentials score of a device request assumes.
    assert set(gw.sessions) == opened


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


WEAK_SNAPSHOT = dict(bluetooth_present=False, ip_class=IP_UNKNOWN, timestamp=0)


@pytest.mark.parametrize("wait, retried", [(30, True), (31, False)])
def test_step_up_token_gives_its_retry_only_within_the_ttl(wait, retried):
    gw = make_gateway()
    register_and_activate(gw)
    snap = good_snapshot(**WEAK_SNAPSHOT)
    first = gw.login("alice", "pw-alice", snap)
    assert first.status == STEP_UP
    gw.advance_time(wait)
    second = gw.login("alice", "pw-alice", snap, retry_token=first.retry_token)
    if retried:
        assert second.status == DENY and "exhausted" in second.reason
    else:
        # An expired token counts as no retry: a fresh step-up, new token.
        assert second.status == STEP_UP and second.retry_token != first.retry_token
    assert first.retry_token not in gw._step_up_tokens


def test_step_up_tokens_stay_bounded_over_simulated_hours():
    gw = make_gateway()
    register_and_activate(gw)
    snap = good_snapshot(**WEAK_SNAPSHOT)
    for _ in range(1000):
        gw.advance_time(3)  # 1,000 step-ups over 50 simulated hours
        assert gw.login("alice", "pw-alice", snap).status == STEP_UP
        assert len(gw._step_up_tokens) <= 11  # minted in the last 30 minutes
        assert all(gw.sim_minutes - minted <= 30 for _, minted in gw._step_up_tokens.values())


def test_step_up_token_survives_persistence_with_its_mint_time():
    gw = make_gateway()
    register_and_activate(gw)
    gw.advance_time(100)
    first = gw.login("alice", "pw-alice", good_snapshot(**WEAK_SNAPSHOT))
    state = json.loads(persist.dumps(persist.gateway_state_to_dict(gw)))
    assert state["step_up_tokens"] == {first.retry_token: ["alice", 100]}
    restored = make_gateway(b"\x31")
    persist.restore_gateway_state(restored, state)
    restored.db = gw.db  # the database travels in its own encrypted file
    assert restored._step_up_tokens == {first.retry_token: ("alice", 100)}
    improved = restored.login("alice", "pw-alice", good_snapshot(), retry_token=first.retry_token)
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


def test_usage_log_keeps_the_last_rows_in_order():
    gw = make_gateway()
    register_and_activate(gw)
    gw.advance_time(1000)  # every row's sim_minutes has four digits
    appended, db_bytes = [], {}
    session = grant_session(gw)
    for count in range(1, 3 * USAGE_LOG_ROWS + 1):
        if gw.sim_minutes - session.established_minutes == 30:
            session = grant_session(gw)
        gw.authorize_device_access(session, "thermostat", good_snapshot())
        appended.append(gw.db.usage_patterns[-1])
        assert len(gw.db.usage_patterns) == min(count, USAGE_LOG_ROWS)
        db_bytes[count] = len(serialize_db(gw.db))
        gw.advance_time(1)
    assert [r.sim_minutes for r in appended] == list(range(1000, 1000 + 3 * USAGE_LOG_ROWS))
    assert gw.db.usage_patterns == appended[-USAGE_LOG_ROWS:]
    assert db_bytes[3 * USAGE_LOG_ROWS] == db_bytes[USAGE_LOG_ROWS]


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
    assert blob[:6] == b"SSHAF2"
    assert len(blob) >= 6 + 16 + 32


def test_store_db_leaves_no_temporary_file(tmp_path):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    for _ in range(3):
        store_db(gw.db, DB_KEY, path, gw.src)
    assert [p.name for p in tmp_path.iterdir()] == ["db.enc"]
    assert load_db(path, DB_KEY) == gw.db


def _cut_write(path, data):
    """Writes half of ``data``, then fails, as on a full disk."""
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError(28, "No space left on device")


def _fail_replace(src, dst):
    raise OSError("killed before the rename")


@pytest.mark.parametrize(
    "target, name, fake",
    [(pathlib.Path, "write_bytes", _cut_write), (os, "replace", _fail_replace)],
)
def test_failed_store_db_leaves_the_old_file_intact(tmp_path, monkeypatch, target, name, fake):
    gw = make_gateway()
    path = tmp_path / "db.enc"
    gw.save_database(path)
    old = path.read_bytes()
    register_and_activate(gw)
    monkeypatch.setattr(target, name, fake)
    with pytest.raises(OSError):
        gw.save_database(path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["db.enc"]
    assert "alice" not in load_db(path, DB_KEY).profiles


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
# SHA-256 of encrypt_db(fixed_database(), DB_KEY, DB_SALT); the test below
# also rebuilds the file with reference_encrypt_db.
FIXED_DB_BLOB_SHA256 = "0982054bf85afaeb26e0ad7b19cc56275b78bd808a54584c83c022fb08876879"


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


def _keccak_f1600(lanes):
    """Keccak-f[1600] (FIPS 202 section 3) on lanes[x][y], 64-bit ints."""
    mask = (1 << 64) - 1

    def rol(value, n):
        n %= 64
        return ((value << n) | (value >> (64 - n))) & mask

    lfsr = 1
    for _ in range(24):
        c = [lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3] ^ lanes[x][4] for x in range(5)]
        d = [c[(x + 4) % 5] ^ rol(c[(x + 1) % 5], 1) for x in range(5)]
        lanes = [[lanes[x][y] ^ d[x] for y in range(5)] for x in range(5)]
        x, y = 1, 0
        current = lanes[x][y]
        for t in range(24):
            x, y = y, (2 * x + 3 * y) % 5
            current, lanes[x][y] = lanes[x][y], rol(current, (t + 1) * (t + 2) // 2)
        for y in range(5):
            row = [lanes[x][y] for x in range(5)]
            for x in range(5):
                lanes[x][y] = row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5])
        for j in range(7):
            lfsr = ((lfsr << 1) ^ ((lfsr >> 7) * 0x71)) % 256
            if lfsr & 2:
                lanes[0][0] ^= 1 << ((1 << j) - 1)
    return lanes


def reference_shake256(data: bytes, length: int) -> bytes:
    """SHAKE-256 as a sponge that absorbs and squeezes one 136-byte block
    at a time, independent of hashlib."""
    rate = 136
    padded = bytearray(data + b"\x1f" + bytes(-(len(data) + 1) % rate))
    padded[-1] |= 0x80
    lanes = [[0] * 5 for _ in range(5)]
    for start in range(0, len(padded), rate):
        for i in range(rate // 8):
            lanes[i % 5][i // 5] ^= int.from_bytes(padded[start + 8 * i : start + 8 * i + 8], "little")
        lanes = _keccak_f1600(lanes)
    out = b""
    while len(out) < length:
        out += b"".join(lanes[i % 5][i // 5].to_bytes(8, "little") for i in range(rate // 8))
        lanes = _keccak_f1600(lanes)
    return out[:length]


def test_reference_shake256_known_answers():
    # FIPS 202 SHAKE256 of the empty message, first 32 bytes.
    assert reference_shake256(b"", 32).hex() == (
        "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    )
    # Inputs that fill a rate block exactly, and that spill into a second.
    for data in (bytes(135), bytes(136), bytes(range(200))):
        assert reference_shake256(data, 300) == hashlib.shake_256(data).digest(300)


def test_keystream_matches_per_block_reference():
    enc_key = Key256(bytes(range(32)))
    expected = reference_shake256(enc_key.bytes + DB_SALT.bytes, 300)
    assert expected[:32].hex() == "d6f747266674af280bf7010c7999fa39aff61254d547311a51f35194432d68df"
    for length in [*range(131), 136, 137, 272, 300]:
        assert _keystream(enc_key, DB_SALT.bytes, length) == expected[:length]


def reference_encrypt_db(db: UserDatabase, db_key: Key256, salt: bytes) -> bytes:
    """The db.enc layout written out from the format description: kdf as
    HMAC-SHA-256 over the length-prefixed label, a SHAKE-256 keystream
    XORed byte by byte, and an HMAC-SHA-256 tag over magic, salt and
    ciphertext."""
    tables = {
        "profiles": {
            uid: dict(dataclasses.asdict(p), capabilities=list(p.capabilities))
            for uid, p in db.profiles.items()
        },
        "calendars": {uid: [list(dataclasses.astuple(iv)) for iv in ivs] for uid, ivs in db.calendars.items()},
        "usage_patterns": [list(dataclasses.astuple(r)) for r in db.usage_patterns],
        "access_policies": {d: dataclasses.asdict(p) for d, p in db.access_policies.items()},
    }
    plaintext = json.dumps(tables, sort_keys=True, separators=(",", ":")).encode()
    enc_key = hmac.digest(db_key.bytes, b"\x06db-enc" + salt, "sha256")
    mac_key = hmac.digest(db_key.bytes, b"\x06db-mac" + salt, "sha256")
    stream = reference_shake256(enc_key + salt, len(plaintext))
    body = b"SSHAF2" + salt + bytes(p ^ k for p, k in zip(plaintext, stream))
    return body + hmac.digest(mac_key, body, "sha256")


def test_encrypt_db_bytes_are_pinned_and_round_trip():
    blob = encrypt_db(fixed_database(), DB_KEY, DB_SALT)
    assert blob == reference_encrypt_db(fixed_database(), DB_KEY, DB_SALT.bytes)
    assert hashlib.sha256(blob).hexdigest() == FIXED_DB_BLOB_SHA256
    assert decrypt_db(blob, DB_KEY) == fixed_database()


def test_usage_rows_are_arrays_in_field_order():
    plaintext = json.loads(serialize_db(fixed_database()))
    assert plaintext["usage_patterns"][1] == ["alice", "thermostat", 637, 1, 1, IP_HOME, GRANT]


def _blob_with_plaintext(plaintext: bytes, magic: bytes = DB_MAGIC) -> bytes:
    """A file under DB_KEY whose MAC verifies, over any plaintext."""
    enc_key = kdf(DB_KEY, "db-enc", DB_SALT.bytes)
    mac_key = kdf(DB_KEY, "db-mac", DB_SALT.bytes)
    body = magic + DB_SALT.bytes + xor_bytes(plaintext, _keystream(enc_key, DB_SALT.bytes, len(plaintext)))
    return body + mac(mac_key, body).bytes


def test_blob_helper_matches_encrypt_db():
    plaintext = serialize_db(fixed_database())
    assert _blob_with_plaintext(plaintext) == encrypt_db(fixed_database(), DB_KEY, DB_SALT)


@pytest.mark.parametrize(
    "row",
    [
        ["alice", "thermostat", 600, 1, 2, IP_HOME],  # one field short
        ["alice", "thermostat", 600, 1, 2, IP_HOME, GRANT, "extra"],  # one field over
        {  # the old keyed layout: seven keys would unpack as seven strings
            "uid": "alice", "device_id": "thermostat", "sim_minutes": 600,
            "hour_bucket": 1, "weekday": 2, "ip_class": IP_HOME, "decision": GRANT,
        },
        "abcdefg",  # seven characters
        7,
    ],
)
def test_malformed_usage_row_fails_authenticated_decryption(row):
    tables = json.loads(serialize_db(fixed_database()))
    tables["usage_patterns"][3] = row
    blob = _blob_with_plaintext(json.dumps(tables).encode())
    with pytest.raises(AuthenticatedDecryptionFailed):
        decrypt_db(blob, DB_KEY)


def test_file_with_one_usage_row_too_many_fails_authenticated_decryption():
    tables = json.loads(serialize_db(fixed_database()))
    row = tables["usage_patterns"][0]
    tables["usage_patterns"] = [row] * USAGE_LOG_ROWS
    db = decrypt_db(_blob_with_plaintext(json.dumps(tables).encode()), DB_KEY)
    assert db.usage_patterns == [UsageRecord(*row)] * USAGE_LOG_ROWS
    tables["usage_patterns"].append(row)
    with pytest.raises(AuthenticatedDecryptionFailed, match="usage rows"):
        decrypt_db(_blob_with_plaintext(json.dumps(tables).encode()), DB_KEY)


def test_old_format_file_with_valid_mac_is_rejected_at_the_magic():
    blob = _blob_with_plaintext(serialize_db(fixed_database()), magic=b"SSHAF1")
    with pytest.raises(AuthenticatedDecryptionFailed, match="magic"):
        decrypt_db(blob, DB_KEY)


def test_db_crypto_meters_its_kdfs_and_mac_but_not_the_keystream():
    # Each direction runs two kdfs and one MAC, each one mac_count.
    db = fixed_database()
    hashes, macs = METER.snapshot()
    blob = encrypt_db(db, DB_KEY, DB_SALT)
    assert METER.snapshot() == (hashes, macs + 3)
    decrypt_db(blob, DB_KEY)
    assert METER.snapshot() == (hashes, macs + 6)


# --- database codec properties ----------------------------------------------------

_texts = st.text(max_size=12)
_ints = st.integers(-(2**40), 2**40)
_units = st.floats(0.0, 1.0)


def _profiles():
    profile = st.builds(
        UserProfile, uid=_texts, name=_texts, age=_ints, role=_texts, status=_texts,
        capabilities=st.lists(_texts, max_size=3).map(tuple), pw_salt=_texts, pw_hash=_texts,
    )
    return st.dictionaries(_texts, profile, max_size=4)


_databases = st.builds(
    UserDatabase,
    profiles=_profiles(),
    calendars=st.dictionaries(
        _texts, st.lists(st.builds(CalendarInterval, _ints, _ints, _ints), max_size=4), max_size=3
    ),
    # Every length up to three rings, so the stored file is often trimmed.
    usage_patterns=st.integers(0, 3 * USAGE_LOG_ROWS).flatmap(
        lambda n: st.lists(
            st.builds(UsageRecord, _texts, _texts, _ints, _ints, _ints, _texts, _texts),
            min_size=n, max_size=n,
        )
    ),
    access_policies=st.dictionaries(_texts, st.builds(AccessPolicy, _units, _units), max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(db=_databases, salt=st.binary(min_size=16, max_size=16))
def test_db_round_trips_through_the_cipher(db, salt):
    stored = decrypt_db(encrypt_db(db, DB_KEY, Nonce128(salt)), DB_KEY)
    assert stored.usage_patterns == db.usage_patterns[-USAGE_LOG_ROWS:]
    assert stored == dataclasses.replace(db, usage_patterns=db.usage_patterns[-USAGE_LOG_ROWS:])


_FIXED_BLOB = encrypt_db(fixed_database(), DB_KEY, DB_SALT)


@settings(max_examples=200, deadline=None)
@given(pos=st.integers(0, len(_FIXED_BLOB) - 1), flip=st.integers(1, 255))
def test_any_flipped_byte_fails_authenticated_decryption(pos, flip):
    corrupted = bytearray(_FIXED_BLOB)
    corrupted[pos] ^= flip
    with pytest.raises(AuthenticatedDecryptionFailed):
        decrypt_db(bytes(corrupted), DB_KEY)

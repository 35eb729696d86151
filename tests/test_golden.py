"""Byte-for-byte pins of seeded handshake transcripts and classifier
posteriors. A change to how the primitives, the Merkle tree, the DORS
signatures or the naive-Bayes model compute their values must leave every
carried message, every session key and every posterior exactly as pinned
here."""

import hashlib

import pytest

from sshaf import dhs_auth, dors_auth, merkle_auth, persist
from sshaf.context_engine import (
    IP_HOME,
    IP_KNOWN,
    IP_UNKNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    AccessRecord,
    CalendarInterval,
    ContextSnapshot,
    classify_access,
    train_classifier,
)
from sshaf.errors import AuthFailed
from sshaf.gateway import CAP_CARD, CAP_DORS, DEVICES, Gateway, serialize_db
from sshaf.primitives import Key256, RandomSource, random_key
from synthetic import make_synthetic_dataset

SEED = b"\x5a" * 32
SMALL_DORS = dors_auth.DorsParams(t=16, k=4, f=2, r=2)  # rotates trees on the third run


class RecordingLink:
    """Carries each message as its wire bytes, decoded on arrival, and
    folds the sender, length and bytes into one running SHA-256."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def carry(self, sender, receiver, message, decode):
        data = message.encode()
        self.sha.update(sender.encode() + len(data).to_bytes(4, "big") + data)
        return decode(data)

    def keys(self, user_key: Key256, gateway_key: Key256) -> None:
        assert user_key == gateway_key
        self.sha.update(b"keys" + user_key.bytes + gateway_key.bytes)


def mht_transcript() -> str:
    src = RandomSource.seeded(SEED)
    registry = {}
    user, _ = merkle_auth.mht_register(registry, "alice", Key256(src.read(32)))
    link = RecordingLink()
    for _ in range(3):
        link.keys(*merkle_auth.mht_handshake(link, user, registry, src))
    return link.sha.hexdigest()


def dors_transcript() -> str:
    src = RandomSource.seeded(SEED)
    master = Key256(src.read(32))
    link = RecordingLink()
    user, gateway = dors_auth.dors_provision("alice#0", master, SMALL_DORS)
    for _ in range(3):
        link.keys(*dors_auth.dors_handshake(link, user, gateway, src))
    user, gateway = dors_auth.dors_provision("alice#1", master, SMALL_DORS)  # a re-key
    link.keys(*dors_auth.dors_handshake(link, user, gateway, src))
    return link.sha.hexdigest()


def dhs_transcript() -> str:
    src = RandomSource.seeded(SEED)
    master = random_key(src)
    edge = dhs_auth.EdgeServer()
    card = dhs_auth.dhs_register(master, edge, "alice", "pw", src)
    link = RecordingLink()
    for _ in range(3):
        link.keys(*dhs_auth.dhs_handshake(link, card, edge, "pw", src))
    return link.sha.hexdigest()


TRANSCRIPT_SHA256 = {
    "mht": (
        mht_transcript,
        "02979dd8c9f77d54442943c7145af4c21689c85d575a5699baf056c61256f3c2",
    ),
    # Re-pinned when the genesis came to commit to tree 0's root alone: the
    # chain values, and with them the subsets and session keys, moved; the
    # message count and sizes did not.
    "dors": (
        dors_transcript,
        "a2e35d018ab84c81b93df5f4520b687d2d9303921f6527151b0fdf0383d5d903",
    ),
    "dhs": (
        dhs_transcript,
        "0d51a6f128fe34e0ffa5a3044ccdbb897a62b57a1830dfa0c058202d5060ece4",
    ),
}


@pytest.mark.parametrize("scheme", sorted(TRANSCRIPT_SHA256))
def test_seeded_transcript_is_pinned(scheme):
    run, expected = TRANSCRIPT_SHA256[scheme]
    assert run() == expected


# Every hour bucket, weekday and IP class, with the synthetic corpus's three
# devices and one it never saw.
GRID_DEVICES = ("lock-1", "thermostat-1", "camera-1", "brand-new-device")
POSTERIOR_GRID_SHA256 = "a3ef820092e8169ab5017efdc5f51884d0ef2c93cce4f584cf63f0a3883e6563"


def test_posterior_grid_is_pinned():
    model = train_classifier(make_synthetic_dataset())
    lines = [
        classify_access(model, AccessRecord("u", hour, day, ip, device)).hex()
        for hour in range(6)
        for day in range(7)
        for ip in (IP_HOME, IP_KNOWN, IP_UNKNOWN)
        for device in GRID_DEVICES
    ]
    assert len(lines) == 504
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == POSTERIOR_GRID_SHA256


def gateway_visits(model) -> str:
    """Logins and device requests of three users, one per scheme, at
    minutes spread over a week; the digest covers every decision, the
    persisted gateway state and the plaintext user database."""
    gw = Gateway(RandomSource.seeded(SEED), Key256(b"\x99" * 32))
    gw.set_classifier(model)
    evenings = [CalendarInterval(d, 17 * 60, 23 * 60) for d in range(7)]
    for uid, caps in (("mia", ()), ("dov", (CAP_DORS,)), ("deb", (CAP_CARD,))):
        gw.register_user(uid, uid, 30, "resident", f"pw-{uid}", evenings, caps)
        gw.owner_verify("owner", uid, "activate")
    sha = hashlib.sha256()
    for visit in range(24):
        gw.advance_time(97 + 311 * (visit % 5))
        uid = ("mia", "dov", "deb")[visit % 3]
        internet = uid == "deb" and visit % 2 == 0
        snapshot = ContextSnapshot(
            uid,
            origin=ORIGIN_INTERNET if internet else ORIGIN_LOCAL,
            ip_class=(IP_KNOWN, IP_UNKNOWN)[visit % 2] if internet else IP_HOME,
            bluetooth_present=not internet and visit % 4 != 1,
            timestamp=gw.sim_minutes,
        )
        try:
            result = gw.login(uid, f"pw-{uid}" if visit % 7 else "wrong", snapshot)
        except AuthFailed as exc:
            sha.update(f"AuthFailed {exc};".encode())
            continue
        sha.update(f"{result.status}/{result.reason};".encode())
        if result.session is not None:
            for device in DEVICES:
                sha.update(gw.authorize_device_access(result.session, device, snapshot).encode())
    sha.update(persist.dumps(persist.gateway_state_to_dict(gw)) + serialize_db(gw.db))
    return sha.hexdigest()


# Re-pinned when MHT user entries began to persist a compact range instead
# of every leaf, again when sessions stopped persisting their login
# confidence, again when DHS identifiers began to persist as 16 hex
# digits, and again when the state stopped persisting the home server's
# registrations, wallet uids, DORS revealed sets and session origins and
# grants, and again when it stopped persisting session keys and schemes,
# the DORS signer's tree counters, the card's lock flag and the DORS
# gateway side's roots, and began to write that side's trees by position,
# and again when the DORS genesis came to commit to tree 0 alone and the
# gateway side to hold one tree; each time the decisions and every other
# persisted field hash as before.
GATEWAY_SHA256 = {
    "no-model": (None, "2496ee0dbb932cc6f769168152766d2273b9a52e1a047610315cd1af231da48d"),
    "synthetic-model": (
        make_synthetic_dataset,
        "dd258fcb0731826d7ca57f294cd54cac2b5eeeac863f3cfbf6c77068f00751f5",
    ),
}


@pytest.mark.parametrize("case", sorted(GATEWAY_SHA256))
def test_gateway_visits_are_pinned(case):
    corpus, expected = GATEWAY_SHA256[case]
    model = train_classifier(corpus()) if corpus else None
    assert gateway_visits(model) == expected

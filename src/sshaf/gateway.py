"""Gateway orchestration of the five lifecycle stages: registration,
owner verification, login, utilization, and continuous authentication.

The gateway owns the encrypted user database, the gateway side of all
three protocol engines, and a simulated-minutes clock; it is also the DHS
home server, whose master secret is its own. Issued user wallets (card,
signature keys, history state), keyed by uid, model the credentials living
on the user's own device. A ``GatewaySession`` is what a granted login
opens: its id, owner, scheme, key and the minute it was granted. A session
restored from saved state holds only its id, owner and grant minute; its
scheme and key are ``None``, as no state persists them.
``authorize_device_access`` keeps nothing per session: each request is
judged on its own snapshot and leaves only its usage row. The home's
configuration is fixed in code, not state: its devices with their access
policies, the roles each device kind admits from the internet, and the
factor weights.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import context_engine as ctx
from . import dhs_auth, dors_auth, merkle_auth
from .context_engine import (
    AccessPolicy,
    CalendarInterval,
    ContextSnapshot,
    FactorWeights,
    NaiveBayesModel,
    calendar_claims_presence,
)
from .errors import (
    AlreadyRegistered,
    AuthFailed,
    AuthenticatedDecryptionFailed,
    Forbidden,
    ForestExhausted,
    InvalidTransition,
    NotVerified,
    SessionExpired,
    SshafError,
    UnknownDevice,
    UnknownUser,
)
from .link import Loopback
from .primitives import (
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    kdf,
    mac,
    random_key,
    random_nonce,
    xor_bytes,
)

ROLE_OWNER = "owner"
ROLE_RESIDENT = "resident"
ROLE_GUEST = "guest"

STATUS_PENDING = "pending"
STATUS_ACTIVE = "active"
STATUS_REJECTED = "rejected"

CAP_DORS = "dors"
CAP_CARD = "card"
CAPABILITIES = (CAP_DORS, CAP_CARD)

SESSION_TTL_MINUTES = 30

# The account that exists from first boot, active, so that someone can
# verify registrations.
OWNER_UID = "owner"
OWNER_PASSWORD = "owner-pass"

DB_MAGIC = b"SSHAF2"
USAGE_LOG_ROWS = 64  # recent rows kept for audit: nothing reads older ones; db.enc stays a few KB

# Each device of the home: its kind and the policy every request for it meets.
DEVICES: dict[str, tuple[str, AccessPolicy]] = {
    "front-lock": ("lock", AccessPolicy(0.9)),
    "thermostat": ("thermostat", AccessPolicy(0.5)),
    "porch-camera": ("camera", AccessPolicy(0.8)),
}

# A login is gated against the least sensitive device.
LOGIN_POLICY = min((policy for _, policy in DEVICES.values()), key=lambda p: p.threshold)

# Device kinds reachable by each role when the request originates from the
# internet; local requests are not role-restricted.
INTERNET_ALLOWLIST = {
    ROLE_OWNER: frozenset({"lock", "thermostat", "camera"}),
    ROLE_RESIDENT: frozenset({"thermostat", "camera"}),
    ROLE_GUEST: frozenset(),
}

WEIGHTS = FactorWeights(credentials=0.40, bluetooth=0.20, ip_location=0.15, calendar=0.15, history=0.10)


@dataclass
class UserProfile:
    uid: str
    name: str
    age: int
    role: str
    capabilities: tuple[str, ...]
    pw_salt: str  # hex; password itself is never stored
    pw_hash: str  # hex of hash(uid || password || salt)
    status: str = STATUS_PENDING


@dataclass
class UsageRecord:
    uid: str
    device_id: str
    sim_minutes: int
    hour_bucket: int
    weekday: int
    ip_class: str
    decision: str


@dataclass
class UserDatabase:
    """The three persisted tables: profiles, calendars and the usage log;
    stored on disk only as ciphertext."""

    profiles: dict[str, UserProfile] = field(default_factory=dict)
    calendars: dict[str, list[CalendarInterval]] = field(default_factory=dict)
    usage_patterns: list[UsageRecord] = field(default_factory=list)


@dataclass
class UserWallet:
    """User-side credential material issued at activation."""

    mht: merkle_auth.MhtUserState
    dors: dors_auth.DorsUserSide | None = None
    card: dhs_auth.SmartCardState | None = None


@dataclass
class GatewaySession:
    session_id: str
    uid: str
    scheme: str | None
    session_key: Key256 | None
    established_minutes: int


@dataclass
class LoginResult:
    status: str  # grant | step_up | deny
    confidence: float
    session: GatewaySession | None = None
    retry_token: str | None = None
    reason: str = ""


# --- encrypted database file -------------------------------------------------
# Layout: magic "SSHAF2" || 16-byte salt || ciphertext || 32-byte MAC,
# encrypt-then-MAC over a canonical JSON serialization of the tables.
# enc_key = kdf(db_key, "db-enc", salt) and mac_key = kdf(db_key, "db-mac",
# salt). The ciphertext is the plaintext XOR the first plaintext-length
# bytes of SHAKE-256(enc_key || salt) (FIPS 202), a prefix-keyed sponge
# used as a PRF. The keystream is file encryption, not protocol work, so it
# calls hashlib directly and stays off METER; the two kdfs and the MAC are
# metered. Each usage row is the array [uid, device_id, sim_minutes,
# hour_bucket, weekday, ip_class, decision], in UsageRecord field order. The
# usage log is a ring of the last USAGE_LOG_ROWS rows, oldest first: a file
# holds at most that many, and decrypt_db rejects one that holds more. Any
# other table, such as an older file's access_policies, is ignored on read.

def _db_to_dict(db: UserDatabase) -> dict:
    return {
        "profiles": {
            uid: {**vars(p), "capabilities": list(p.capabilities)} for uid, p in db.profiles.items()
        },
        "calendars": {
            uid: [[iv.weekday, iv.start_minute, iv.end_minute] for iv in ivs]
            for uid, ivs in db.calendars.items()
        },
        "usage_patterns": [
            [r.uid, r.device_id, r.sim_minutes, r.hour_bucket, r.weekday, r.ip_class, r.decision]
            for r in db.usage_patterns[-USAGE_LOG_ROWS:]
        ],
    }


def _db_from_dict(data: dict) -> UserDatabase:
    rows = data["usage_patterns"]
    if not all(type(row) is list for row in rows):
        raise TypeError("every usage row must be an array")
    if len(rows) > USAGE_LOG_ROWS:
        raise ValueError(f"{len(rows)} usage rows, more than the {USAGE_LOG_ROWS} kept")
    return UserDatabase(
        profiles={
            uid: UserProfile(
                uid=row["uid"],
                name=row["name"],
                age=row["age"],
                role=row["role"],
                status=row["status"],
                capabilities=tuple(row["capabilities"]),
                pw_salt=row["pw_salt"],
                pw_hash=row["pw_hash"],
            )
            for uid, row in data["profiles"].items()
        },
        calendars={
            uid: [CalendarInterval(*iv) for iv in ivs]
            for uid, ivs in data["calendars"].items()
        },
        usage_patterns=[UsageRecord(*row) for row in rows],
    )


def serialize_db(db: UserDatabase) -> bytes:
    return json.dumps(_db_to_dict(db), sort_keys=True, separators=(",", ":")).encode()


def _keystream(enc_key: Key256, salt: bytes, length: int) -> bytes:
    return hashlib.shake_256(enc_key.bytes + salt).digest(length)


def encrypt_db(db: UserDatabase, db_key: Key256, salt: Nonce128) -> bytes:
    plaintext = serialize_db(db)
    enc_key = kdf(db_key, "db-enc", salt.bytes)
    mac_key = kdf(db_key, "db-mac", salt.bytes)
    ciphertext = xor_bytes(plaintext, _keystream(enc_key, salt.bytes, len(plaintext)))
    body = DB_MAGIC + salt.bytes + ciphertext
    return body + mac(mac_key, body).bytes


def decrypt_db(blob: bytes, db_key: Key256) -> UserDatabase:
    if len(blob) < len(DB_MAGIC) + 16 + 32 or blob[: len(DB_MAGIC)] != DB_MAGIC:
        raise AuthenticatedDecryptionFailed("bad magic or truncated file")
    body, tag = blob[:-32], blob[-32:]
    salt = body[len(DB_MAGIC) : len(DB_MAGIC) + 16]
    mac_key = kdf(db_key, "db-mac", salt)
    if Digest256(tag) != mac(mac_key, body):
        raise AuthenticatedDecryptionFailed("integrity check failed")
    ciphertext = body[len(DB_MAGIC) + 16 :]
    enc_key = kdf(db_key, "db-enc", salt)
    plaintext = xor_bytes(ciphertext, _keystream(enc_key, salt, len(ciphertext)))
    try:
        return _db_from_dict(json.loads(plaintext.decode()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise AuthenticatedDecryptionFailed(f"undecodable plaintext: {exc}") from None


def atomic_write(path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``: write ``path.tmp``, then
    rename it over ``path``. A process killed mid-write leaves the old file
    whole, never a truncated one."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def store_db(db: UserDatabase, db_key: Key256, path, src: RandomSource) -> None:
    atomic_write(path, encrypt_db(db, db_key, random_nonce(src)))


def load_db(path, db_key: Key256) -> UserDatabase:
    with open(path, "rb") as fh:
        return decrypt_db(fh.read(), db_key)


# --- the gateway -----------------------------------------------------------------

def _forest_uid(uid: str, epoch: int) -> str:
    """The name ``uid``'s DORS forest of ``epoch`` is derived under."""
    return f"{uid}#{epoch}"


class Gateway:
    """Single-home core gateway; all state mutation happens through its
    methods, on simulated time only.

    A session lives SESSION_TTL_MINUTES simulated minutes from its grant.
    Device requests on an older session raise SessionExpired, and every
    login drops all such sessions before it opens its own, so the session
    table holds only the sessions granted in the last TTL window. A step-up
    retry token lives as long, and every login drops the older ones."""

    def __init__(self, src: RandomSource, db_key: Key256):
        self.src = src
        self.db_key = db_key
        self.master_secret = random_key(src)
        self.db = UserDatabase()
        self.sim_minutes = 0
        self.model: NaiveBayesModel | None = None

        self.mht_registry: dict[str, merkle_auth.MhtGatewayState] = {}
        self.dors_registry: dict[str, dors_auth.DorsGatewaySide] = {}
        self.dors_epochs: dict[str, int] = {}
        self.edge = dhs_auth.EdgeServer()

        self.wallets: dict[str, UserWallet] = {}
        self.sessions: dict[str, GatewaySession] = {}
        self._step_up_tokens: dict[str, tuple[str, int]] = {}  # token -> (uid, minted minutes)
        self._pending_cards: dict[str, dhs_auth.SmartCardState] = {}

        self._create_profile(OWNER_UID, "Home Owner", 40, ROLE_OWNER, OWNER_PASSWORD, [], ())
        self.db.profiles[OWNER_UID].status = STATUS_ACTIVE
        self._provision(OWNER_UID)

    # --- time ---------------------------------------------------------------

    def advance_time(self, minutes: int) -> None:
        if minutes < 0:
            raise ValueError("time only moves forward")
        self.sim_minutes += minutes

    # --- stage 1: registration ------------------------------------------------

    def _create_profile(self, uid, name, age, role, password, calendar, capabilities):
        if uid in self.db.profiles:
            raise AlreadyRegistered(uid)
        salt = random_nonce(self.src)
        digest = hash_bytes(uid.encode() + password.encode() + salt.bytes)
        self.db.profiles[uid] = UserProfile(
            uid=uid,
            name=name,
            age=age,
            role=role,
            capabilities=tuple(capabilities),
            pw_salt=salt.bytes.hex(),
            pw_hash=digest.hex(),
        )
        self.db.calendars[uid] = list(calendar)

    def register_user(
        self,
        uid: str,
        name: str,
        age: int,
        role: str,
        password: str,
        calendar: list[CalendarInterval] | None = None,
        capabilities: tuple[str, ...] = (),
    ) -> UserProfile:
        """New accounts start pending; no login is possible until the owner
        activates them."""
        if role not in (ROLE_OWNER, ROLE_RESIDENT, ROLE_GUEST):
            raise ValueError(f"bad role {role!r}")
        for i, cap in enumerate(capabilities):
            if cap not in CAPABILITIES:
                raise ValueError(f"bad capability {cap!r}")
            if cap in capabilities[:i]:
                raise ValueError(f"repeated capability {cap!r}")
        self._create_profile(uid, name, age, role, password, calendar or [], capabilities)
        if CAP_CARD in capabilities:
            # The card's local verifier binds the real password, which only
            # exists in memory right now; the card is handed over (and its
            # edge entry becomes reachable) once the owner activates.
            self._pending_cards[uid] = dhs_auth.dhs_register(
                self.master_secret, self.edge, uid, password, self.src
            )
        return self.db.profiles[uid]

    # --- stage 2: owner verification -------------------------------------------

    def owner_verify(self, owner_uid: str, target_uid: str, decision: str) -> UserProfile:
        owner = self.db.profiles.get(owner_uid)
        if owner is None or owner.role != ROLE_OWNER or owner.status != STATUS_ACTIVE:
            raise Forbidden(f"{owner_uid!r} is not an active owner")
        target = self.db.profiles.get(target_uid)
        if target is None:
            raise UnknownUser(target_uid)
        if target.status != STATUS_PENDING:
            raise InvalidTransition(f"{target_uid} is {target.status}, not pending")
        if decision == "activate":
            target.status = STATUS_ACTIVE
            self._provision(target_uid)
        elif decision == "reject":
            target.status = STATUS_REJECTED
            self._discard_card(target_uid)
        else:
            raise ValueError(f"decision must be activate or reject, got {decision!r}")
        return target

    def _discard_card(self, uid: str) -> None:
        if self._pending_cards.pop(uid, None) is not None:
            self.edge.db.pop(uid, None)
            self.edge.bindings.pop(uid, None)

    def _provision(self, uid: str) -> None:
        """History-bound mutual auth is always provisioned; signature keys
        and a smart card follow the capability flags."""
        profile = self.db.profiles[uid]
        user_state, _ = merkle_auth.mht_register(self.mht_registry, uid, self.master_secret)
        wallet = UserWallet(mht=user_state)
        if CAP_DORS in profile.capabilities:
            self._provision_dors(uid, wallet)
        wallet.card = self._pending_cards.pop(uid, None)
        self.wallets[uid] = wallet

    def _provision_dors(self, uid: str, wallet: UserWallet) -> None:
        """Provision ``uid``'s next DORS epoch. A re-key passes the trees
        built ahead during the spent forest's last tree; a first provision
        or an older state's re-key has none, and builds the whole forest."""
        epoch = self.dors_epochs.get(uid, 0)
        previous = self.dors_registry.get(uid)
        user_side, gateway_side = dors_auth.dors_provision(
            _forest_uid(uid, epoch), self.master_secret, previous and previous.next_forest
        )
        user_side.uid = uid
        gateway_side.uid = uid
        wallet.dors = user_side
        self.dors_registry[uid] = gateway_side
        self.dors_epochs[uid] = epoch + 1

    def wallet_for(self, uid: str) -> UserWallet:
        wallet = self.wallets.get(uid)
        if wallet is None:
            raise UnknownUser(uid)
        return wallet

    # --- credentials -------------------------------------------------------------

    def check_credentials(self, uid: str, password: str) -> bool:
        profile = self.db.profiles.get(uid)
        if profile is None or not profile.pw_hash:
            return False
        digest = hash_bytes(uid.encode() + password.encode() + bytes.fromhex(profile.pw_salt))
        return hmac.compare_digest(digest.hex().encode(), profile.pw_hash.encode())

    # --- stage 3: login ------------------------------------------------------------

    def _confidence(self, uid, credentials_ok, snapshot, record) -> float:
        """``snapshot`` scored with the password result, ``uid``'s calendar
        and the classifier on ``record``, the request's own."""
        calendar_hit = calendar_claims_presence(self.db.calendars.get(uid, []), snapshot.timestamp)
        history = 0.5 if self.model is None else ctx.classify_access(self.model, record)
        return ctx.weigh(ctx.factor_scores(snapshot, credentials_ok, calendar_hit, history), WEIGHTS)

    def run_scheme(self, scheme: str, uid: str, password: str, link) -> Key256:
        """Run one ``scheme`` handshake between ``uid``'s wallet and this
        gateway over ``link``, which the caller supplies, and return the
        session key."""
        wallet = self.wallet_for(uid)
        if scheme == ctx.SCHEME_MHT:
            user_key, gw_key = merkle_auth.mht_handshake(
                link, wallet.mht, self.mht_registry, self.src
            )
        elif scheme == ctx.SCHEME_DORS:
            try:
                user_key, gw_key = self._dors_handshake(uid, wallet, link)
            except ForestExhausted:
                # A spent forest signals the re-key: provision the next epoch
                # from the trees built during the last tree, and retry once.
                self._provision_dors(uid, wallet)
                user_key, gw_key = self._dors_handshake(uid, wallet, link)
            self._roll_dors_forest(uid)
        elif scheme == ctx.SCHEME_DHS:
            user_key, gw_key = dhs_auth.dhs_handshake(
                link, wallet.card, self.edge, password, self.src
            )
        else:
            raise AuthFailed(f"no such scheme {scheme!r}")
        if user_key != gw_key:
            raise AuthFailed("session keys diverged")
        return gw_key

    def _dors_handshake(self, uid: str, wallet: UserWallet, link) -> tuple[Key256, Key256]:
        """One DORS run, after building the tree the gateway's chain names if
        it is in the forest and not held, as after a restore without trees."""
        side = self.dors_registry[uid]
        pk = side.public_key
        tree = side.chain.signature_count // pk.params.r
        if tree < pk.params.f and not pk.leaf_digests[tree]:
            seed = dors_auth.dors_seed(_forest_uid(uid, self.dors_epochs[uid] - 1), self.master_secret)
            pk.leaf_digests[tree] = dors_auth.dors_tree(seed, tree, pk.params)[0]
        return dors_auth.dors_handshake(link, wallet.dors, side, self.src)

    def _roll_dors_forest(self, uid: str) -> None:
        """After a verified DORS signature: drop the leaf digests of the
        trees below the one it used, which ``dors_verify`` can never accept
        again, and, when it used the last tree, build ⌈f/r⌉ trees of the
        next epoch, so all f are built when the forest is spent."""
        side = self.dors_registry[uid]
        params = side.public_key.params
        tree = (side.chain.signature_count - 1) // params.r
        side.public_key.leaf_digests[:tree] = [b""] * tree
        if tree == params.f - 1 and len(side.next_forest.roots) < params.f:
            seed = dors_auth.dors_seed(_forest_uid(uid, self.dors_epochs[uid]), self.master_secret)
            side.next_forest.grow(seed, -(-params.f // params.r))

    def login(
        self,
        uid: str,
        password: str,
        snapshot: ContextSnapshot,
        retry_token: str | None = None,
    ) -> LoginResult:
        """Select one scheme from context, run its handshake end to end,
        then gate on confidence against the least sensitive device. A wrong
        password never grants: context can then earn a step-up at most, and
        a retry that still fails the password check is denied."""
        profile = self.db.profiles.get(uid)
        if profile is None:
            raise UnknownUser(uid)
        if profile.status != STATUS_ACTIVE:
            raise NotVerified(f"{uid} is {profile.status}")

        password_ok = self.check_credentials(uid, password)
        wallet = self.wallet_for(uid)
        scheme = ctx.select_scheme(
            snapshot, wallet.card is not None, wallet.dors is not None, self.mht_registry[uid].txn_counter
        )

        try:
            session_key = self.run_scheme(scheme, uid, password, Loopback())
        except AuthFailed:
            raise
        except SshafError as exc:
            raise AuthFailed(f"{scheme} handshake failed: {exc}") from exc

        confidence = self._confidence(uid, password_ok, snapshot, ctx.record_from_snapshot(snapshot))
        decision = ctx.decide_access(confidence, LOGIN_POLICY)
        if decision == ctx.GRANT and not password_ok:
            decision = ctx.STEP_UP

        self._step_up_tokens = {  # an expired token counts as no retry
            token: (owner, minted) for token, (owner, minted) in self._step_up_tokens.items()
            if self.sim_minutes - minted <= SESSION_TTL_MINUTES
        }
        is_retry = self._step_up_tokens.pop(retry_token, (None, 0))[0] == uid
        if decision == ctx.GRANT:
            session = self._open_session(uid, scheme, session_key)
            return LoginResult(ctx.GRANT, confidence, session=session)
        if decision == ctx.STEP_UP and not is_retry:
            token = self.src.read(8).hex()
            self._step_up_tokens[token] = (uid, self.sim_minutes)
            reason = "confidence in step-up band" if password_ok else "password check failed"
            return LoginResult(ctx.STEP_UP, confidence, retry_token=token, reason=reason)
        return LoginResult(
            ctx.DENY,
            confidence,
            reason="step-up retry exhausted" if is_retry else "confidence below device policies",
        )

    def _expired(self, session: GatewaySession) -> bool:
        return self.sim_minutes - session.established_minutes > SESSION_TTL_MINUTES

    def _open_session(self, uid, scheme, session_key) -> GatewaySession:
        for session_id in [sid for sid, s in self.sessions.items() if self._expired(s)]:
            del self.sessions[session_id]
        session = GatewaySession(
            session_id=self.src.read(8).hex(),
            uid=uid,
            scheme=scheme,
            session_key=session_key,
            established_minutes=self.sim_minutes,
        )
        self.sessions[session.session_id] = session
        return session

    # --- stages 4-5: utilization under continuous authentication -----------------

    def authorize_device_access(
        self, session: GatewaySession, device_id: str, snapshot: ContextSnapshot
    ) -> str:
        """Re-evaluate context against the device's own threshold on every
        request, judged on ``snapshot`` alone: the session records nothing
        of it. Each call appends exactly one usage record, dropping the
        oldest once the log holds USAGE_LOG_ROWS."""
        live = self.sessions.get(session.session_id)
        if live is not session:
            raise SessionExpired("unknown or superseded session")
        if self._expired(session):
            del self.sessions[session.session_id]
            raise SessionExpired(f"TTL {SESSION_TTL_MINUTES} min exceeded")
        device = DEVICES.get(device_id)
        if device is None:
            raise UnknownDevice(device_id)
        kind, policy = device

        record = ctx.record_from_snapshot(snapshot, device_id)
        if snapshot.origin == ctx.ORIGIN_INTERNET:
            profile = self.db.profiles[session.uid]
            if kind not in INTERNET_ALLOWLIST.get(profile.role, frozenset()):
                self._log_usage(session.uid, record, ctx.DENY)
                return ctx.DENY

        decision = ctx.decide_access(self._confidence(session.uid, True, snapshot, record), policy)
        self._log_usage(session.uid, record, decision)
        return decision

    def _log_usage(self, uid: str, record: ctx.AccessRecord, decision: str) -> None:
        rows = self.db.usage_patterns
        rows.append(
            UsageRecord(
                uid=uid,
                device_id=record.device_id,
                sim_minutes=self.sim_minutes,
                hour_bucket=record.hour_bucket,
                weekday=record.weekday,
                ip_class=record.ip_class,
                decision=decision,
            )
        )
        del rows[:-USAGE_LOG_ROWS]

    # --- classifier ------------------------------------------------------------

    def set_classifier(self, model: NaiveBayesModel | None) -> None:
        self.model = model

    # --- persistence -------------------------------------------------------------

    def save_database(self, path) -> None:
        store_db(self.db, self.db_key, path, self.src)

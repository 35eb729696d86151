"""Adversary suite: replay, impersonation, session-key disclosure, and
stolen-device capture against all three schemes.

Success criteria are operational: an attack succeeds only when the
adversary gets a forged or replayed message accepted, equates or derives a
session key it was not given, or finds secret material inside captured
state bytes. Everything runs on seeded randomness so outcomes are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .. import dhs_auth, dors_auth, merkle_auth, persist
from ..errors import InvalidParams, SshafError
from ..link import USER, Loopback
from ..primitives import (
    NONCE_LEN,
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    kdf,
    sha256_many,
)

ATTACK_REPLAY = "replay"
ATTACK_IMPERSONATE = "impersonate"
ATTACK_SKD = "skd"
ATTACK_STOLEN = "stolen"

ATTACK_KINDS = (ATTACK_REPLAY, ATTACK_IMPERSONATE, ATTACK_SKD, ATTACK_STOLEN)
SCHEMES = ("mht", "dors", "dhs")

# Labels the public kdf is used with anywhere in the framework; a disclosed
# key that re-derives another session key through any of them is a break.
_KDF_LABELS = ("sk", "confirm", "mht-ratchet", "dors-sk", "dors-ratchet", "dhs-sk", "leaf")


@dataclass
class AttackOutcome:
    succeeded: bool
    detail: str


@dataclass
class SessionTrace:
    """Public wire material plus the established key for one session."""

    session_key: Key256
    client_messages: list[bytes]
    public_material: list[bytes] = field(default_factory=list)


# --- per-scheme worlds --------------------------------------------------------

def _trace(link: Loopback, key: Key256, public_material: list[bytes]) -> SessionTrace:
    """A session run over ``link``: its client messages are the encoded
    USER messages the loopback carried."""
    client = [message.encode() for sender, message in link.carried if sender == USER]
    return SessionTrace(key, client, public_material)


class MhtWorld:
    UID = "alice"

    def __init__(self, src: RandomSource):
        self.src = src
        self.master = Key256(src.read(32))
        self.registry: dict[str, merkle_auth.MhtGatewayState] = {}
        self.user, self.gateway = merkle_auth.mht_register(self.registry, self.UID, self.master)

    def run_session(self) -> SessionTrace:
        link = Loopback()
        _, key = merkle_auth.mht_handshake(link, self.user, self.registry, self.src)
        m1, m2 = (message for _, message in link.carried[:2])
        n_u, n_g, root = m1.n_u.bytes, m2.n_g.bytes, m2.root.bytes
        return _trace(link, key, [n_u + n_g + root, n_u, n_g, root])


class DorsWorld:
    UID = "alice"

    def __init__(self, src: RandomSource):
        self.src = src
        self.master = Key256(src.read(32))
        self.user, self.gateway = dors_auth.dors_provision(self.UID, self.master)

    def run_session(self) -> SessionTrace:
        link = Loopback()
        _, key = dors_auth.dors_handshake(link, self.user, self.gateway, self.src)
        _, challenge = link.carried[0]
        chain = self.gateway.chain.value.bytes
        return _trace(link, key, [challenge.bytes, challenge.bytes + chain, chain])


class DhsWorld:
    UID = "alice"
    PASSWORD = "attack-lab-pass"

    def __init__(self, src: RandomSource):
        self.src = src
        self.home = dhs_auth.dhs_initialize(src)
        self.edge = dhs_auth.EdgeServer()
        self.card = dhs_auth.dhs_register(self.home, self.edge, self.UID, self.PASSWORD, src)

    def run_session(self) -> SessionTrace:
        link = Loopback()
        _, key = dhs_auth.dhs_handshake(link, self.card, self.edge, self.PASSWORD, self.src)
        challenge, confirm = (message for _, message in link.carried[1:3])
        return _trace(link, key, [challenge.n_e.bytes, confirm.tag.bytes + challenge.n_e.bytes])


def _world(scheme: str, seed: bytes):
    src = RandomSource.seeded(seed).fork(f"attack:{scheme}")
    if scheme == "mht":
        return MhtWorld(src)
    if scheme == "dors":
        return DorsWorld(src)
    if scheme == "dhs":
        return DhsWorld(src)
    raise ValueError(f"unknown scheme {scheme!r}")


# --- replay ---------------------------------------------------------------------

def attack_replay(scheme: str, seed: bytes = b"\x01" * 32) -> AttackOutcome:
    """Re-inject every recorded client message against the live gateway
    after the session completed."""
    world = _world(scheme, seed)
    trace = world.run_session()
    accepted = []

    if scheme == "mht":
        for wire in trace.client_messages:
            try:
                if wire[0] == merkle_auth.M1_TYPE:
                    merkle_auth.mht_auth_challenge(
                        world.registry, merkle_auth.MhtM1.decode(wire), world.src
                    )
                else:
                    merkle_auth.mht_auth_finalize(
                        world.registry, world.UID, merkle_auth.MhtM3.decode(wire)
                    )
                accepted.append(wire[0])
            except SshafError:
                pass
    elif scheme == "dors":
        sig = dors_auth.DorsSignature.decode(
            trace.client_messages[0], world.gateway.public_key.params
        )
        challenge = Nonce128(trace.public_material[0])
        try:
            dors_auth.dors_gateway_verify(world.gateway, challenge, sig)
            accepted.append("signature")
        except SshafError:
            pass
    elif scheme == "dhs":
        for wire, kind in zip(trace.client_messages, ("login", "confirm")):
            try:
                if kind == "login":
                    dhs_auth.dhs_edge_verify(world.edge, wire, world.src)
                else:
                    dhs_auth.dhs_edge_complete(world.edge, dhs_auth.ConfirmMessage.decode(wire))
                accepted.append(kind)
            except SshafError:
                pass

    if accepted:
        return AttackOutcome(True, f"{scheme}: replayed message accepted: {accepted}")
    return AttackOutcome(False, f"{scheme}: all replayed client messages rejected")


# --- impersonation ----------------------------------------------------------------

def _mht_impersonate(world: MhtWorld, traces: list[SessionTrace]) -> list[str]:
    accepted = []
    # The adversary can open a handshake (uid and counter are public)...
    m1 = merkle_auth.MhtM1(world.UID, Nonce128(b"\xaa" * 16), world.gateway.txn_counter)
    m2 = merkle_auth.mht_auth_challenge(world.registry, m1, world.src)
    # ...but must then produce the keyed response tag. Candidate forgeries:
    candidates = [Digest256(b"\x00" * 32), hash_bytes(m1.n_u.bytes + m2.n_g.bytes + m2.root.bytes)]
    for trace in traces:
        candidates.append(merkle_auth.MhtM3.decode(trace.client_messages[1]).tag_u)
    for tag in candidates:
        try:
            merkle_auth.mht_auth_finalize(world.registry, world.UID, merkle_auth.MhtM3(tag))
            accepted.append("m3-forgery")
        except SshafError:
            # A failed finalize clears the pending run; reopen for the next try.
            m1 = merkle_auth.MhtM1(world.UID, Nonce128(b"\xaa" * 16), world.gateway.txn_counter)
            m2 = merkle_auth.mht_auth_challenge(world.registry, m1, world.src)
    return accepted


def _dors_impersonate(world: DorsWorld, traces: list[SessionTrace]) -> list[str]:
    accepted = []
    params = world.gateway.public_key.params
    observed = dors_auth.DorsSignature.decode(traces[-1].client_messages[0], params)
    revealed = dict(zip(observed.subset_indices, observed.reveals))
    challenge = dors_auth.dors_challenge(world.src)
    message = challenge.bytes + world.UID.encode()
    indices = dors_auth.dors_subset(message, world.gateway.chain, params)
    fallback = observed.reveals[0]
    forged = dors_auth.DorsSignature(
        observed.tree_index, indices, [revealed.get(i, fallback) for i in indices]
    )
    try:
        dors_auth.dors_gateway_verify(world.gateway, challenge, forged)
        accepted.append("subset-forgery")
    except SshafError:
        pass
    return accepted


def _dhs_impersonate(world: DhsWorld, traces: list[SessionTrace]) -> list[str]:
    accepted = []
    current_iid = world.edge.db[world.UID].current_iid
    old_request = traces[-1].client_messages[0]
    _, old_record = dhs_auth.dhs_decapsulate(old_request)
    # Replay the old record under the rotated identifier, and try guessed tags.
    candidates = [
        dhs_auth.dhs_encapsulate(old_record, current_iid).encode(),
        old_request,
    ]
    fake_nonce = Nonce128(b"\xbb" * 16)
    for guess_tag in (hash_bytes(b"guess"), hash_bytes(current_iid.to_bytes() + fake_nonce.bytes)):
        record = b"\x00\x05alice" + fake_nonce.bytes + guess_tag.bytes
        candidates.append(dhs_auth.dhs_encapsulate(record, current_iid).encode())
    for wire in candidates:
        try:
            dhs_auth.dhs_edge_verify(world.edge, wire, world.src)
            accepted.append("login-forgery")
        except SshafError:
            pass
    return accepted


def attack_impersonate(scheme: str, seed: bytes = b"\x02" * 32) -> AttackOutcome:
    """Best-effort forgeries from public data and recorded transcripts; the
    adversary holds no long-term user secrets."""
    world = _world(scheme, seed)
    traces = [world.run_session() for _ in range(2)]
    if scheme == "mht":
        accepted = _mht_impersonate(world, traces)
    elif scheme == "dors":
        accepted = _dors_impersonate(world, traces)
    else:
        accepted = _dhs_impersonate(world, traces)
    if accepted:
        return AttackOutcome(True, f"{scheme}: forged message accepted: {accepted}")
    return AttackOutcome(False, f"{scheme}: every forgery attempt rejected")


# --- session-key disclosure -----------------------------------------------------

# The disclosure and stolen-device attacks each run this many sessions; the
# disclosure attack hands over the key of session #DISCLOSE_INDEX.
N_SESSIONS = 3
DISCLOSE_INDEX = 1


def attack_session_key_disclosure(scheme: str, seed: bytes = b"\x03" * 32) -> AttackOutcome:
    """Hand the adversary one session key; the others must neither equal it
    nor be derivable from it through the public kdf over recorded material."""
    world = _world(scheme, seed)
    traces = [world.run_session() for _ in range(N_SESSIONS)]
    disclosed = traces[DISCLOSE_INDEX].session_key

    derived = {disclosed.bytes}
    materials = [m for t in traces for m in t.public_material] + [b""]
    for label in _KDF_LABELS:
        for material in materials:
            derived.add(kdf(disclosed, label, material).bytes)

    hits = [
        i
        for i, trace in enumerate(traces)
        if i != DISCLOSE_INDEX and trace.session_key.bytes in derived
    ]
    if hits:
        return AttackOutcome(True, f"{scheme}: disclosure of #{DISCLOSE_INDEX} exposed {hits}")
    return AttackOutcome(
        False, f"{scheme}: other {N_SESSIONS - 1} session keys unaffected by disclosure"
    )


# --- stolen device ------------------------------------------------------------------

def _captured_state(scheme: str, world, include_pending: bool) -> bytes:
    if scheme == "mht":
        return persist.dumps(
            persist.mht_state_to_dict(world.registry[world.UID], include_pending=include_pending)
        )
    if scheme == "dors":
        return persist.dumps(persist.dors_gateway_to_dict(world.gateway))
    # DHS: the edge *database table* alone, per the stolen-database model.
    return persist.dumps(persist.edge_db_to_dict(world.edge.db))


def _derivation_attempts(scheme: str, captured: dict, traces: list[SessionTrace]) -> set[bytes]:
    """Every key the adversary can derive from captured fields plus
    transcript material using the public kdf."""
    secrets: list[Key256] = []
    if scheme == "mht":
        secrets.append(Key256.from_hex(captured["shared_key"]))
    elif scheme == "dors":
        secrets.append(Key256.from_hex(captured["link_key"]))
    else:
        for row in captured.values():
            share = Key256.from_hex(row["edge_share"])
            secrets.append(share)
            secrets.append(Key256(hash_bytes(share.bytes).bytes))
    out: set[bytes] = {s.bytes for s in secrets}
    materials = [m for t in traces for m in t.public_material] + [b""]
    for secret in secrets:
        for label in _KDF_LABELS:
            for material in materials:
                out.add(kdf(secret, label, material).bytes)
    return out


def attack_stolen_device(
    scheme: str, seed: bytes = b"\x04" * 32, capture_pending: bool = False
) -> AttackOutcome:
    """Capture the gateway-side persisted state after N_SESSIONS sessions and
    try to recover the past session keys from it plus the transcripts.

    With ``capture_pending`` the capture happens mid-handshake; that window
    is expected to leak the in-flight key and reports success."""
    world = _world(scheme, seed)
    traces = [world.run_session() for _ in range(N_SESSIONS)]

    if capture_pending:
        if scheme != "mht":
            raise ValueError("pending-window capture is modelled for the mht scheme")
        m1 = merkle_auth.mht_auth_initiate(world.user, world.src)
        m2 = merkle_auth.mht_auth_challenge(world.registry, m1, world.src)
        blob = _captured_state(scheme, world, include_pending=True)
        captured = json.loads(blob)
        pend = captured.get("pending")
        if pend and "n_u" in pend and "n_g" in pend:
            shared = Key256.from_hex(captured["shared_key"])
            in_flight = kdf(
                shared,
                "sk",
                bytes.fromhex(pend["n_u"]) + bytes.fromhex(pend["n_g"]) + bytes.fromhex(pend["root"]),
            )
            m3 = merkle_auth.mht_auth_respond(world.user, m2)
            _, real_key = merkle_auth.mht_auth_finalize(world.registry, world.UID, m3)
            if in_flight == real_key:
                return AttackOutcome(
                    True,
                    "mht: capture during a pending handshake exposes the in-flight "
                    "session key (documented window)",
                )
        return AttackOutcome(False, "mht: pending capture leaked nothing")

    blob = _captured_state(scheme, world, include_pending=False)

    # Ephemeral nonces and session keys must not sit in persisted bytes.
    hex_blob = blob.decode()
    leaked = []
    for i, trace in enumerate(traces):
        if trace.session_key.bytes.hex() in hex_blob:
            leaked.append(f"session-key-{i}")
        for material in trace.public_material:
            if len(material) == 16 and material.hex() in hex_blob:
                leaked.append(f"nonce-{i}")
    if leaked:
        return AttackOutcome(True, f"{scheme}: persisted state contains {leaked}")

    derived = _derivation_attempts(scheme, json.loads(blob), traces)
    hits = [i for i, t in enumerate(traces) if t.session_key.bytes in derived]
    if hits:
        return AttackOutcome(True, f"{scheme}: past session keys {hits} derivable from capture")

    if scheme == "dhs":
        # A stolen edge table must also not authorize a fresh login.
        fresh = _dhs_impersonate(world, traces)
        if fresh:
            return AttackOutcome(True, "dhs: stolen edge table enabled a fresh login")

    return AttackOutcome(
        False, f"{scheme}: no past session key recoverable from captured state + transcripts"
    )


# --- the whole matrix --------------------------------------------------------------

def run_attack_matrix(seed: bytes = b"\x05" * 32) -> dict[tuple[str, str], AttackOutcome]:
    """All four attacks against all three schemes: 12 outcomes."""
    matrix: dict[tuple[str, str], AttackOutcome] = {}
    for scheme in SCHEMES:
        matrix[(ATTACK_REPLAY, scheme)] = attack_replay(scheme, seed)
        matrix[(ATTACK_IMPERSONATE, scheme)] = attack_impersonate(scheme, seed)
        matrix[(ATTACK_SKD, scheme)] = attack_session_key_disclosure(scheme, seed=seed)
        matrix[(ATTACK_STOLEN, scheme)] = attack_stolen_device(scheme, seed=seed)
    return matrix


# --- small-parameter forgery experiment -----------------------------------------------

@dataclass
class ForgeryReport:
    trials: int
    successes: int
    rate: float
    analytic_rate: float
    bound: float  # analytic + 3 sigma

    @property
    def within_bound(self) -> bool:
        return self.rate <= self.bound


# Trials are drawn and hashed 512 at a time: 8 KB of challenges amortise the
# per-batch calls, yet the batch stays too small to move peak memory.
BATCH = 512


def forgery_experiment(
    t: int = 16, k: int = 4, trials: int = 10000, seed: bytes = b"\x06" * 32
) -> ForgeryReport:
    """Observe one signature at toy parameters, then count how often a
    fresh challenge's subset lands entirely inside the revealed leaves.

    Trials run in batches of ``BATCH``: one ``src.read`` draws a batch's
    challenges and one ``sha256_many`` hashes every ``challenge || uid ||
    chain value``. Each digest's subset is then read log2(t) bits at a time
    from the top and rejected at its first index outside the revealed
    leaves. This reads the same bytes and charges ``METER`` the same counts
    as one ``dors_challenge`` plus one ``dors_subset`` per trial.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be positive, got {trials}")
    params = dors_auth.DorsParams(t=t, k=k, f=1, r=1)
    src = RandomSource.seeded(seed).fork("forgery")
    sk, pk, chain = dors_auth.dors_keygen(Key256(src.read(32)), params)
    verifier_chain = dors_auth.ChainState(chain.value, 0)  # signature intercepted

    observed_challenge = dors_auth.dors_challenge(src)
    observed_sig, _ = dors_auth.dors_sign(sk, chain, observed_challenge.bytes + b"alice")
    revealed = dict(zip(observed_sig.subset_indices, observed_sig.reveals))
    in_revealed = [leaf in revealed for leaf in range(t)]
    mask = t - 1
    shifts = [256 - (i + 1) * params.log2_t for i in range(k)]
    suffix = b"alice" + verifier_chain.value.bytes

    successes = 0
    checked_forgery = False
    for done in range(0, trials, BATCH):
        raw = src.read(NONCE_LEN * min(BATCH, trials - done))
        offsets = range(0, len(raw), NONCE_LEN)
        digests = sha256_many([raw[off : off + NONCE_LEN] + suffix for off in offsets])
        for off, digest in zip(offsets, digests):
            acc = int.from_bytes(digest, "big")
            for shift in shifts:
                if not in_revealed[(acc >> shift) & mask]:
                    break
            else:
                successes += 1
                if not checked_forgery:
                    # Confirm the counted event really is a verifiable forgery.
                    message = raw[off : off + NONCE_LEN] + b"alice"
                    indices = dors_auth.subset_of_digest(digest, params)
                    forged = dors_auth.DorsSignature(0, indices, [revealed[i] for i in indices])
                    ok, _ = dors_auth.dors_verify(pk, verifier_chain, message, forged)
                    if not ok:
                        raise RuntimeError("counted forgery did not verify")
                    checked_forgery = True

    analytic = (k / t) ** k
    sigma = math.sqrt(analytic * (1 - analytic) / trials)
    return ForgeryReport(
        trials=trials,
        successes=successes,
        rate=successes / trials,
        analytic_rate=analytic,
        bound=analytic + 3 * sigma,
    )

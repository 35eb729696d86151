"""Adversary suite: replay, impersonation, session-key disclosure, and
stolen-device capture against all three schemes.

Each attack's world is the seeded one-user ``Gateway`` the cost tables
also run on, built by ``scenarios.seeded_gateway`` with the attacked
scheme's capability. Every honest session runs through
``Gateway.run_scheme``, and the adversary reads and targets the gateway's
own registries, wallets and edge table.

A recorded session keeps its client messages as the objects the link
carried, and one function, ``_accepted``, hands every replayed or forged
client message to the gateway function that receives its class.

Success criteria are operational: an attack succeeds only when the
adversary gets a forged or replayed message accepted, equates or derives a
session key it was not given, or finds secret material inside captured
state bytes. Everything runs on seeded randomness so outcomes are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .. import dhs_auth, dors_auth, merkle_auth, persist
from ..errors import InvalidParams, SshafError
from ..gateway import Gateway
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
from .scenarios import PASSWORD, UID, seeded_gateway

ATTACK_REPLAY = "replay"
ATTACK_IMPERSONATE = "impersonate"
ATTACK_SKD = "skd"
ATTACK_STOLEN = "stolen"

SCHEMES = ("mht", "dors", "dhs")

# The labels the key search tries with the public kdf: the five that derive
# the handshakes' session keys and ratchets, the DORS leaf-secret label, and
# "confirm", the message the MHT and DHS confirmation macs start with. A
# disclosed or captured key that re-derives another session key through any
# of them is a break. The kdf labels of provisioning (user, seed, link, card
# and edge keys) and of the database keys are not tried.
_KDF_LABELS = ("sk", "confirm", "mht-ratchet", "dors-sk", "dors-ratchet", "dhs-sk", "leaf")


@dataclass
class AttackOutcome:
    succeeded: bool
    detail: str


@dataclass
class SessionTrace:
    """One session as the adversary saw it: the message objects the user
    sent, the public material its keys could be derived over, and the key
    it established."""

    session_key: Key256
    client_messages: list
    public_material: list[bytes]


# --- honest sessions -------------------------------------------------------------

def _run_session(gw: Gateway, scheme: str) -> SessionTrace:
    """One session through the gateway's own dispatch, over a loopback whose
    USER messages are the client messages."""
    link = Loopback()
    key = gw.run_scheme(scheme, UID, PASSWORD, link)
    messages = [message for _, message in link.carried]
    if scheme == "mht":
        n_u, n_g, root = messages[0].n_u.bytes, messages[1].n_g.bytes, messages[1].root.bytes
        public = [n_u + n_g + root, n_u, n_g, root]
    elif scheme == "dors":
        challenge, chain = messages[0].bytes, gw.dors_registry[UID].chain.value.bytes
        public = [challenge, challenge + chain, chain]
    else:
        challenge, confirm = messages[1:3]
        public = [challenge.n_e.bytes, confirm.tag.bytes + challenge.n_e.bytes]
    client = [message for sender, message in link.carried if sender == USER]
    return SessionTrace(key, client, public)


def _accepted(gw: Gateway, messages: list, challenge: Nonce128 | None) -> list[str]:
    """Send each client message to the gateway function that receives its
    class, in order, and return the class names of those it accepted: those
    whose receiver raised no ``SshafError``. ``challenge`` is the DORS
    challenge a ``DorsSignature`` answers, and ``None`` for other messages."""
    receivers = {
        merkle_auth.MhtM1: lambda m: merkle_auth.mht_auth_challenge(gw.mht_registry, m, gw.src),
        merkle_auth.MhtM3: lambda m: merkle_auth.mht_auth_finalize(gw.mht_registry, UID, m),
        dors_auth.DorsSignature:
            lambda m: dors_auth.dors_gateway_verify(gw.dors_registry[UID], challenge, m),
        dhs_auth.LoginRequest: lambda m: dhs_auth.dhs_edge_verify(gw.edge, m, gw.src),
        dhs_auth.ConfirmMessage: lambda m: dhs_auth.dhs_edge_complete(gw.edge, m),
    }
    accepted = []
    for message in messages:
        try:
            receivers[type(message)](message)
        except SshafError:
            continue
        accepted.append(type(message).__name__)
    return accepted


# --- replay ---------------------------------------------------------------------

def attack_replay(scheme: str, seed: bytes) -> AttackOutcome:
    """Re-inject every recorded client message against the live gateway
    after the session completed."""
    gw = seeded_gateway(seed, f"attack:{scheme}", scheme)
    trace = _run_session(gw, scheme)
    challenge = Nonce128(trace.public_material[0]) if scheme == "dors" else None
    accepted = _accepted(gw, trace.client_messages, challenge)
    if accepted:
        return AttackOutcome(True, f"{scheme}: replayed message accepted: {accepted}")
    return AttackOutcome(False, f"{scheme}: all replayed client messages rejected")


# --- impersonation ----------------------------------------------------------------

def _mht_impersonate(gw: Gateway, traces: list[SessionTrace]) -> list[str]:
    # The adversary can open a handshake (uid and counter are public) but
    # must then produce the keyed response tag. Each candidate answers an
    # opening of its own: a zero tag, the hash of that opening's public
    # data (marked None until the opening exists), and each recorded tag.
    accepted = []
    for tag in [Digest256(bytes(32)), None, *(t.client_messages[1].tag_u for t in traces)]:
        m1 = merkle_auth.MhtM1(UID, Nonce128(b"\xaa" * 16), gw.mht_registry[UID].txn_counter)
        m2 = merkle_auth.mht_auth_challenge(gw.mht_registry, m1, gw.src)
        if tag is None:
            tag = hash_bytes(m1.n_u.bytes + m2.n_g.bytes + m2.root.bytes)
        accepted += _accepted(gw, [merkle_auth.MhtM3(tag)], None)
    return accepted


def _dors_impersonate(gw: Gateway, traces: list[SessionTrace]) -> list[str]:
    # Answer a fresh challenge with the last recorded signature's reveals.
    gateway = gw.dors_registry[UID]
    observed = traces[-1].client_messages[0]
    revealed = dict(zip(observed.subset_indices, observed.reveals))
    challenge = dors_auth.dors_challenge(gw.src)
    message = challenge.bytes + UID.encode()
    indices = dors_auth.dors_subset(message, gateway.chain, gateway.public_key.params)
    fallback = observed.reveals[0]
    forged = dors_auth.DorsSignature(
        observed.tree_index, indices, [revealed.get(i, fallback) for i in indices]
    )
    return _accepted(gw, [forged], challenge)


def _dhs_impersonate(gw: Gateway, traces: list[SessionTrace]) -> list[str]:
    # Replay the old request under the rotated identifier, and try guessed tags.
    current_iid = gw.edge.db[UID].current_iid
    old_request = traces[-1].client_messages[0]
    fake_nonce = Nonce128(b"\xbb" * 16)
    guessed = [
        dhs_auth.LoginRequest(dhs_auth.DEFAULT_PREFIX, current_iid, UID, fake_nonce, tag)
        for tag in (hash_bytes(b"guess"), hash_bytes(current_iid.to_bytes() + fake_nonce.bytes))
    ]
    return _accepted(gw, [replace(old_request, iid=current_iid), old_request, *guessed], None)


def attack_impersonate(scheme: str, seed: bytes) -> AttackOutcome:
    """Best-effort forgeries from public data and recorded transcripts; the
    adversary holds no long-term user secrets."""
    gw = seeded_gateway(seed, f"attack:{scheme}", scheme)
    traces = [_run_session(gw, scheme) for _ in range(2)]
    if scheme == "mht":
        accepted = _mht_impersonate(gw, traces)
    elif scheme == "dors":
        accepted = _dors_impersonate(gw, traces)
    else:
        accepted = _dhs_impersonate(gw, traces)
    if accepted:
        return AttackOutcome(True, f"{scheme}: forged message accepted: {accepted}")
    return AttackOutcome(False, f"{scheme}: every forgery attempt rejected")


# --- session-key disclosure -----------------------------------------------------

# The disclosure and stolen-device attacks each run this many sessions; the
# disclosure attack hands over the key of session #DISCLOSE_INDEX.
N_SESSIONS = 3
DISCLOSE_INDEX = 1


def _derivable(secrets: list[Key256], traces: list[SessionTrace]) -> set[bytes]:
    """The secrets themselves, and the public kdf of each under each
    ``_KDF_LABELS`` label over each recorded material, or over none."""
    materials = [m for t in traces for m in t.public_material] + [b""]
    return {s.bytes for s in secrets} | {
        kdf(secret, label, material).bytes
        for secret in secrets for label in _KDF_LABELS for material in materials
    }


def attack_session_key_disclosure(scheme: str, seed: bytes) -> AttackOutcome:
    """Hand the adversary one session key; the others must neither equal it
    nor be derivable from it through the public kdf over recorded material."""
    gw = seeded_gateway(seed, f"attack:{scheme}", scheme)
    traces = [_run_session(gw, scheme) for _ in range(N_SESSIONS)]
    disclosed = traces[DISCLOSE_INDEX].session_key

    derived = _derivable([disclosed], traces)
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

def _captured_state(scheme: str, gw: Gateway) -> bytes:
    if scheme == "mht":
        return persist.dumps(persist.mht_state_to_dict(gw.mht_registry[UID]))
    if scheme == "dors":
        return persist.dumps(persist.dors_gateway_to_dict(gw.dors_registry[UID]))
    # DHS: the edge *database table* alone, per the stolen-database model.
    return persist.dumps(persist.edge_db_to_dict(gw.edge.db))


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
    return _derivable(secrets, traces)


def attack_stolen_device(scheme: str, seed: bytes) -> AttackOutcome:
    """Capture the gateway-side persisted state after N_SESSIONS completed
    sessions and try to recover the past session keys from it plus the
    transcripts. A DHS capture must also not let a fresh login through."""
    gw = seeded_gateway(seed, f"attack:{scheme}", scheme)
    traces = [_run_session(gw, scheme) for _ in range(N_SESSIONS)]
    blob = _captured_state(scheme, gw)

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
        fresh = _dhs_impersonate(gw, traces)
        if fresh:
            return AttackOutcome(True, "dhs: stolen edge table enabled a fresh login")

    return AttackOutcome(
        False, f"{scheme}: no past session key recoverable from captured state + transcripts"
    )


# --- the whole matrix --------------------------------------------------------------

# Each attack kind's function, called as ``ATTACKS[kind](scheme, seed)``.
ATTACKS = {
    ATTACK_REPLAY: attack_replay,
    ATTACK_IMPERSONATE: attack_impersonate,
    ATTACK_SKD: attack_session_key_disclosure,
    ATTACK_STOLEN: attack_stolen_device,
}
ATTACK_KINDS = tuple(ATTACKS)


def run_attack_matrix(seed: bytes) -> dict[tuple[str, str], AttackOutcome]:
    """Every attack of ``ATTACKS`` against every scheme: 12 outcomes."""
    return {
        (kind, scheme): attack(scheme, seed)
        for scheme in SCHEMES for kind, attack in ATTACKS.items()
    }


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


def forgery_experiment(seed: bytes, t: int = 16, k: int = 4, trials: int = 10000) -> ForgeryReport:
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

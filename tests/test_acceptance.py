"""Acceptance gate: every exit criterion as one test, each printing its own
pass/fail line (run with -s to see them live). Tolerances and budgets are
pinned here, not deferred anywhere."""

import hashlib
import random
import time

import pytest

from sshaf import dhs_auth, dors_auth, merkle_auth
from sshaf.context_engine import (
    DENY,
    FACTORS,
    GRANT,
    IP_HOME,
    LABEL_ANOMALOUS,
    LABEL_LEGIT,
    ORIGIN_LOCAL,
    STEP_UP,
    AccessPolicy,
    ContextSnapshot,
    classify_access,
    decide_access,
    score_confidence,
    train_classifier,
)
from sshaf.errors import (
    AuthenticatedDecryptionFailed,
    NotVerified,
    SessionExpired,
    SshafError,
    UnknownUser,
)
from sshaf.gateway import WEIGHTS, Gateway, GatewaySession, decrypt_db, encrypt_db
from sshaf.harness.attacks import forgery_experiment, run_attack_matrix
from sshaf.link import Loopback
from sshaf.primitives import (
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    hmac_sha256,
    random_key,
)
from synthetic import make_synthetic_dataset


class Budget:
    """Wall-clock budget for one criterion (test-side only; the framework
    itself never reads a clock)."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} over budget: {elapsed:.2f}s"
        return False


# --- criterion 1: cryptographic core ------------------------------------------

def test_criterion_crypto_core():
    with Budget("crypto-core", 10):
        # Published-vector oracles.
        assert (
            hash_bytes(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        assert (
            hash_bytes(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert (
            hmac_sha256(bytes.fromhex("0b" * 20), b"Hi There").hex()
            == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )
        assert (
            hmac_sha256(b"Jefe", b"what do ya want for nothing?").hex()
            == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

        # Merkle round trip for every history size 1..64: the latest leaf,
        # the one leaf the handshake proves, verifies against the root.
        rng = random.Random(0xACCE)
        for n in range(1, 65):
            leaves = [Digest256(rng.randbytes(32)) for _ in range(n)]
            history = merkle_auth.MerkleHistory.from_leaves(leaves)
            assert merkle_auth.mht_verify(history.root, leaves[-1], history.proof())

        # Single-byte mutations of leaf, siblings, and root all break
        # verification (sampled positions across sizes).
        for n in (1, 2, 5, 16, 33, 64):
            leaves = [Digest256(rng.randbytes(32)) for _ in range(n)]
            history = merkle_auth.MerkleHistory.from_leaves(leaves)
            proof = history.proof()
            for pos in (0, 13, 31):
                bad_leaf = bytearray(leaves[-1].bytes)
                bad_leaf[pos] ^= 1
                assert not merkle_auth.mht_verify(history.root, Digest256(bytes(bad_leaf)), proof)
                bad_root = bytearray(history.root.bytes)
                bad_root[pos] ^= 1
                assert not merkle_auth.mht_verify(Digest256(bytes(bad_root)), leaves[-1], proof)
            for s, digest in enumerate(proof.siblings):
                mutated = bytearray(digest.bytes)
                mutated[s % 32] ^= 1
                bad = merkle_auth.MerkleProof(n - 1, list(proof.siblings))
                bad.siblings[s] = Digest256(bytes(mutated))
                assert not merkle_auth.mht_verify(history.root, leaves[-1], bad)


# --- criterion 2: protocol correctness, 100 handshakes per scheme ----------------

def _run_mht_100() -> list[bytes]:
    registry = {}
    master = Key256(b"\x61" * 32)
    user, gateway = merkle_auth.mht_register(registry, "alice", master)
    src = RandomSource.seeded(b"\x62" * 32)
    keys = []
    for i in range(100):
        m1 = merkle_auth.mht_auth_initiate(user, src)
        m2 = merkle_auth.mht_auth_challenge(registry, m1, src)
        m3 = merkle_auth.mht_auth_respond(user, m2)
        m4, gw_key = merkle_auth.mht_auth_finalize(registry, "alice", m3)
        user_key = merkle_auth.mht_confirm(user, m4)
        assert user_key == gw_key
        assert user.txn_counter == gateway.txn_counter == i + 1
        assert user.history == gateway.history
        keys.append(gw_key.bytes)
    return keys


def _run_dors_100() -> list[bytes]:
    # f=16 trees gives a 128-signature budget; defaults (f=8) cap at 64.
    params = dors_auth.DorsParams(t=256, k=16, f=16, r=8)
    user, gateway = dors_auth.dors_provision("alice", Key256(b"\x63" * 32), params)
    src = RandomSource.seeded(b"\x64" * 32)
    keys = []
    for i in range(100):
        uk, gk = dors_auth.dors_handshake(Loopback(), user, gateway, src)
        assert uk == gk
        assert user.chain == gateway.chain
        assert gateway.chain.signature_count == i + 1
        keys.append(gk.bytes)
    return keys


def _run_dhs_100() -> list[bytes]:
    src = RandomSource.seeded(b"\x65" * 32)
    master = random_key(src)
    edge = dhs_auth.EdgeServer()
    card = dhs_auth.dhs_register(master, edge, "alice", "pw", src)
    keys, iids = [], set()
    for _ in range(100):
        request = dhs_auth.dhs_login(card, "alice", "pw", src)
        challenge = dhs_auth.dhs_edge_verify(edge, request, src)
        ck, ek, new_iid = dhs_auth.dhs_session_agree(Loopback(), card, edge, challenge)
        assert ck == ek
        assert edge.db["alice"].current_iid == card.current_iid == new_iid
        iids.add(new_iid.iid)
        keys.append(ek.bytes)
    assert len(iids) == 100
    return keys


def test_criterion_protocol_correctness():
    with Budget("protocol-correctness", 30):
        for runner in (_run_mht_100, _run_dors_100, _run_dhs_100):
            keys = runner()
            assert len(keys) == 100
            assert len(set(keys)) == 100  # pairwise distinct


# --- criterion 3: attack matrix ----------------------------------------------------

def test_criterion_attack_matrix():
    with Budget("attack-matrix", 60):
        matrix = run_attack_matrix(b"\x05" * 32)
        assert len(matrix) == 12
        failures = {key: out.detail for key, out in matrix.items() if out.succeeded}
        assert not failures, failures

        report = forgery_experiment(t=16, k=4, trials=10000, seed=b"\x06" * 32)
        assert report.analytic_rate == pytest.approx(0.00390625)
        assert report.rate <= report.bound, (report.rate, report.bound)
        print(
            f"\n  dors forgery: {report.successes}/{report.trials} = {report.rate:.5f} "
            f"<= bound {report.bound:.5f}"
        )


# --- criterion 4: cost-table structure ----------------------------------------------

def test_criterion_cost_table_structure():
    from sshaf.harness.scenarios import TABLE1_ROWS, TABLE2_ROWS, build_cost_table, run_scenario
    from sshaf.harness.simnet import LINK_LOCAL, SimConfig

    with Budget("cost-tables", 30):
        config = SimConfig(seed=b"\x42" * 32)
        table1 = build_cost_table(TABLE1_ROWS, config)
        table2 = build_cost_table(TABLE2_ROWS, config)

        for column in ("internet_access_ms", "local_access_ms"):
            # "No authentication" is the row minimum in every column.
            for table in (table1, table2):
                no_auth = next(r for r in table if not r["factors"])
                assert all(no_auth[column] <= row[column] for row in table)
            # Integration never costs more than the sum of its parts.
            singles = {tuple(r["factors"]): r[column] for r in table1 if r["factors"]}
            for row in table2:
                if row["factors"]:
                    assert row[column] <= sum(singles[(f,)] for f in row["factors"])

        # Absolute milliseconds are hardware-bound and not reproduced;
        # exact deterministic counters stand in for them.
        again = build_cost_table(TABLE1_ROWS, SimConfig(seed=b"\x42" * 32))
        for a, b in zip(table1, again):
            assert a["internet_report"] == b["internet_report"]
            assert a["local_report"] == b["local_report"]

        # Frozen constants derived from the wire formats.
        registry = {}
        user, _ = merkle_auth.mht_register(registry, "alice", Key256(b"\x33" * 32))
        src = RandomSource.seeded(b"\x01" * 32)
        wires = []
        for round_no in range(4):
            m1 = merkle_auth.mht_auth_initiate(user, src)
            m2 = merkle_auth.mht_auth_challenge(registry, m1, src)
            m3 = merkle_auth.mht_auth_respond(user, m2)
            m4, _ = merkle_auth.mht_auth_finalize(registry, "alice", m3)
            merkle_auth.mht_confirm(user, m4)
            wires = [m1.encode(), m2.encode(), m3.encode(), m4.encode()]
        # Fourth handshake ran over the 4-leaf history tree.
        assert sum(len(w) for w in wires) == 251

        sk, _, chain = dors_auth.dors_keygen(Key256(b"\x44" * 32), dors_auth.DorsParams())
        sig, _ = dors_auth.dors_sign(sk, chain, b"sizing")
        assert len(sig.encode()) == 546  # 2 + 16*2 + 16*32

        _, no_auth_report = run_scenario(config, "none", [], LINK_LOCAL)
        assert no_auth_report.hash_count == 0
        for scheme in ("mht", "dors", "dhs"):
            _, report = run_scenario(config, scheme, [], LINK_LOCAL)
            assert report.storage_bits % 8 == 0 and report.storage_bits > 0


# --- criterion 5: context engine ------------------------------------------------------

def test_criterion_context_engine():
    with Budget("context-engine", 30):
        records = make_synthetic_dataset(200, seed=93)
        split = int(len(records) * 0.8)
        model = train_classifier(records[:split])
        hits = sum(
            (classify_access(model, r) >= 0.5) == (r.label == LABEL_LEGIT)
            for r in records[split:]
        )
        accuracy = hits / (len(records) - split)
        assert accuracy >= 0.9, accuracy
        print(f"\n  classifier accuracy: {accuracy:.3f}")

        # Monotonicity over 10,000 random factor vectors.
        rng = random.Random(0xBEEF)
        weights = WEIGHTS
        policy = AccessPolicy(threshold=0.6)
        for _ in range(10_000):
            scores = {f: rng.random() for f in FACTORS}
            factor = rng.choice(FACTORS)
            raised = dict(scores)
            raised[factor] = min(1.0, scores[factor] + rng.random())
            before = score_confidence(scores, weights)
            after = score_confidence(raised, weights)
            assert after >= before - 1e-12
            if decide_access(before, policy) == GRANT:
                assert decide_access(after, policy) == GRANT

        # Boundary cases of the inclusive decision rule.
        assert decide_access(0.60, AccessPolicy(0.60)) == GRANT
        assert decide_access(0.45, AccessPolicy(0.60)) == STEP_UP
        assert decide_access(0.30, AccessPolicy(0.60)) == DENY
        assert decide_access(1.0, AccessPolicy(1.0)) == GRANT
        assert decide_access(0.0, AccessPolicy(0.0)) == GRANT


# --- criterion 6: lifecycle state machine ----------------------------------------------

def _random_sequence_violations(seq_no: int) -> int:
    """Drive one gateway with a random operation sequence; count any
    stage-ordering violation."""
    rng = random.Random(seq_no)
    gw = Gateway(
        RandomSource.seeded(seq_no.to_bytes(4, "big") * 8), Key256(b"\x55" * 32)
    )
    uids = ["u1", "u2"]
    registered: set[str] = set()
    activated: set[str] = set()
    sessions: list[GatewaySession] = []
    violations = 0
    if seq_no % 2:  # half the runs start with one fully activated account
        gw.register_user("u1", "U1", 20, "resident", "pw-u1")
        gw.owner_verify("owner", "u1", "activate")
        registered.add("u1")
        activated.add("u1")

    for _ in range(rng.randrange(4, 9)):
        op = rng.choice(["register", "verify", "login", "access", "forge", "tick"])
        uid = rng.choice(uids)
        snapshot = ContextSnapshot(
            uid=uid, origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True,
            timestamp=600 + gw.sim_minutes,
        )
        if op == "register":
            try:
                gw.register_user(uid, uid.title(), 20, "resident", f"pw-{uid}")
                registered.add(uid)
            except SshafError:
                pass
        elif op == "verify":
            try:
                gw.owner_verify("owner", uid, "activate")
                activated.add(uid)
            except SshafError:
                pass
        elif op == "login":
            try:
                result = gw.login(uid, f"pw-{uid}", snapshot)
            except (UnknownUser, NotVerified):
                if uid in activated:
                    violations += 1  # ordering said this was allowed
                continue
            if uid not in activated:
                violations += 1  # login before verification
            elif result.status == GRANT:
                sessions.append(result.session)
        elif op == "access" and sessions:
            session = rng.choice(sessions)
            try:
                gw.authorize_device_access(session, "thermostat", snapshot)
            except SessionExpired:
                pass
        elif op == "forge":
            fake = GatewaySession(
                session_id="f" * 16,
                uid=uid,
                scheme="mht",
                session_key=Key256(b"\x00" * 32),
                established_minutes=gw.sim_minutes,
            )
            try:
                gw.authorize_device_access(fake, "thermostat", snapshot)
                violations += 1  # access without login
            except SessionExpired:
                pass
        elif op == "tick":
            gw.advance_time(rng.randrange(0, 40))
    return violations


def test_criterion_lifecycle_state_machine():
    with Budget("lifecycle", 60):
        total = sum(_random_sequence_violations(i) for i in range(1000))
        assert total == 0, f"{total} ordering violations"

        # Encrypted database: identity round trip, then 100% rejection of
        # wrong keys and corrupted bytes.
        gw = Gateway(RandomSource.seeded(b"\x70" * 32), Key256(b"\x71" * 32))
        gw.register_user("alice", "Alice", 30, "resident", "pw")
        gw.owner_verify("owner", "alice", "activate")
        blob = encrypt_db(gw.db, gw.db_key, Nonce128(b"\x72" * 16))
        assert decrypt_db(blob, gw.db_key) == gw.db

        rng = random.Random(0xD8)
        for _ in range(20):
            wrong = Key256(rng.randbytes(32))
            with pytest.raises(AuthenticatedDecryptionFailed):
                decrypt_db(blob, wrong)
        for pos in range(0, len(blob), 7):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0x01
            with pytest.raises(AuthenticatedDecryptionFailed):
                decrypt_db(bytes(corrupted), gw.db_key)
        with pytest.raises(AuthenticatedDecryptionFailed):
            decrypt_db(blob[: len(blob) // 2], gw.db_key)


def test_sha256_reference_against_hashlib_oracle():
    # Independent cross-check: module digests equal hashlib on random data.
    rng = random.Random(0xFEED)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 300))
        assert hash_bytes(data).bytes == hashlib.sha256(data).digest()

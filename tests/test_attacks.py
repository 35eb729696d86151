"""Adversary-suite tests: the full matrix resists, the detectors are not
vacuous, and the documented pending-capture window reports itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf import dors_auth
from sshaf.errors import InvalidParams
from sshaf.harness.attacks import (
    SCHEMES,
    SessionTrace,
    _derivation_attempts,
    attack_impersonate,
    attack_replay,
    attack_session_key_disclosure,
    attack_stolen_device,
    forgery_experiment,
    run_attack_matrix,
)
from sshaf.primitives import METER, Key256, RandomSource, kdf

SEED = b"\x05" * 32


@pytest.mark.parametrize("scheme", SCHEMES)
def test_replay_resisted(scheme):
    outcome = attack_replay(scheme, SEED)
    assert not outcome.succeeded, outcome.detail


@pytest.mark.parametrize("scheme", SCHEMES)
def test_impersonation_resisted(scheme):
    outcome = attack_impersonate(scheme, SEED)
    assert not outcome.succeeded, outcome.detail


@pytest.mark.parametrize("scheme", SCHEMES)
def test_session_key_disclosure_contained(scheme):
    outcome = attack_session_key_disclosure(scheme, seed=SEED)
    assert not outcome.succeeded, outcome.detail


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stolen_device_resisted(scheme):
    outcome = attack_stolen_device(scheme, seed=SEED)
    assert not outcome.succeeded, outcome.detail


def test_stolen_capture_during_pending_handshake_documents_window():
    outcome = attack_stolen_device("mht", seed=SEED, capture_pending=True)
    assert outcome.succeeded
    assert "window" in outcome.detail


def test_full_matrix_is_twelve_resisted():
    matrix = run_attack_matrix(SEED)
    assert len(matrix) == 12
    assert all(not outcome.succeeded for outcome in matrix.values())


def test_derivation_recipes_cover_the_real_session_key_formula():
    """The stolen-device detector must be able to catch a scheme whose
    session keys are derivable from static captured state: feed it a
    capture whose key was never ratcheted and confirm it reconstructs the
    session key."""
    static_key = Key256(b"\x31" * 32)
    material = b"\x07" * 64  # stands in for nonces||root carried in M2
    session_key = kdf(static_key, "sk", material)
    trace = SessionTrace(session_key=session_key, client_messages=[], public_material=[material])
    derived = _derivation_attempts("mht", {"shared_key": static_key.hex()}, [trace])
    assert session_key.bytes in derived


def test_forgery_experiment_within_analytic_bound():
    report = forgery_experiment(t=16, k=4, trials=10000)
    assert report.analytic_rate == pytest.approx((4 / 16) ** 4)
    assert report.rate <= report.bound
    assert report.within_bound


def test_forgery_experiment_deterministic():
    a = forgery_experiment(trials=2000, seed=b"\x07" * 32)
    b = forgery_experiment(trials=2000, seed=b"\x07" * 32)
    assert a == b


# Trial counts on both sides of the first batch edge (attacks.BATCH = 512).
GRID_TRIALS = (1, 511, 512, 513, 10000)
# (seed byte, t, k): successes, then METER hash deltas, at each of
# GRID_TRIALS, and the METER mac delta, as one dors_challenge plus one
# dors_subset per trial gives them.
FORGERY_GRID = {
    (0x06, 16, 4): ((0, 0, 0, 0, 12), (35, 545, 546, 547, 10040), 20),
    (0x06, 4, 2): ((0, 134, 134, 135, 2592), (11, 525, 526, 527, 10014), 6),
    (0x06, 64, 3): ((0, 0, 0, 0, 1), (131, 641, 642, 643, 10135), 67),
    (0x06, 256, 2): ((0, 0, 0, 0, 0), (515, 1025, 1026, 1027, 10514), 258),
    (0x06, 2, 1): ((1, 250, 250, 251, 5023), (10, 520, 521, 522, 10009), 3),
    (0x07, 16, 4): ((0, 1, 1, 1, 16), (35, 551, 552, 553, 10040), 20),
    (0x07, 4, 2): ((1, 123, 124, 125, 2477), (15, 525, 526, 527, 10014), 6),
    (0x07, 64, 3): ((0, 0, 0, 0, 2), (131, 641, 642, 643, 10135), 67),
    (0x07, 256, 2): ((0, 1, 1, 1, 1), (515, 1029, 1030, 1031, 10518), 258),
    (0x07, 2, 1): ((0, 248, 248, 249, 4838), (7, 520, 521, 522, 10009), 3),
    (0x2A, 16, 4): ((0, 1, 1, 1, 33), (35, 551, 552, 553, 10040), 20),
    (0x2A, 4, 2): ((0, 37, 37, 37, 640), (11, 525, 526, 527, 10014), 6),
    (0x2A, 64, 3): ((0, 0, 0, 0, 1), (131, 641, 642, 643, 10135), 67),
    (0x2A, 256, 2): ((0, 0, 0, 0, 0), (515, 1025, 1026, 1027, 10514), 258),
    (0x2A, 2, 1): ((1, 248, 248, 248, 5054), (10, 520, 521, 522, 10009), 3),
}
# (t, k): the analytic rate plus three sigmas at each of GRID_TRIALS.
FORGERY_BOUNDS = {
    (16, 4): (0.19103968073442942, 0.012184545590484755, 0.012176457366188633,
              0.012168392803211397, 0.005777584307344295),
    (4, 2): (1.549038105676658, 0.30746606247686464, 0.30740991584648075,
             0.30735393346764045, 0.2629903810567666),
    (64, 3): (0.0305476344563205, 0.001449788302491431, 0.0014484724336122023,
              0.0014471604141802713, 0.0004074432024733613),
    (256, 2): (0.023497819889598426, 0.0010978174722251588, 0.0010968044946350014,
               0.0010957944804129342, 0.0002954030035834843),
    (2, 1): (2.0, 0.5663560932805713, 0.5662912607362388, 0.5662266178532522, 0.515),
}


@pytest.mark.parametrize("seed, t, k", FORGERY_GRID)
def test_forgery_experiment_reports_and_counts_are_pinned(seed, t, k):
    successes, hashes, macs = FORGERY_GRID[(seed, t, k)]
    for i, trials in enumerate(GRID_TRIALS):
        before = METER.snapshot()
        report = forgery_experiment(t=t, k=k, trials=trials, seed=bytes([seed]) * 32)
        after = METER.snapshot()
        assert (report.trials, report.successes) == (trials, successes[i]), trials
        assert report.rate == successes[i] / trials
        assert report.bound == FORGERY_BOUNDS[(t, k)][i]
        assert (after[0] - before[0], after[1] - before[1]) == (hashes[i], macs), trials


def per_trial_successes(t: int, k: int, trials: int, seed: bytes) -> int:
    """The experiment with one dors_challenge and one dors_subset per trial."""
    params = dors_auth.DorsParams(t=t, k=k, f=1, r=1)
    src = RandomSource.seeded(seed).fork("forgery")
    sk, _, chain = dors_auth.dors_keygen(Key256(src.read(32)), params)
    verifier_chain = dors_auth.ChainState(chain.value, 0)
    observed, _ = dors_auth.dors_sign(sk, chain, dors_auth.dors_challenge(src).bytes + b"alice")
    revealed = set(observed.subset_indices)
    successes = 0
    for _ in range(trials):
        message = dors_auth.dors_challenge(src).bytes + b"alice"
        successes += all(i in revealed for i in dors_auth.dors_subset(message, verifier_chain, params))
    return successes


@st.composite
def forgery_cases(draw):
    bits = draw(st.integers(1, 8))
    t = 1 << bits
    k = draw(st.integers(1, min(t // 2, 256 // bits)))
    return t, k, draw(st.integers(1, 600)), draw(st.binary(min_size=32, max_size=32))


@settings(max_examples=60, deadline=None)
@given(forgery_cases())
def test_batched_trial_test_agrees_with_per_trial_subsets(case):
    """Equal counts over the first n trials for every n mean every single
    trial agrees."""
    t, k, trials, seed = case
    report = forgery_experiment(t=t, k=k, trials=trials, seed=seed)
    assert report.successes == per_trial_successes(t, k, trials, seed)


def test_forgery_that_fails_to_verify_raises(monkeypatch):
    monkeypatch.setattr(dors_auth, "dors_verify", lambda pk, chain, message, sig: (False, chain))
    with pytest.raises(RuntimeError, match="counted forgery did not verify"):
        forgery_experiment(t=2, k=1, trials=50)


@pytest.mark.parametrize("trials", [0, -3])
def test_forgery_experiment_rejects_non_positive_trials(trials):
    with pytest.raises(InvalidParams):
        forgery_experiment(trials=trials)

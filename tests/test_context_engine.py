"""Decision-engine tests; the Bayes oracle is hand arithmetic kept separate
from the classifier implementation."""

import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sshaf.errors import (
    DegenerateTraining,
    InvalidWeights,
    MalformedRecord,
    NoSchemeAvailable,
    UnknownFactor,
)
from sshaf.context_engine import (
    DENY,
    FACTORS,
    GRANT,
    IP_HOME,
    IP_KNOWN,
    IP_UNKNOWN,
    LABEL_ANOMALOUS,
    LABEL_LEGIT,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    SCHEME_DHS,
    SCHEME_DORS,
    SCHEME_MHT,
    STEP_UP,
    AccessPolicy,
    AccessRecord,
    CalendarInterval,
    ContextSnapshot,
    FactorWeights,
    NaiveBayesModel,
    SchemeCapabilities,
    calendar_claims_presence,
    classify_access,
    decide_access,
    evaluate_factor,
    load_access_records,
    load_calendar,
    record_from_snapshot,
    score_confidence,
    select_scheme,
    train_classifier,
)
from synthetic import make_synthetic_dataset


def snap(**kwargs):
    return ContextSnapshot(uid="alice", **kwargs)


# --- factor scoring ----------------------------------------------------------

def test_boolean_factor_maps():
    assert evaluate_factor(snap(bluetooth_present=True), "bluetooth") == 1.0
    assert evaluate_factor(snap(bluetooth_present=False), "bluetooth") == 0.0
    assert evaluate_factor(snap(credentials_ok=True), "credentials") == 1.0
    assert evaluate_factor(snap(calendar_claims_present=True), "calendar") == 1.0


def test_ip_location_three_level_map():
    assert evaluate_factor(snap(ip_class=IP_HOME), "ip_location") == 1.0
    assert evaluate_factor(snap(ip_class=IP_KNOWN), "ip_location") == 0.5
    assert evaluate_factor(snap(ip_class=IP_UNKNOWN), "ip_location") == 0.0


def test_unknown_factor_rejected():
    with pytest.raises(UnknownFactor):
        evaluate_factor(snap(), "astrology")


def test_history_neutral_without_model():
    assert evaluate_factor(snap(), "history") == 0.5


def test_history_delegates_to_classifier():
    model = train_classifier(make_synthetic_dataset())
    snapshot = snap(ip_class=IP_HOME, timestamp=10 * 60)  # hour bucket 2
    record = record_from_snapshot(snapshot, "lock-1")
    assert evaluate_factor(snapshot, "history", model, record) == classify_access(model, record)
    # Without a record the snapshot is classified for an unknown device.
    expected = classify_access(model, record_from_snapshot(snapshot, "unknown"))
    assert evaluate_factor(snapshot, "history", model) == expected


def test_snapshot_invariant_internet_excludes_bluetooth():
    with pytest.raises(ValueError):
        snap(origin=ORIGIN_INTERNET, bluetooth_present=True)


# --- confidence ---------------------------------------------------------------

def test_confidence_extremes():
    weights = FactorWeights()
    assert score_confidence({f: 1.0 for f in FACTORS}, weights) == pytest.approx(1.0)
    assert score_confidence({f: 0.0 for f in FACTORS}, weights) == pytest.approx(0.0)


def test_confidence_credentials_plus_bluetooth_is_060():
    conf = score_confidence({"credentials": 1.0, "bluetooth": 1.0}, FactorWeights())
    assert conf == pytest.approx(0.60)


def test_confidence_rejects_bad_weights():
    with pytest.raises(InvalidWeights):
        score_confidence({}, FactorWeights(credentials=0.9))  # sums past 1
    with pytest.raises(InvalidWeights):
        score_confidence({}, FactorWeights(credentials=-0.1, bluetooth=0.7))


@pytest.mark.parametrize(
    "weights",
    [
        {"credentials": 0.9},  # sums past 1
        {"credentials": -0.1, "bluetooth": 0.7},
        {"history": 1.5, "credentials": 0.0, "bluetooth": 0.0, "ip_location": 0.0, "calendar": -0.5},
        {"history": float("nan")},
        {"credentials": 0.3},  # sums short of 1
    ],
)
def test_invalid_weights_rejected_at_construction(weights):
    with pytest.raises(InvalidWeights):
        FactorWeights(**weights)


def test_confidence_rejects_unknown_score_keys():
    with pytest.raises(UnknownFactor):
        score_confidence({"astrology": 1.0}, FactorWeights())


def test_confidence_in_unit_interval_property():
    rng = random.Random(17)
    weights = FactorWeights()
    for _ in range(2000):
        scores = {f: rng.random() for f in FACTORS}
        conf = score_confidence(scores, weights)
        assert 0.0 <= conf <= 1.0


def test_confidence_monotonic_in_each_factor():
    rng = random.Random(18)
    weights = FactorWeights()
    policy = AccessPolicy(threshold=0.6)
    for _ in range(2000):
        scores = {f: rng.random() for f in FACTORS}
        factor = rng.choice(FACTORS)
        raised = dict(scores)
        raised[factor] = min(1.0, scores[factor] + rng.random())
        before = score_confidence(scores, weights)
        after = score_confidence(raised, weights)
        assert after >= before - 1e-12
        if decide_access(before, policy) == GRANT:
            assert decide_access(after, policy) == GRANT


# --- decisions ------------------------------------------------------------------

def test_decide_boundary_inclusive_grant():
    assert decide_access(0.60, AccessPolicy(threshold=0.60)) == GRANT


def test_decide_step_up_band():
    assert decide_access(0.45, AccessPolicy(threshold=0.60, step_up_margin=0.2)) == STEP_UP


def test_decide_deny_below_band():
    assert decide_access(0.30, AccessPolicy(threshold=0.60, step_up_margin=0.2)) == DENY


# --- classifier -------------------------------------------------------------------

def test_priors_from_counts():
    records = [
        AccessRecord("u", 1, 1, IP_HOME, "d", LABEL_LEGIT),
        AccessRecord("u", 2, 2, IP_HOME, "d", LABEL_LEGIT),
        AccessRecord("u", 1, 1, IP_UNKNOWN, "d", LABEL_ANOMALOUS),
        AccessRecord("u", 2, 2, IP_UNKNOWN, "d", LABEL_ANOMALOUS),
    ]
    model = train_classifier(records)
    assert model.priors == {LABEL_LEGIT: 0.5, LABEL_ANOMALOUS: 0.5}


def test_single_class_training_is_degenerate():
    records = [AccessRecord("u", 1, 1, IP_HOME, "d", LABEL_LEGIT)] * 4
    with pytest.raises(DegenerateTraining):
        train_classifier(records)


def test_likelihood_tables_normalized():
    model = train_classifier(make_synthetic_dataset())
    for feature, by_label in model.likelihoods.items():
        for label, table in by_label.items():
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 < p <= 1.0 for p in table.values())


def test_perfect_separation_posterior_matches_hand_arithmetic():
    # 10 vs 10 records identical in everything except ip_class. With
    # Laplace alpha=1 and two observed ip categories:
    #   P(home | legit) = (10+1)/(10+2) = 11/12
    #   P(home | anomalous) = (0+1)/(10+2) = 1/12
    # All other feature likelihoods and the priors cancel, so the
    # posterior for a home-subnet probe is (11/12)/(11/12 + 1/12) = 11/12.
    records = [AccessRecord("u", 2, 3, IP_HOME, "d1", LABEL_LEGIT) for _ in range(10)]
    records += [AccessRecord("u", 2, 3, IP_UNKNOWN, "d1", LABEL_ANOMALOUS) for _ in range(10)]
    model = train_classifier(records)
    probe = AccessRecord("u", 2, 3, IP_HOME, "d1")
    posterior = classify_access(model, probe)
    assert posterior == pytest.approx(11 / 12, abs=1e-9)
    assert posterior > 0.9


def test_symmetric_model_gives_half():
    records = [
        AccessRecord("u", 1, 1, IP_HOME, "d", LABEL_LEGIT),
        AccessRecord("u", 1, 1, IP_HOME, "d", LABEL_ANOMALOUS),
    ]
    model = train_classifier(records)
    assert classify_access(model, AccessRecord("u", 1, 1, IP_HOME, "d")) == pytest.approx(0.5)


def reference_log_scores(model, record):
    """Per-label log score, taking the logarithm of every table entry on
    each call, as the engine did before it precomputed its log tables."""
    feats = {
        "hour_bucket": str(record.hour_bucket),
        "weekday": str(record.weekday),
        "ip_class": record.ip_class,
        "device_id": record.device_id,
    }
    logs = {}
    for label, prior in model.priors.items():
        s = math.log(prior)
        for f, cat in feats.items():
            floor = 1.0 / (model.class_counts[label] + model.vocab_sizes[f])
            s += math.log(model.likelihoods[f][label].get(cat, floor))
        logs[label] = s
    return logs


def test_posteriors_of_both_classes_sum_to_one():
    model = train_classifier(make_synthetic_dataset())
    probe = AccessRecord("u", 0, 2, IP_UNKNOWN, "camera-1")
    p_legit = classify_access(model, probe)
    # Independent recomputation of the anomalous posterior.
    logs = reference_log_scores(model, probe)
    peak = max(logs.values())
    total = sum(math.exp(v - peak) for v in logs.values())
    p_anom = math.exp(logs[LABEL_ANOMALOUS] - peak) / total
    assert p_legit + p_anom == pytest.approx(1.0, abs=1e-9)


def test_unseen_category_smoothed_not_crashing():
    model = train_classifier(make_synthetic_dataset())
    probe = AccessRecord("u", 3, 2, IP_HOME, "brand-new-device")
    assert 0.0 < classify_access(model, probe) < 1.0


def test_synthetic_accuracy_at_least_090():
    records = make_synthetic_dataset(200, seed=93)
    split = int(len(records) * 0.8)
    model = train_classifier(records[:split])
    hits = 0
    for rec in records[split:]:
        posterior = classify_access(model, rec)
        predicted = LABEL_LEGIT if posterior >= 0.5 else LABEL_ANOMALOUS
        hits += predicted == rec.label
    assert hits / (len(records) - split) >= 0.9


# --- scheme selection -----------------------------------------------------------

def test_internet_with_card_selects_dhs():
    caps = SchemeCapabilities(mht_registered=True, card_provisioned=True)
    assert select_scheme(snap(origin=ORIGIN_INTERNET), caps) == SCHEME_DHS


def test_local_fresh_user_with_dors_keys_selects_dors():
    caps = SchemeCapabilities(mht_registered=True, dors_provisioned=True, mht_txn_count=0)
    assert select_scheme(snap(origin=ORIGIN_LOCAL), caps) == SCHEME_DORS


def test_local_with_history_selects_mht():
    caps = SchemeCapabilities(mht_registered=True, dors_provisioned=True, mht_txn_count=3)
    assert select_scheme(snap(origin=ORIGIN_LOCAL), caps) == SCHEME_MHT


def test_selection_is_pure():
    caps = SchemeCapabilities(mht_registered=True, card_provisioned=True)
    s = snap(origin=ORIGIN_INTERNET)
    assert select_scheme(s, caps) == select_scheme(s, caps)


def test_no_scheme_available():
    with pytest.raises(NoSchemeAvailable):
        select_scheme(snap(), SchemeCapabilities())


# --- calendars and ingest ----------------------------------------------------------

def test_calendar_presence_window():
    intervals = [CalendarInterval(weekday=2, start_minute=9 * 60, end_minute=17 * 60)]
    inside = 2 * 1440 + 10 * 60
    outside_day = 3 * 1440 + 10 * 60
    outside_hour = 2 * 1440 + 18 * 60
    assert calendar_claims_presence(intervals, inside)
    assert not calendar_claims_presence(intervals, outside_day)
    assert not calendar_claims_presence(intervals, outside_hour)


def test_jsonl_record_ingest(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(
        '{"uid": "a", "hour_bucket": 2, "weekday": 3, "ip_class": "home-subnet", '
        '"device_id": "lock-1", "label": "legitimate"}\n'
        "\n"
        '{"uid": "b", "hour_bucket": 0, "weekday": 6, "ip_class": "unknown", '
        '"device_id": "camera-1", "label": "anomalous"}\n'
    )
    records = load_access_records(path)
    assert records == [
        AccessRecord("a", 2, 3, IP_HOME, "lock-1", LABEL_LEGIT),
        AccessRecord("b", 0, 6, IP_UNKNOWN, "camera-1", LABEL_ANOMALOUS),
    ]


def test_jsonl_record_ingest_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"uid": "a", "hour_bucket": 2}\n')
    with pytest.raises(ValueError):
        load_access_records(path)


RECORD = '{"uid": "a", "hour_bucket": 2, "weekday": 3, "ip_class": "home-subnet", "device_id": "lock-1"}'
INTERVAL = '{"uid": "a", "weekday": 1, "start_minute": 540, "end_minute": 1020}'


def _bad_line(loader, bad, why):
    words = re.sub(r"\W+", "_", why).strip("_")
    return pytest.param(loader, bad, why, id=f"{loader.__name__}-{words}")


@pytest.mark.parametrize(
    "loader, bad, why",
    [
        _bad_line(load_access_records, '{"uid": "a", "hour_bucket": 2', "not JSON"),
        _bad_line(load_access_records, '{"uid": "a", "hour_bucket": 2}', "field 'weekday' missing"),
        _bad_line(load_access_records, RECORD.replace(": 3", ': "3"'), "field 'weekday' not int"),
        _bad_line(load_access_records, RECORD.replace(": 2", ": 2.5"), "field 'hour_bucket' not int"),
        _bad_line(load_access_records, RECORD.replace('"lock-1"', "7"), "field 'device_id' not str"),
        _bad_line(load_access_records, "[1, 2]", "not a JSON object"),
        _bad_line(load_access_records, RECORD.replace(": 2", ": 99"), "field 'hour_bucket' is 99, not one of 0..5"),
        _bad_line(load_access_records, RECORD.replace(": 2", ": -1"), "field 'hour_bucket' is -1, not one of 0..5"),
        _bad_line(load_access_records, RECORD.replace(": 3", ": 12"), "field 'weekday' is 12, not one of 0..6"),
        _bad_line(load_access_records, RECORD.replace("home-subnet", "moon"), "field 'ip_class' is 'moon', not one of"),
        _bad_line(load_access_records, RECORD[:-1] + ', "label": "Legitimate"}', "field 'label' is 'Legitimate', not one of"),
        _bad_line(load_access_records, RECORD[:-1] + ', "label": 7}', "field 'label' not str"),
        _bad_line(load_access_records, RECORD[:-1] + ', "label": null}', "field 'label' not str"),
        _bad_line(load_calendar, "{,}", "not JSON"),
        _bad_line(load_calendar, '{"uid": "a", "weekday": 1}', "field 'start_minute' missing"),
        _bad_line(load_calendar, INTERVAL.replace("1020", "null"), "field 'end_minute' not int"),
        _bad_line(load_calendar, INTERVAL.replace("540", "true"), "field 'start_minute' not int"),
        _bad_line(load_calendar, INTERVAL.replace('"a"', '["a"]'), "field 'uid' not str"),
        _bad_line(load_calendar, INTERVAL.replace(": 1,", ": 9,"), "field 'weekday' is 9, not one of 0..6"),
        _bad_line(load_calendar, INTERVAL.replace("540", "-5"), "field 'start_minute' is -5, not one of 0..1439"),
        _bad_line(load_calendar, INTERVAL.replace("1020", "1441"), "field 'end_minute' is 1441, not one of 1..1440"),
        _bad_line(load_calendar, INTERVAL.replace("1020", "540"), "field 'end_minute' is 540, not after start_minute 540"),
        _bad_line(load_calendar, INTERVAL.replace("1020", "60"), "field 'end_minute' is 60, not after start_minute 540"),
    ],
)
def test_jsonl_loaders_reject_bad_lines_with_their_location(tmp_path, loader, bad, why):
    good = RECORD if loader is load_access_records else INTERVAL
    path = tmp_path / "input.jsonl"
    path.write_text(f"{good}\n\n{bad}\n{good}\n")
    with pytest.raises(MalformedRecord) as caught:
        loader(path)
    assert str(caught.value).startswith(f"{path}:3: ")
    assert why in str(caught.value)


def test_jsonl_loaders_take_the_bounds_of_each_range(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_text(
        RECORD.replace(": 2", ": 0").replace(": 3", ": 0") + "\n"
        + RECORD.replace(": 2", ": 5").replace(": 3", ": 6").replace("home-subnet", "known-external")
        + "\n"
    )
    assert [(r.hour_bucket, r.weekday, r.ip_class, r.label) for r in load_access_records(path)] == [
        (0, 0, IP_HOME, None),
        (5, 6, IP_KNOWN, None),
    ]
    path.write_text(INTERVAL.replace("540", "0").replace("1020", "1440").replace(": 1,", ": 6,") + "\n")
    assert load_calendar(path) == {"a": [CalendarInterval(6, 0, 1440)]}


def test_jsonl_loader_rejects_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(INTERVAL.encode() + b"\n" + b'{"uid": "\xff"}\n')
    with pytest.raises(MalformedRecord, match=f"^{path}:2: not JSON"):
        load_calendar(path)


def test_jsonl_calendar_ingest(tmp_path):
    path = tmp_path / "calendar.jsonl"
    path.write_text(
        '{"uid": "a", "weekday": 1, "start_minute": 540, "end_minute": 1020}\n'
        '{"uid": "a", "weekday": 2, "start_minute": 540, "end_minute": 1020}\n'
    )
    calendars = load_calendar(path)
    assert len(calendars["a"]) == 2
    assert calendars["a"][0] == CalendarInterval(1, 540, 1020)


# --- exactness of the precomputed decision tables -------------------------------
# The references are the per-call formulas the engine used before it
# precomputed its log tables and weight pairs; the engine must agree with
# them bit for bit, so the properties compare with ``==``.

PROPERTY = settings(max_examples=150, deadline=None)
DEVICES = ("lock-1", "thermostat-1", "camera-1", "hub")


def reference_classify(model, record):
    log_scores = reference_log_scores(model, record)
    peak = max(log_scores.values())
    total = sum(math.exp(s - peak) for s in log_scores.values())
    return math.exp(log_scores.get(LABEL_LEGIT, float("-inf")) - peak) / total


def reference_confidence(scores, weights):
    weight_map = {
        "credentials": weights.credentials,
        "bluetooth": weights.bluetooth,
        "ip_location": weights.ip_location,
        "calendar": weights.calendar,
        "history": weights.history,
    }
    return sum(weight_map[f] * scores.get(f, 0.0) for f in FACTORS)


def access_records(labels):
    return st.builds(
        AccessRecord,
        uid=st.sampled_from(["u0", "u1"]),
        hour_bucket=st.integers(0, 5),
        weekday=st.integers(0, 6),
        ip_class=st.sampled_from([IP_HOME, IP_KNOWN, IP_UNKNOWN]),
        device_id=st.sampled_from(DEVICES),
        label=labels,
    )


@st.composite
def trained_models(draw):
    labels = st.sampled_from([LABEL_LEGIT, LABEL_ANOMALOUS, "suspicious", None])
    corpus = draw(st.lists(access_records(labels), min_size=2, max_size=60))
    assume(len({r.label for r in corpus if r.label is not None}) >= 2)
    return train_classifier(corpus)


# Probes reach categories no corpus holds: hour buckets and weekdays out of
# range and a device never trained on.
probes = st.builds(
    AccessRecord,
    uid=st.just("probe"),
    hour_bucket=st.integers(-1, 7),
    weekday=st.integers(-1, 8),
    ip_class=st.sampled_from([IP_HOME, IP_KNOWN, IP_UNKNOWN]),
    device_id=st.sampled_from(DEVICES + ("brand-new",)),
)


@PROPERTY
@given(model=trained_models(), probe=st.lists(probes, min_size=1, max_size=8))
def test_classify_access_equals_per_call_log_formula(model, probe):
    for record in probe:
        assert classify_access(model, record) == reference_classify(model, record)


@st.composite
def valid_weights(draw):
    parts = draw(st.lists(st.integers(0, 1000), min_size=5, max_size=5))
    assume(sum(parts) > 0)
    try:
        return FactorWeights(*(p / sum(parts) for p in parts))
    except InvalidWeights:
        assume(False)


@PROPERTY
@given(
    weights=st.one_of(st.just(FactorWeights()), valid_weights()),
    scores=st.dictionaries(st.sampled_from(FACTORS), st.floats(0.0, 1.0)),
)
def test_score_confidence_equals_weighted_sum(weights, scores):
    assert score_confidence(scores, weights) == reference_confidence(scores, weights)


# --- the posterior memo ---------------------------------------------------------

# Any device id at all, trained on or not.
stream_records = st.builds(
    AccessRecord,
    uid=st.just("probe"),
    hour_bucket=st.integers(-1, 7),
    weekday=st.integers(-1, 8),
    ip_class=st.sampled_from([IP_HOME, IP_KNOWN, IP_UNKNOWN]),
    device_id=st.one_of(st.sampled_from(DEVICES), st.text(max_size=12)),
)


@PROPERTY
@given(model=trained_models(), stream=st.lists(stream_records, max_size=60))
def test_posterior_memo_never_grows_past_its_bound(model, stream):
    # One key per combination of a trained category or "unseen" per feature.
    bound = math.prod(
        len(set().union(*by_label.values())) + 1 for by_label in model.likelihoods.values()
    )
    for record in stream:
        classify_access(model, record)
        assert len(model.memo) <= bound


@PROPERTY
@given(model=trained_models(), stream=st.lists(stream_records, min_size=1, max_size=40))
def test_memoised_posteriors_equal_fresh_computations(model, stream):
    for record in stream * 2:  # the second pass reads every posterior from the memo
        fresh = NaiveBayesModel(model.priors, model.likelihoods, model.class_counts, model.vocab_sizes)
        assert fresh.memo == {}
        expected = classify_access(fresh, record)
        assert classify_access(model, record).hex() == expected.hex()
        assert expected == reference_classify(model, record)


def test_memo_maps_every_unseen_category_to_one_key():
    model = train_classifier(make_synthetic_dataset())
    for device in ("brand-new", "another", "yet-another"):
        classify_access(model, AccessRecord("u", 2, 3, IP_HOME, device))
    classify_access(model, AccessRecord("u", 2, 3, IP_HOME, "lock-1"))
    assert len(model.memo) == 2

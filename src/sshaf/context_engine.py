"""Contextual decision engine.

Turns a context snapshot into per-factor scores, folds them into a weighted
confidence value, compares that against per-device thresholds (grant /
step-up / deny), classifies access patterns with a categorical naive Bayes
model, and picks which of the three protocol schemes a login should run:
:func:`select_scheme` states the three rules, from the snapshot's origin,
the user's card and DORS keys, and their MHT transaction count.

One core scores context: :func:`factor_scores` gives the five scores and
:func:`weigh` folds them into the confidence. The gateway calls it on every
request; :func:`evaluate_factor` and :func:`score_confidence` are views of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    DegenerateTraining,
    InvalidWeights,
    MalformedRecord,
    UnknownFactor,
)

ORIGIN_LOCAL = "local"
ORIGIN_INTERNET = "internet"

IP_HOME = "home-subnet"
IP_KNOWN = "known-external"
IP_UNKNOWN = "unknown"

LABEL_LEGIT = "legitimate"
LABEL_ANOMALOUS = "anomalous"

GRANT = "grant"
STEP_UP = "step_up"
DENY = "deny"

SCHEME_MHT = "mht"
SCHEME_DORS = "dors"
SCHEME_DHS = "dhs"

FACTORS = ("credentials", "bluetooth", "ip_location", "calendar", "history")
_FACTOR_INDEX = {f: i for i, f in enumerate(FACTORS)}

_IP_SCORES = {IP_HOME: 1.0, IP_KNOWN: 0.5, IP_UNKNOWN: 0.0}

# Categorical features the access classifier learns over.
_FEATURES = ("hour_bucket", "weekday", "ip_class", "device_id")

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 1440


@dataclass
class ContextSnapshot:
    """One observation of the requester's context, on simulated time."""

    uid: str
    origin: str
    ip_class: str
    bluetooth_present: bool
    timestamp: int  # simulated minutes
    calendar_claims_present: bool = False
    credentials_ok: bool = False

    def __post_init__(self):
        if self.origin not in (ORIGIN_LOCAL, ORIGIN_INTERNET):
            raise ValueError(f"bad origin {self.origin!r}")
        if self.ip_class not in _IP_SCORES:
            raise ValueError(f"bad ip_class {self.ip_class!r}")
        if self.origin == ORIGIN_INTERNET and self.bluetooth_present:
            raise ValueError("internet origin cannot show bluetooth proximity")


@dataclass(frozen=True)
class FactorWeights:
    """Weights of the five factors, checked once at construction: each lies
    in [0, 1] and they sum to 1. ``pairs`` holds (factor, weight) in
    ``FACTORS`` order."""

    credentials: float
    bluetooth: float
    ip_location: float
    calendar: float
    history: float
    pairs: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = [self.credentials, self.bluetooth, self.ip_location, self.calendar, self.history]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise InvalidWeights("weights must lie in [0, 1]")
        if abs(sum(values) - 1.0) > 1e-9:
            raise InvalidWeights(f"weights must sum to 1, got {sum(values)}")
        object.__setattr__(self, "pairs", tuple(zip(FACTORS, values)))


# Width of the step-up band below every device's grant threshold.
STEP_UP_MARGIN = 0.2


@dataclass(frozen=True)
class AccessPolicy:
    """Per-device grant threshold, with the step-up band of
    ``STEP_UP_MARGIN`` below it."""

    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


class AccessRecord(NamedTuple):
    """One labelled access observation; hour_bucket is a 4-hour bin 0..5.
    Immutable; a tuple, so a device request builds one in a single call."""

    uid: str
    hour_bucket: int
    weekday: int
    ip_class: str
    device_id: str
    label: str | None = None

    def categories(self) -> tuple[str, str, str, str]:
        """The record's category under each classifier feature, in
        ``_FEATURES`` order."""
        return str(self.hour_bucket), str(self.weekday), self.ip_class, self.device_id


def record_from_snapshot(snapshot: ContextSnapshot, device_id: str = "unknown") -> AccessRecord:
    minutes = snapshot.timestamp
    bucket, weekday = minutes // MINUTES_PER_HOUR % 24 // 4, minutes // MINUTES_PER_DAY % 7
    return AccessRecord(snapshot.uid, bucket, weekday, snapshot.ip_class, device_id)


# --- naive Bayes over categorical features ---------------------------------

_UNSEEN = None  # memo key of a category no label's table holds; categories are str


@dataclass(frozen=True)
class NaiveBayesModel:
    """Priors plus Laplace-smoothed (alpha=1) per-feature likelihoods.

    likelihoods[feature][label][category] covers every category observed in
    training; a category unseen at prediction time falls back to the
    smoothing floor 1 / (class_count + vocabulary size).

    Construction takes the logarithm of every prior, likelihood and floor
    once. ``log_tables`` holds, per label in ``priors`` order, the label,
    its log prior, and per feature in ``_FEATURES`` order the pair
    (log-likelihood by category, log floor). The model is frozen, so the
    tables cannot drift from the probabilities: new counts need a new model.

    :meth:`posterior` memoises each posterior in ``memo``. Its key is the
    record's categories with every category that no label's table holds
    (``known_categories``) replaced by one unseen key: each label scores
    such a category at its floor, so all of them give the same posterior,
    and the memo holds at most prod(|known_f| + 1) entries over the
    features f, whatever records arrive. A memoised posterior is the float
    the computation returned, so it is exact. The memo stays valid because
    the model is frozen; a model built from new counts starts empty.
    """

    priors: dict[str, float]
    likelihoods: dict[str, dict[str, dict[str, float]]]
    class_counts: dict[str, int]
    vocab_sizes: dict[str, int]
    log_tables: tuple = field(init=False, repr=False, compare=False)
    known_categories: tuple = field(init=False, repr=False, compare=False)
    memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "log_tables", tuple(
            (label, math.log(prior), tuple(
                (
                    {cat: math.log(p) for cat, p in self.likelihoods[f][label].items()},
                    math.log(1.0 / (self.class_counts[label] + self.vocab_sizes[f])),
                )
                for f in _FEATURES
            ))
            for label, prior in self.priors.items()
        ))
        object.__setattr__(self, "known_categories", tuple(
            frozenset().union(*(tables[i][0] for _, _, tables in self.log_tables))
            for i in range(len(_FEATURES))
        ))
        object.__setattr__(self, "memo", {})

    def posterior(self, categories: tuple[str, ...]) -> float:
        """Posterior probability that a record with these categories, in
        ``_FEATURES`` order, is legitimate."""
        memo = self.memo
        p = memo.get(categories)  # a record whose every category is known is its own key
        if p is None:
            key = tuple(
                cat if cat in known else _UNSEEN
                for cat, known in zip(categories, self.known_categories)
            )
            p = memo.get(key)
            if p is None:
                p = memo[key] = self._compute_posterior(key)
        return p

    def _compute_posterior(self, categories) -> float:
        log_scores: dict[str, float] = {}
        for label, score, tables in self.log_tables:
            for (table, floor), cat in zip(tables, categories):
                score += table.get(cat, floor)
            log_scores[label] = score
        peak = max(log_scores.values())
        total = sum(math.exp(s - peak) for s in log_scores.values())
        return math.exp(log_scores.get(LABEL_LEGIT, float("-inf")) - peak) / total


def train_classifier(records: list[AccessRecord]) -> NaiveBayesModel:
    labelled = [r for r in records if r.label is not None]
    if not labelled:
        raise DegenerateTraining("no labelled records")
    class_counts: dict[str, int] = {}
    for rec in labelled:
        class_counts[rec.label] = class_counts.get(rec.label, 0) + 1
    if len(class_counts) < 2:
        raise DegenerateTraining(f"training needs both labels, got {sorted(class_counts)}")

    total = len(labelled)
    priors = {label: count / total for label, count in class_counts.items()}

    vocab: dict[str, set[str]] = {f: set() for f in _FEATURES}
    counts: dict[str, dict[str, dict[str, int]]] = {
        f: {label: {} for label in class_counts} for f in _FEATURES
    }
    for rec in labelled:
        for f, cat in zip(_FEATURES, rec.categories()):
            vocab[f].add(cat)
            by_cat = counts[f][rec.label]
            by_cat[cat] = by_cat.get(cat, 0) + 1

    likelihoods: dict[str, dict[str, dict[str, float]]] = {}
    for f in _FEATURES:
        v = len(vocab[f])
        likelihoods[f] = {}
        for label, n in class_counts.items():
            likelihoods[f][label] = {
                cat: (counts[f][label].get(cat, 0) + 1) / (n + v) for cat in sorted(vocab[f])
            }
    return NaiveBayesModel(
        priors=priors,
        likelihoods=likelihoods,
        class_counts=dict(class_counts),
        vocab_sizes={f: len(vocab[f]) for f in _FEATURES},
    )


def classify_access(model: NaiveBayesModel, record: AccessRecord) -> float:
    """Posterior probability that the record is legitimate."""
    return model.posterior(record.categories())


# --- factor scoring and decisions -------------------------------------------

def factor_scores(
    snapshot: ContextSnapshot, credentials_ok: bool, calendar_hit: bool, history: float
) -> tuple[float, float, float, float, float]:
    """The five factor scores in ``FACTORS`` order; ``history`` is the
    classifier's posterior on the request's record, 0.5 with no model."""
    return (
        1.0 if credentials_ok else 0.0,
        1.0 if snapshot.bluetooth_present else 0.0,
        _IP_SCORES[snapshot.ip_class],
        1.0 if calendar_hit else 0.0,
        history,
    )


def weigh(scores: tuple[float, ...] | list[float], weights: FactorWeights) -> float:
    """Confidence: ``weight * score`` summed from 0 in ``weights.pairs`` order."""
    (_, w0), (_, w1), (_, w2), (_, w3), (_, w4) = weights.pairs
    s0, s1, s2, s3, s4 = scores
    return sum((w0 * s0, w1 * s1, w2 * s2, w3 * s3, w4 * s4))


def evaluate_factor(snapshot: ContextSnapshot, factor: str) -> float:
    """One factor of :func:`factor_scores`, on the snapshot's own password
    and calendar flags; history scores 0.5, as with no model."""
    index = _FACTOR_INDEX.get(factor)
    if index is None:
        raise UnknownFactor(factor)
    return factor_scores(
        snapshot, snapshot.credentials_ok, snapshot.calendar_claims_present, 0.5
    )[index]


def score_confidence(scores: dict[str, float], weights: FactorWeights) -> float:
    """:func:`weigh` over a dict of scores; absent factors score zero."""
    if not scores.keys() <= _FACTOR_INDEX.keys():
        raise UnknownFactor(", ".join(sorted(scores.keys() - _FACTOR_INDEX.keys())))
    return weigh([scores.get(f, 0.0) for f in FACTORS], weights)


def decide_access(confidence: float, policy: AccessPolicy) -> str:
    """Grant at or above the threshold, step up within ``STEP_UP_MARGIN``
    below it, deny otherwise."""
    if confidence >= policy.threshold:
        return GRANT
    if confidence >= policy.threshold - STEP_UP_MARGIN:
        return STEP_UP
    return DENY


# --- scheme selection ----------------------------------------------------------

def select_scheme(snapshot: ContextSnapshot, card: bool, dors_keys: bool, txn_counter: int) -> str:
    """Exactly one scheme per login, by the first of three rules that holds:
    an internet origin with a smart card runs DHS; a local origin with DORS
    keys and an MHT ``txn_counter`` of 0 runs DORS; anything else runs MHT,
    which every user holds."""
    if snapshot.origin == ORIGIN_INTERNET and card:
        return SCHEME_DHS
    if snapshot.origin == ORIGIN_LOCAL and dors_keys and txn_counter == 0:
        return SCHEME_DORS
    return SCHEME_MHT


# --- calendars ---------------------------------------------------------------

@dataclass(frozen=True)
class CalendarInterval:
    """User expected home on ``weekday`` between the two minute marks."""

    weekday: int
    start_minute: int
    end_minute: int


def calendar_claims_presence(intervals: list[CalendarInterval], timestamp: int) -> bool:
    weekday = (timestamp // MINUTES_PER_DAY) % 7
    minute_of_day = timestamp % MINUTES_PER_DAY
    for iv in intervals:
        if iv.weekday == weekday and iv.start_minute <= minute_of_day < iv.end_minute:
            return True
    return False


# --- line-delimited JSON ingest ------------------------------------------------

def _allowed(values) -> str:
    """A field's allowed values as an error message shows them."""
    if isinstance(values, range):
        return f"{values.start}..{values.stop - 1}"
    return ", ".join(map(repr, values))


def _read_jsonl(path, fields: dict, optional: tuple[str, ...]):
    """Yield ``(path:line, object)`` for each non-blank line of a JSONL
    file. ``fields`` maps each field to its JSON type and the values it may
    take (None for any); a line holds every field but those in ``optional``.
    Any other line, or a file that cannot be opened, raises
    ``MalformedRecord`` naming the path and, for a line, its number."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MalformedRecord(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also a line that is not UTF-8
                raise MalformedRecord(f"{where}: not JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise MalformedRecord(f"{where}: not a JSON object")
            for name, (kind, values) in fields.items():
                if name not in obj and name in optional:
                    continue
                value = obj.get(name)
                if type(value) is not kind:
                    problem = "missing" if name not in obj else f"not {kind.__name__}"
                    raise MalformedRecord(f"{where}: field {name!r} {problem}")
                if values is not None and value not in values:
                    raise MalformedRecord(
                        f"{where}: field {name!r} is {value!r}, not one of {_allowed(values)}"
                    )
            yield where, obj


# AccessRecord's fields in order, each with its JSON type and allowed values.
_RECORD_FIELDS = {
    "uid": (str, None),
    "hour_bucket": (int, range(6)),
    "weekday": (int, range(7)),
    "ip_class": (str, tuple(_IP_SCORES)),
    "device_id": (str, None),
    "label": (str, (LABEL_LEGIT, LABEL_ANOMALOUS)),
}


def load_access_records(path) -> list[AccessRecord]:
    """Training records, one JSON object per line with fields uid,
    hour_bucket (0..5), weekday (0..6), ip_class, device_id, and an
    optional label."""
    return [
        AccessRecord(*map(obj.get, _RECORD_FIELDS))
        for _, obj in _read_jsonl(path, _RECORD_FIELDS, ("label",))
    ]


_INTERVAL_FIELDS = {
    "uid": (str, None),
    "weekday": (int, range(7)),
    "start_minute": (int, range(MINUTES_PER_DAY)),
    "end_minute": (int, range(1, MINUTES_PER_DAY + 1)),
}


def load_calendar(path) -> dict[str, list[CalendarInterval]]:
    """Calendar intervals, one JSON object per line with fields uid,
    weekday (0..6), start_minute and a later end_minute, both within one
    day; an interval that could never match is rejected."""
    calendars: dict[str, list[CalendarInterval]] = {}
    for where, obj in _read_jsonl(path, _INTERVAL_FIELDS, ()):
        start, end = obj["start_minute"], obj["end_minute"]
        if start >= end:
            raise MalformedRecord(f"{where}: field 'end_minute' is {end}, not after start_minute {start}")
        calendars.setdefault(obj["uid"], []).append(CalendarInterval(obj["weekday"], start, end))
    return calendars

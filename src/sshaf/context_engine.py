"""Contextual decision engine.

Turns a context snapshot into per-factor scores, folds them into a weighted
confidence value, compares that against per-device thresholds (grant /
step-up / deny), classifies access patterns with a categorical naive Bayes
model, and picks which of the three protocol schemes a login should run.
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
    NoSchemeAvailable,
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
_FACTOR_SET = frozenset(FACTORS)

_IP_SCORES = {IP_HOME: 1.0, IP_KNOWN: 0.5, IP_UNKNOWN: 0.0}

# Categorical features the access classifier learns over.
_FEATURES = ("hour_bucket", "weekday", "ip_class", "device_id")

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 1440


@dataclass
class ContextSnapshot:
    """One observation of the requester's context, on simulated time."""

    uid: str
    origin: str = ORIGIN_LOCAL
    ip_class: str = IP_HOME
    bluetooth_present: bool = False
    timestamp: int = 0  # simulated minutes
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

    credentials: float = 0.40
    bluetooth: float = 0.20
    ip_location: float = 0.15
    calendar: float = 0.15
    history: float = 0.10
    pairs: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = [self.credentials, self.bluetooth, self.ip_location, self.calendar, self.history]
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise InvalidWeights("weights must lie in [0, 1]")
        if abs(sum(values) - 1.0) > 1e-9:
            raise InvalidWeights(f"weights must sum to 1, got {sum(values)}")
        object.__setattr__(self, "pairs", tuple(zip(FACTORS, values)))

    def as_dict(self) -> dict[str, float]:
        return dict(self.pairs)


@dataclass(frozen=True)
class AccessPolicy:
    """Per-device grant threshold with a step-up band below it."""

    threshold: float
    step_up_margin: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= self.step_up_margin <= 1.0:
            raise ValueError("step-up margin must lie in [0, 1]")


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
    hour = (snapshot.timestamp // MINUTES_PER_HOUR) % 24
    weekday = (snapshot.timestamp // MINUTES_PER_DAY) % 7
    return AccessRecord(
        uid=snapshot.uid,
        hour_bucket=hour // 4,
        weekday=weekday,
        ip_class=snapshot.ip_class,
        device_id=device_id,
    )


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

def evaluate_factor(
    snapshot: ContextSnapshot,
    factor: str,
    model: NaiveBayesModel | None = None,
    record: AccessRecord | None = None,
) -> float:
    """Score one contextual factor in [0, 1]. The history factor delegates
    to the classifier, on ``record`` or else on the snapshot's record for
    an unknown device; with no trained model it stays neutral at 0.5."""
    if factor == "credentials":
        return 1.0 if snapshot.credentials_ok else 0.0
    if factor == "bluetooth":
        return 1.0 if snapshot.bluetooth_present else 0.0
    if factor == "calendar":
        return 1.0 if snapshot.calendar_claims_present else 0.0
    if factor == "ip_location":
        return _IP_SCORES[snapshot.ip_class]
    if factor == "history":
        if model is None:
            return 0.5
        if record is None:
            record = record_from_snapshot(snapshot)
        return classify_access(model, record)
    raise UnknownFactor(factor)


def score_confidence(scores: dict[str, float], weights: FactorWeights) -> float:
    """Weighted sum of factor scores; factors absent from ``scores``
    contribute zero."""
    if not scores.keys() <= _FACTOR_SET:
        raise UnknownFactor(", ".join(sorted(scores.keys() - _FACTOR_SET)))
    return sum(weight * scores.get(f, 0.0) for f, weight in weights.pairs)


def decide_access(confidence: float, policy: AccessPolicy) -> str:
    """Grant at or above the threshold, step up within the margin band
    below it, deny otherwise."""
    if confidence >= policy.threshold:
        return GRANT
    if confidence >= policy.threshold - policy.step_up_margin:
        return STEP_UP
    return DENY


# --- scheme selection ----------------------------------------------------------

@dataclass
class SchemeCapabilities:
    """What a registered user has provisioned, as the gateway sees it."""

    mht_registered: bool = False
    dors_provisioned: bool = False
    card_provisioned: bool = False
    mht_txn_count: int = 0


def select_scheme(snapshot: ContextSnapshot, caps: SchemeCapabilities) -> str:
    """Exactly one scheme per login: smart card for internet origins,
    the few-time signatures for fresh local users, history-bound mutual
    authentication otherwise."""
    if not (caps.mht_registered or caps.dors_provisioned or caps.card_provisioned):
        raise NoSchemeAvailable(snapshot.uid)
    if snapshot.origin == ORIGIN_INTERNET and caps.card_provisioned:
        return SCHEME_DHS
    if snapshot.origin == ORIGIN_LOCAL and caps.dors_provisioned and caps.mht_txn_count == 0:
        return SCHEME_DORS
    if caps.mht_registered:
        return SCHEME_MHT
    if caps.card_provisioned:
        return SCHEME_DHS
    if caps.dors_provisioned:
        return SCHEME_DORS
    raise NoSchemeAvailable(snapshot.uid)


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

"""Deterministic synthetic dataset for the classifier tests."""

import random

from sshaf.context_engine import (
    IP_HOME,
    IP_UNKNOWN,
    LABEL_ANOMALOUS,
    LABEL_LEGIT,
    AccessRecord,
)


def make_synthetic_dataset(n: int = 200, seed: int = 93) -> list[AccessRecord]:
    """Separable corpus: legitimate traffic comes from the home subnet in
    daytime buckets, anomalous traffic from unknown addresses at night."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        legit = i % 2 == 0
        if legit:
            records.append(
                AccessRecord(
                    uid=f"user{rng.randrange(4)}",
                    hour_bucket=rng.choice([2, 3, 4]),
                    weekday=rng.randrange(7),
                    ip_class=IP_HOME,
                    device_id=rng.choice(["lock-1", "thermostat-1", "camera-1"]),
                    label=LABEL_LEGIT,
                )
            )
        else:
            records.append(
                AccessRecord(
                    uid=f"user{rng.randrange(4)}",
                    hour_bucket=rng.choice([0, 1, 5]),
                    weekday=rng.randrange(7),
                    ip_class=IP_UNKNOWN,
                    device_id=rng.choice(["lock-1", "camera-1"]),
                    label=LABEL_ANOMALOUS,
                )
            )
    rng.shuffle(records)
    return records

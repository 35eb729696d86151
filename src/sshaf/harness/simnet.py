"""Deterministic simulated network: a latency and factor-cost model on an
integer-millisecond clock. A link counts and times what it carries and
keeps no transcript of it.

Milliseconds here are a declarative cost model, not measurements; every
assertion downstream is about orderings and exact counters, never about
absolute wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

LINK_LOCAL = "local"
LINK_INTERNET = "internet"

DEFAULT_LATENCY_MS = {LINK_LOCAL: 2, LINK_INTERNET: 18}
DEFAULT_FACTOR_COST_MS = {
    "credentials": 7,
    "bluetooth": 3,
    "ip_location": 5,
    "calendar": 8,
    "history": 4,
}


@dataclass
class SimConfig:
    seed: bytes

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("seed must be 32 bytes")


class SimLink:
    """Point-to-point message ferry over the link named ``link``: it
    delivers every message, adds the link's latency to ``elapsed_ms`` and
    counts the message and its bytes. It keeps no copy of what it carries."""

    def __init__(self, link: str):
        if link not in DEFAULT_LATENCY_MS:
            raise ValueError(f"no latency configured for link {link!r}")
        self.latency_ms = DEFAULT_LATENCY_MS[link]
        self.elapsed_ms = 0
        self.messages = 0
        self.wire_bytes = 0

    def send(self, sender: str, receiver: str, data: bytes) -> bytes:
        self.elapsed_ms += self.latency_ms
        self.messages += 1
        self.wire_bytes += len(data)
        return data

    def carry(self, sender: str, receiver: str, message, decode):
        """A handshake message crosses as its encoded bytes and is decoded
        on the far side, so the byte counters measure the real wire
        formats."""
        return decode(self.send(sender, receiver, message.encode()))


@dataclass
class MetricsReport:
    """Exact deterministic counters for one scenario run. ``COLUMNS``
    names its fields in order, as a row of the report lays them out."""

    scenario: str
    link: str
    scheme: str
    factors: tuple[str, ...]
    elapsed_ms: int
    hash_count: int
    mac_count: int
    wire_bytes: int
    messages: int
    storage_bits: int
    outcome: str

    def as_row(self) -> list:
        """The values of ``COLUMNS`` in order, the factors joined with ``+``
        (``-`` when there are none)."""
        return [
            ("+".join(self.factors) if self.factors else "-") if name == "factors" else getattr(self, name)
            for name in self.COLUMNS
        ]


MetricsReport.COLUMNS = tuple(f.name for f in fields(MetricsReport))

"""Deterministic simulated network: integer-millisecond clock, per-link
latency, and an append-only transcript.

Milliseconds here are a declarative cost model, not measurements; every
assertion downstream is about orderings and exact counters, never about
absolute wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


@dataclass
class TranscriptEvent:
    time_ms: int
    sender: str
    receiver: str
    data: bytes
    outcome: str

    def to_line(self) -> str:
        return f"{self.time_ms}|{self.sender}|{self.receiver}|{self.data.hex()}|{self.outcome}"


@dataclass
class Transcript:
    events: list[TranscriptEvent] = field(default_factory=list, init=False)

    def add(self, event: TranscriptEvent) -> None:
        if self.events and event.time_ms < self.events[-1].time_ms:
            raise ValueError("transcript time must be nondecreasing")
        self.events.append(event)

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self.events]

    def to_bytes(self) -> bytes:
        return "\n".join(self.to_lines()).encode()


class SimClock:
    """Integer simulated milliseconds, forward only."""

    def __init__(self):
        self.now_ms = 0

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("time only moves forward")
        self.now_ms += ms


class SimLink:
    """Point-to-point message ferry with per-message latency: it delivers
    every message, and counts and records each one."""

    def __init__(self, link: str, clock: SimClock, transcript: Transcript):
        if link not in DEFAULT_LATENCY_MS:
            raise ValueError(f"no latency configured for link {link!r}")
        self.latency_ms = DEFAULT_LATENCY_MS[link]
        self.clock = clock
        self.transcript = transcript
        self.messages = 0
        self.wire_bytes = 0

    def send(self, sender: str, receiver: str, data: bytes) -> bytes:
        self.clock.advance(self.latency_ms)
        self.messages += 1
        self.wire_bytes += len(data)
        self.transcript.add(
            TranscriptEvent(self.clock.now_ms, sender, receiver, data, "delivered")
        )
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

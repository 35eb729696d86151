"""Deterministic simulated network: integer-millisecond clock, per-link
latency, optional message drops, and an append-only transcript.

Milliseconds here are a declarative cost model, not measurements; every
assertion downstream is about orderings and exact counters, never about
absolute wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SshafError

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


class MessageDropped(SshafError):
    """The simulated link dropped this message."""


@dataclass
class SimConfig:
    seed: bytes = b"\x00" * 32
    drop_rate: float = 0.0

    def __post_init__(self):
        if len(self.seed) != 32:
            raise ValueError("seed must be 32 bytes")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")


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
    events: list[TranscriptEvent] = field(default_factory=list)

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

    def __init__(self, start_ms: int = 0):
        self.now_ms = start_ms

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("time only moves forward")
        self.now_ms += ms


class SimLink:
    """Point-to-point message ferry with per-message latency and a
    deterministic drop stream drawn from the scenario seed."""

    def __init__(self, config: SimConfig, link: str, clock: SimClock, transcript: Transcript, drop_stream=None):
        if link not in DEFAULT_LATENCY_MS:
            raise ValueError(f"no latency configured for link {link!r}")
        self.latency_ms = DEFAULT_LATENCY_MS[link]
        self.drop_rate = config.drop_rate
        self.clock = clock
        self.transcript = transcript
        self.drop_stream = drop_stream
        self.messages = 0
        self.wire_bytes = 0

    def _dropped(self) -> bool:
        if self.drop_rate <= 0.0 or self.drop_stream is None:
            return False
        draw = int.from_bytes(self.drop_stream.read(4), "big") / 2**32
        return draw < self.drop_rate

    def send(self, sender: str, receiver: str, data: bytes) -> bytes:
        self.clock.advance(self.latency_ms)
        if self._dropped():
            self.transcript.add(
                TranscriptEvent(self.clock.now_ms, sender, receiver, data, "dropped")
            )
            raise MessageDropped(f"{sender} -> {receiver}")
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
    """Exact deterministic counters for one scenario run."""

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

    COLUMNS = (
        "scenario",
        "link",
        "scheme",
        "factors",
        "elapsed_ms",
        "hash_count",
        "mac_count",
        "wire_bytes",
        "messages",
        "storage_bits",
        "outcome",
    )

    def as_row(self) -> list:
        return [
            self.scenario,
            self.link,
            self.scheme,
            "+".join(self.factors) if self.factors else "-",
            self.elapsed_ms,
            self.hash_count,
            self.mac_count,
            self.wire_bytes,
            self.messages,
            self.storage_bits,
            self.outcome,
        ]

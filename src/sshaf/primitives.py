"""Deterministic cryptographic building blocks shared by every scheme.

Fixed-width value types (Digest256, Key256, Nonce128), SHA-256 hashing,
HMAC-SHA-256 keyed integrity, a labelled key-derivation function, and a
randomness source with a replayable seeded mode. All protocol-level hash
and mac invocations are counted by a module-level meter so the harness can
report exact computational costs.

The batch helpers :func:`kdf_many` and :func:`sha256_many` return the
bytes the one-call forms would, and charge ``METER`` once for each call
they stand for. ``kdf_many`` keys its HMAC once per batch: it builds the
SHA-256 states after ``key XOR ipad`` (plus the label) and ``key XOR opad``
and copies them for every salt, the precomputation of RFC 2104 section 4.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import secrets
from dataclasses import dataclass

from .errors import InvalidLabel

DIGEST_LEN = 32
KEY_LEN = 32
NONCE_LEN = 16
MAX_LABEL_LEN = 32


class _FixedBytes:
    """Immutable fixed-width byte value with constant-time equality."""

    __slots__ = ("bytes",)
    LENGTH = 0

    def __init__(self, raw: bytes):
        raw = bytes(raw)
        if len(raw) != self.LENGTH:
            raise ValueError(
                f"{type(self).__name__} needs exactly {self.LENGTH} bytes, got {len(raw)}"
            )
        object.__setattr__(self, "bytes", raw)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _hmac.compare_digest(self.bytes, other.bytes)

    def __hash__(self):
        return hash((type(self).__name__, self.bytes))

    def hex(self) -> str:
        return self.bytes.hex()

    @classmethod
    def from_hex(cls, text: str):
        return cls(bytes.fromhex(text))

    def __repr__(self):
        return f"{type(self).__name__}({self.bytes.hex()})"


class Digest256(_FixedBytes):
    """32-byte hash output."""

    LENGTH = DIGEST_LEN


class Key256(_FixedBytes):
    """32-byte secret key. Display formatting never exposes the bytes."""

    LENGTH = KEY_LEN

    def __repr__(self):
        return "Key256(<redacted>)"

    __str__ = __repr__


class Nonce128(_FixedBytes):
    """16-byte freshness token, drawn fresh per protocol run. A bare nonce
    is its own wire format."""

    LENGTH = NONCE_LEN

    def encode(self) -> bytes:
        return self.bytes


class RandomSource:
    """Byte stream in one of two modes.

    ``system()`` draws OS entropy. ``seeded(seed)`` replays a deterministic
    stream (SHA-256 in counter mode over the 32-byte seed), so two sources
    built from the same seed emit bit-identical bytes -- the property every
    simulation and attack transcript relies on for replayability.
    """

    def __init__(self, seed: bytes | None = None):
        if seed is not None and len(seed) != KEY_LEN:
            raise ValueError("seed must be exactly 32 bytes")
        self._seed = seed
        self._counter = 0
        self._buffer = b""

    @classmethod
    def system(cls) -> "RandomSource":
        return cls(None)

    @classmethod
    def seeded(cls, seed: bytes) -> "RandomSource":
        return cls(seed)

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        if self._seed is None:
            return secrets.token_bytes(n)
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def fork(self, label: str) -> "RandomSource":
        """Independent child stream; system sources fork to system sources."""
        if self._seed is None:
            return RandomSource(None)
        child = hashlib.sha256(self._seed + b"fork:" + label.encode()).digest()
        return RandomSource(child)


@dataclass
class CostMeter:
    """Exact counters for protocol-level primitive invocations.

    ``kdf`` is realized as a single keyed-hash call, so each kdf adds one
    to ``mac_count``.
    """

    hash_count: int = 0
    mac_count: int = 0

    def reset(self):
        self.hash_count = 0
        self.mac_count = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.hash_count, self.mac_count)


METER = CostMeter()


def hash_bytes(data: bytes) -> Digest256:
    """SHA-256 of ``data`` (FIPS 180-4)."""
    METER.hash_count += 1
    return Digest256(hashlib.sha256(data).digest())


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Raw HMAC-SHA-256 (RFC 2104) over an arbitrary-length key.

    This is the core the RFC 4231 vectors exercise; protocol code goes
    through :func:`mac`, which fixes the key width at 32 bytes.
    """
    return _hmac.digest(key, data, "sha256")


def mac(key: Key256, data: bytes) -> Digest256:
    """Keyed integrity tag for protocol messages."""
    METER.mac_count += 1
    return Digest256(hmac_sha256(key.bytes, data))


def _label_prefix(label: str) -> bytes:
    """The label, length-prefixed, as kdf feeds it ahead of the salt."""
    try:
        label_bytes = label.encode("ascii")
    except UnicodeEncodeError:
        raise InvalidLabel(f"label must be ASCII: {label!r}") from None
    if not label_bytes or len(label_bytes) > MAX_LABEL_LEN:
        raise InvalidLabel(f"label must be 1..{MAX_LABEL_LEN} bytes, got {len(label_bytes)}")
    return bytes([len(label_bytes)]) + label_bytes


def kdf(secret: Key256, label: str, salt_material: bytes) -> Key256:
    """Derive a 32-byte key bound to ``label`` and ``salt_material``.

    The label is length-prefixed before keyed hashing, so distinct labels
    can never collide with each other via salt content.
    """
    data = _label_prefix(label) + salt_material
    METER.mac_count += 1
    return Key256(hmac_sha256(secret.bytes, data))


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def kdf_many(secret: Key256, label: str, salts: list[bytes]) -> list[bytes]:
    """``[kdf(secret, label, s).bytes for s in salts]``, keying HMAC once.

    Adds ``len(salts)`` to ``mac_count``, one per derivation.
    """
    block = secret.bytes.ljust(64, b"\0")  # a 32-byte key fills half a SHA-256 block
    inner = hashlib.sha256(block.translate(_IPAD) + _label_prefix(label))
    outer = hashlib.sha256(block.translate(_OPAD))
    out = []
    for salt in salts:
        h = inner.copy()
        h.update(salt)
        o = outer.copy()
        o.update(h.digest())
        out.append(o.digest())
    METER.mac_count += len(salts)
    return out


def sha256_many(chunks: list[bytes]) -> list[bytes]:
    """Raw SHA-256 of each chunk; adds ``len(chunks)`` to ``hash_count``."""
    METER.hash_count += len(chunks)
    sha256 = hashlib.sha256
    return [sha256(chunk).digest() for chunk in chunks]


def random_nonce(src: RandomSource) -> Nonce128:
    return Nonce128(src.read(NONCE_LEN))


def random_key(src: RandomSource) -> Key256:
    return Key256(src.read(KEY_LEN))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, done as one big-integer XOR; leading zero bytes
    survive because the result is re-padded to ``len(a)``."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# --- test-vector files ---------------------------------------------------
# One `input_hex → digest_hex` pair per line; blank lines and `#` comments
# are skipped; an ASCII `->` separator is accepted on read.

def format_vector_line(data: bytes, digest: Digest256) -> str:
    return f"{data.hex()} → {digest.hex()}"


def parse_vector_line(line: str) -> tuple[bytes, Digest256] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "→" in stripped:
        left, _, right = stripped.partition("→")
    elif "->" in stripped:
        left, _, right = stripped.partition("->")
    else:
        raise ValueError(f"vector line has no separator: {line!r}")
    return bytes.fromhex(left.strip()), Digest256.from_hex(right.strip())


def load_vector_file(path) -> list[tuple[bytes, Digest256]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parsed = parse_vector_line(line)
            if parsed is not None:
                pairs.append(parsed)
    return pairs


def save_vector_file(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for data, digest in pairs:
            fh.write(format_vector_line(data, digest) + "\n")

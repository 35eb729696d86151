"""Deterministic cryptographic building blocks shared by every scheme.

Fixed-width value types (Digest256, Key256, Nonce128), SHA-256 hashing,
HMAC-SHA-256 keyed integrity, a labelled key-derivation function, and a
seeded, replayable randomness source. All protocol-level hash and mac
invocations are counted by a module-level meter so the harness can report
exact computational costs.

One HMAC-SHA-256 core serves :func:`hmac_sha256`, :func:`mac`, :func:`kdf`
and :func:`kdf_many`: the RFC 2104 section 2 construction on ``hashlib``,
with the key zero-padded to the 64-byte SHA-256 block (a longer key is
hashed first) and XORed with ``ipad`` and ``opad``. ``kdf_many`` keys it
once per batch: it builds the SHA-256 states after ``key XOR ipad`` (plus
the label) and ``key XOR opad`` and copies them for every salt, the
precomputation of RFC 2104 section 4. The batch helpers :func:`kdf_many`
and :func:`sha256_many` return the bytes the one-call forms would, and
charge ``METER`` once for each call they stand for.

A fixed-width value checks its length when it is constructed. The values
this module builds from a SHA-256 or HMAC output, or from a read of the
length it asks for, have that length by construction, so
:func:`hash_bytes`, :func:`mac`, :func:`kdf`, :func:`random_nonce` and
:func:`random_key` wrap them with the private ``_unchecked``, which skips
the copy and the check. ``_unchecked`` is for this module only: every
decoder and every ``from_hex`` goes through the checked constructor.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
from dataclasses import dataclass, field

from .errors import InvalidLabel, MalformedPacket

DIGEST_LEN = 32
KEY_LEN = 32
NONCE_LEN = 16
MAX_LABEL_LEN = 32

_sha256 = hashlib.sha256


class _FixedBytes:
    """Immutable fixed-width byte value with constant-time equality."""

    __slots__ = ("bytes",)
    LENGTH = 0

    def __init__(self, raw: bytes):
        if type(raw) is not bytes:
            raw = bytes(raw)
        if len(raw) != self.LENGTH:
            raise ValueError(
                f"{type(self).__name__} needs exactly {self.LENGTH} bytes, got {len(raw)}"
            )
        _set_bytes(self, raw)

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


_new = object.__new__
_set_bytes = _FixedBytes.bytes.__set__


def _unchecked(cls, raw: bytes):
    """A ``cls`` value over ``raw``, which must already be ``bytes`` of
    ``cls.LENGTH``: only for values this module builds itself."""
    value = _new(cls)
    _set_bytes(value, raw)
    return value


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

    @classmethod
    def decode(cls, data: bytes) -> "Nonce128":
        if len(data) != NONCE_LEN:
            raise MalformedPacket(f"nonce must be {NONCE_LEN} bytes, got {len(data)}")
        return cls(data)


class RandomSource:
    """Deterministic byte stream: SHA-256 in counter mode over a 32-byte
    seed, so two sources built from the same seed emit bit-identical bytes
    -- the property the pinned handshake transcripts, the scenarios and the
    attack matrix rely on for replayability. Fresh entropy enters only as a
    seed: the CLI draws one from the OS at first boot and persists it.
    """

    def __init__(self, seed: bytes):
        if len(seed) != KEY_LEN:
            raise ValueError("seed must be exactly 32 bytes")
        self._seed = seed
        self._counter = 0
        self._buffer = b""

    @classmethod
    def seeded(cls, seed: bytes) -> "RandomSource":
        return cls(seed)

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        buffer = self._buffer
        short = n - len(buffer)
        if short > 0:
            seed, start = self._seed, self._counter
            if short <= 32:  # one block: nonces, keys and identifiers
                self._counter = start + 1
                buffer += _sha256(seed + start.to_bytes(8, "big")).digest()
            else:
                # Join the missing blocks once: growing the buffer block by
                # block would copy it whole each time.
                self._counter = end = start + -(-short // 32)
                buffer += b"".join(
                    [_sha256(seed + counter.to_bytes(8, "big")).digest() for counter in range(start, end)]
                )
        self._buffer = buffer[n:]
        return buffer[:n]

    def fork(self, label: str) -> "RandomSource":
        """Independent child stream, seeded from this one's seed and ``label``."""
        child = hashlib.sha256(self._seed + b"fork:" + label.encode()).digest()
        return RandomSource(child)


@dataclass
class CostMeter:
    """Exact counters for protocol-level primitive invocations.

    ``kdf`` is realized as a single keyed-hash call, so each kdf adds one
    to ``mac_count``.
    """

    hash_count: int = field(default=0, init=False)
    mac_count: int = field(default=0, init=False)

    def reset(self):
        self.hash_count = 0
        self.mac_count = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.hash_count, self.mac_count)


METER = CostMeter()


def hash_bytes(data: bytes) -> Digest256:
    """SHA-256 of ``data`` (FIPS 180-4)."""
    METER.hash_count += 1
    return _unchecked(Digest256, _sha256(data).digest())


_BLOCK_LEN = 64  # SHA-256's block, the width HMAC pads its key to
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _hmac_pads(key: bytes) -> tuple[bytes, bytes]:
    """``key XOR ipad`` and ``key XOR opad`` over the key zero-padded to
    one block; a key longer than a block is hashed first (RFC 2104 §2)."""
    if len(key) > _BLOCK_LEN:
        key = _sha256(key).digest()
    block = key.ljust(_BLOCK_LEN, b"\0")
    return block.translate(_IPAD), block.translate(_OPAD)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """Raw HMAC-SHA-256 (RFC 2104) over an arbitrary-length key:
    H(key XOR opad || H(key XOR ipad || data)).

    This is the core the RFC 4231 vectors exercise; protocol code goes
    through :func:`mac`, which fixes the key width at 32 bytes.
    """
    inner, outer = _hmac_pads(key)
    return _sha256(outer + _sha256(inner + data).digest()).digest()


def mac(key: Key256, data: bytes) -> Digest256:
    """Keyed integrity tag for protocol messages."""
    METER.mac_count += 1
    return _unchecked(Digest256, hmac_sha256(key.bytes, data))


@functools.lru_cache(maxsize=64)  # protocol code uses a handful of constant labels
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
    return _unchecked(Key256, hmac_sha256(secret.bytes, data))


def kdf_many(secret: Key256, label: str, salts: list[bytes]) -> list[bytes]:
    """``[kdf(secret, label, s).bytes for s in salts]``, keying HMAC once.

    Adds ``len(salts)`` to ``mac_count``, one per derivation.
    """
    inner_pad, outer_pad = _hmac_pads(secret.bytes)
    inner = _sha256(inner_pad + _label_prefix(label))
    outer = _sha256(outer_pad)
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
    new = _sha256
    return [new(chunk).digest() for chunk in chunks]


def random_nonce(src: RandomSource) -> Nonce128:
    return _unchecked(Nonce128, src.read(NONCE_LEN))


def random_key(src: RandomSource) -> Key256:
    return _unchecked(Key256, src.read(KEY_LEN))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, done as one big-integer XOR; leading zero bytes
    survive because the result is re-padded to ``len(a)``."""
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")

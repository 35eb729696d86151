"""Core primitive tests pinned to published FIPS 180-4 / RFC 4231 vectors."""

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshaf.errors import InvalidLabel
from sshaf.primitives import (
    METER,
    Digest256,
    Key256,
    Nonce128,
    RandomSource,
    hash_bytes,
    hmac_sha256,
    kdf,
    kdf_many,
    mac,
    random_key,
    random_nonce,
    sha256_many,
    xor_bytes,
)

# FIPS 180-4 SHA-256 test vectors (NIST examples).
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]

# RFC 4231 HMAC-SHA-256 test cases 1-4, 6, 7.
HMAC_VECTORS = [
    (
        bytes.fromhex("0b" * 20),
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        bytes.fromhex("aa" * 20),
        bytes.fromhex("dd" * 50),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes.fromhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
        bytes.fromhex("cd" * 50),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        bytes.fromhex("aa" * 131),
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        bytes.fromhex("aa" * 131),
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being "
        b"used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]


@pytest.mark.parametrize("data,expected", SHA256_VECTORS)
def test_hash_matches_fips_vectors(data, expected):
    assert hash_bytes(data).hex() == expected


def test_hash_deterministic():
    for data in (b"", b"abc", b"\x00" * 100):
        assert hash_bytes(data) == hash_bytes(data)


@pytest.mark.parametrize("key,data,expected", HMAC_VECTORS)
def test_hmac_matches_rfc4231_vectors(key, data, expected):
    assert hmac_sha256(key, data).hex() == expected


def test_mac_differs_from_plain_hash():
    key = Key256(b"\x0b" * 32)
    for data in (b"", b"Hi There", b"abc"):
        assert mac(key, data) != hash_bytes(data)


def test_mac_sensitive_to_trailing_byte():
    key = Key256(b"\x0b" * 32)
    assert mac(key, b"payload") != mac(key, b"payload\x00")


def test_mac_sensitive_to_key():
    k1 = Key256(b"\x01" * 32)
    k2 = Key256(b"\x02" * 32)
    assert mac(k1, b"payload") != mac(k2, b"payload")


def test_fixed_width_types_reject_wrong_length():
    with pytest.raises(ValueError):
        Digest256(b"\x00" * 31)
    with pytest.raises(ValueError):
        Key256(b"\x00" * 33)
    with pytest.raises(ValueError):
        Nonce128(b"\x00" * 15)


def test_key_repr_redacts_bytes():
    key = Key256(b"\xaa" * 32)
    assert "aa" not in repr(key)
    assert "aa" not in str(key)


def test_outputs_always_32_bytes():
    # Property over input lengths 0..4096 (sampled), per the module contract.
    rng = random.Random(0xC0FFEE)
    key = Key256(b"\x07" * 32)
    lengths = list(range(0, 64)) + [rng.randrange(64, 4097) for _ in range(64)] + [4096]
    for n in lengths:
        data = rng.randbytes(n)
        assert len(hash_bytes(data).bytes) == 32
        assert len(mac(key, data).bytes) == 32


def test_kdf_deterministic_and_label_separated():
    k = Key256(b"\x11" * 32)
    material = b"\xaa\xbb" * 8
    assert kdf(k, "sk", material) == kdf(k, "sk", material)
    assert kdf(k, "sk", material) != kdf(k, "confirm", material)
    # Pairwise-distinct over a label corpus on fixed inputs.
    labels = ["sk", "confirm", "card", "edge", "leaf", "mht-user", "dors-sk"]
    keys = [kdf(k, lb, material).bytes for lb in labels]
    assert len(set(keys)) == len(labels)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    label=st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=32),
    salt=st.binary(max_size=80),
)
def test_kdf_is_one_mac_of_the_prefixed_label_and_salt(key, label, salt):
    secret = Key256(key)
    expected = Key256(mac(secret, bytes([len(label)]) + label.encode() + salt).bytes)
    before = METER.snapshot()
    derived = kdf(secret, label, salt)
    assert METER.snapshot() == (before[0], before[1] + 1)
    assert type(derived) is Key256 and derived == expected


def test_kdf_rejects_bad_labels():
    k = Key256(b"\x11" * 32)
    before = METER.snapshot()
    for label in ("", "x" * 33, "bad→label"):
        with pytest.raises(InvalidLabel) as single:
            kdf(k, label, b"m")
        for salts in ([b"m"], []):
            with pytest.raises(InvalidLabel) as batch:
                kdf_many(k, label, salts)
            assert str(batch.value) == str(single.value)
    assert METER.snapshot() == before


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    label=st.one_of(st.text(max_size=40), st.text(alphabet=st.characters(max_codepoint=127), max_size=34)),
    salts=st.lists(st.binary(max_size=80), max_size=6),
)
def test_kdf_many_equals_one_kdf_per_salt(key, label, salts):
    secret = Key256(key)
    try:
        expected = [kdf(secret, label, salt).bytes for salt in salts]
        # An empty batch still checks its label, as kdf does.
        kdf(secret, label, b"")
    except InvalidLabel as exc:
        with pytest.raises(InvalidLabel) as caught:
            kdf_many(secret, label, salts)
        assert str(caught.value) == str(exc)
        return
    before = METER.snapshot()
    assert kdf_many(secret, label, salts) == expected
    assert METER.snapshot() == (before[0], before[1] + len(salts))


def test_sha256_many_equals_one_hash_per_chunk():
    rng = random.Random(0x5A)
    for chunks in ([], [b""], [rng.randbytes(n) for n in (1, 31, 32, 33, 64, 65, 1000)]):
        expected = [hash_bytes(chunk).bytes for chunk in chunks]
        before = METER.snapshot()
        assert sha256_many(chunks) == expected
        assert METER.snapshot() == (before[0] + len(chunks), before[1])


def test_seeded_source_replays_identically():
    seed = bytes(range(32))
    a = RandomSource.seeded(seed)
    b = RandomSource.seeded(seed)
    assert a.read(100) == b.read(100)
    # Reset by rebuilding: same sequence again.
    c = RandomSource.seeded(seed)
    assert c.read(16) == RandomSource.seeded(seed).read(16)


@pytest.mark.parametrize("size", [0, 1, 16, 31, 32, 33, 8192])
def test_seeded_read_of_any_size_continues_the_byte_stream(size):
    seed = bytes(range(32))
    # The same stream read byte by byte, then continued with a short read.
    reference = RandomSource.seeded(seed)
    expected = [reference.read(1) for _ in range(3 + size)]
    src = RandomSource.seeded(seed)
    assert src.read(3) == b"".join(expected[:3])  # leave a partial block buffered
    assert src.read(size) == b"".join(expected[3:])
    assert src.read(5) == reference.read(5)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 300), max_size=12))
def test_reads_of_any_sizes_give_the_one_block_stream(sizes):
    # The stream is SHA-256(seed || 8-byte counter), one 32-byte block per
    # counter value; after the reads, the counter has produced just enough
    # blocks and the buffer carries the rest of the last one.
    seed = bytes(range(32))
    total = sum(sizes)
    blocks = -(-total // 32)
    stream = b"".join(
        hashlib.sha256(seed + counter.to_bytes(8, "big")).digest() for counter in range(blocks)
    )
    src = RandomSource.seeded(seed)
    assert b"".join(src.read(size) for size in sizes) == stream[:total]
    assert src._counter == blocks
    assert src._buffer == stream[total:]


def test_seeded_nonces_fresh_within_stream():
    src = RandomSource.seeded(b"\x00" * 32)
    n1 = random_nonce(src)
    n2 = random_nonce(src)
    assert n1 != n2


def test_fork_gives_independent_deterministic_streams():
    seed = b"\x42" * 32
    a = RandomSource.seeded(seed).fork("left")
    b = RandomSource.seeded(seed).fork("left")
    c = RandomSource.seeded(seed).fork("right")
    assert a.read(32) == b.read(32)
    assert RandomSource.seeded(seed).fork("left").read(32) != c.read(32)


def test_xor_bytes():
    assert xor_bytes(b"\xff\x00", b"\x0f\x0f") == b"\xf0\x0f"
    with pytest.raises(ValueError):
        xor_bytes(b"\x00", b"\x00\x00")
    # Per-byte reference on random inputs.
    rng = random.Random(0x0B)
    cases = [(b"", b""), (b"\x00\x00\x01", b"\x00\x00\x02"), (b"\x00" * 40, b"\x00" * 40)]
    for n in [1, 2, 31, 32, 33, 4095, 4096] + rng.sample(range(3, 4095), 60):
        a = rng.randbytes(n)
        cases.append((a, rng.randbytes(n)))
        # Equal leading bytes give leading zero bytes in the result.
        shared = rng.randrange(n + 1)
        cases.append((a, a[:shared] + rng.randbytes(n - shared)))
        cases.append((b"\x00" * shared + a[shared:], b"\x00" * n))
    for a, b in cases:
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
    for a, b in [(b"", b"\x00"), (b"\x01" * 33, b"\x01" * 32), (b"\x00" * 4096, b"")]:
        with pytest.raises(ValueError):
            xor_bytes(a, b)


# --- the HMAC core and the values primitives build ------------------------------

@settings(max_examples=300, deadline=None)
@given(key=st.binary(max_size=200), data=st.binary(max_size=300))
def test_hmac_core_equals_the_library_hmac(key, data):
    assert hmac_sha256(key, data) == hmac.digest(key, data, "sha256")


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    label=st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=32),
    data=st.binary(max_size=300),
)
def test_mac_kdf_and_kdf_many_equal_the_library_hmac(key, label, data):
    material = bytes([len(label)]) + label.encode() + data
    expected = hmac.digest(key, material, "sha256")
    assert mac(Key256(key), data).bytes == hmac.digest(key, data, "sha256")
    assert kdf(Key256(key), label, data).bytes == expected
    assert kdf_many(Key256(key), label, [data, data]) == [expected, expected]


def _same_value(built, checked):
    assert type(built) is type(checked)
    assert built == checked and built.bytes == checked.bytes
    assert hash(built) == hash(checked) and repr(built) == repr(checked)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    data=st.binary(max_size=300),
    seed=st.binary(min_size=32, max_size=32),
)
def test_built_values_equal_their_checked_constructions(key, data, seed):
    _same_value(hash_bytes(data), Digest256(hashlib.sha256(data).digest()))
    _same_value(mac(Key256(key), data), Digest256(hmac.digest(key, data, "sha256")))
    _same_value(kdf(Key256(key), "sk", data), Key256(hmac.digest(key, b"\x02sk" + data, "sha256")))
    src, reference = RandomSource.seeded(seed), RandomSource.seeded(seed)
    _same_value(random_nonce(src), Nonce128(reference.read(16)))
    _same_value(random_key(src), Key256(reference.read(32)))


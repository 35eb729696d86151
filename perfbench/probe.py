"""Per-call cost of the primitive wrappers next to the raw library calls
they wrap, on 32-byte inputs."""

from __future__ import annotations

import hashlib
import hmac
import statistics
import timeit

from sshaf import primitives

_DATA = bytes(range(32))
_OTHER = bytes(range(32, 64))
# The material kdf(key, "leaf", data) hands to its keyed hash.
_KDF_MATERIAL = bytes([4]) + b"leaf" + _DATA

CASES = {
    "hash_us": "p.hash_bytes(data)",
    "raw_hash_us": "sha256(data).digest()",
    "mac_us": "p.mac(key, data)",
    "raw_mac_us": "hmac_digest(raw_key, data, 'sha256')",
    "kdf_us": "p.kdf(key, 'leaf', data)",
    "raw_kdf_us": "hmac_digest(raw_key, material, 'sha256')",
    "xor32_us": "p.xor_bytes(data, other)",
    "raw_xor32_us": "(from_bytes(data, 'big') ^ from_bytes(other, 'big')).to_bytes(32, 'big')",
    "digest_wrap_us": "p.Digest256(data)",
}


NUMBER = 20000  # calls per batch
REPEAT = 5  # batches per case


def probe_primitives() -> dict[str, float]:
    """Median over REPEAT batches of the microseconds one call takes."""
    namespace = {
        "p": primitives,
        "data": _DATA,
        "other": _OTHER,
        "material": _KDF_MATERIAL,
        "key": primitives.Key256(_OTHER),
        "raw_key": _OTHER,
        "sha256": hashlib.sha256,
        "hmac_digest": hmac.digest,
        "from_bytes": int.from_bytes,
    }
    out = {}
    for name, stmt in CASES.items():
        batches = timeit.repeat(stmt, globals=namespace, number=NUMBER, repeat=REPEAT)
        out[name] = 1e6 * statistics.median(batches) / NUMBER
    return out

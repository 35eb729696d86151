"""Role names, the in-process link every handshake driver runs over, and
the reader every handshake message is decoded with.

A link carries message objects; one that moves bytes hands them to the
message's ``decode``. Each decoder reads its fields with a ``Reader`` in
the order its ``encode`` writes them and returns ``r.done(message)``, so it
accepts exactly the bytes its encoder writes: the framing rules live here.
"""

from __future__ import annotations

from .errors import MalformedPacket

USER = "user"
GATEWAY = "gateway"


class Loopback:
    """Hands each message over as the object it is, and keeps every
    (sender, message) pair it carried in ``carried``."""

    def __init__(self):
        self.carried: list[tuple[str, object]] = []

    def carry(self, sender: str, receiver: str, message, decode):
        self.carried.append((sender, message))
        return message


def pack_uid(uid: str) -> bytes:
    """A uid as the wire carries it: a 2-byte big-endian length, then UTF-8."""
    raw = uid.encode()
    return len(raw).to_bytes(2, "big") + raw


class Reader:
    """The bytes of one ``what`` message, read front to back."""

    def __init__(self, data: bytes, what: str):
        self.data, self.what, self.pos = data, what, 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise MalformedPacket(f"{self.what} ends {end - len(self.data)} bytes short")
        raw, self.pos = self.data[self.pos : end], end
        return raw

    def int(self, n: int) -> int:
        """The next ``n`` bytes as a big-endian unsigned integer."""
        return int.from_bytes(self.take(n), "big")

    def uid(self) -> str:
        """A uid as ``pack_uid`` writes it."""
        raw = self.take(self.int(2))
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise MalformedPacket(f"{self.what} uid is not UTF-8") from None

    def tagged(self, type_tag: int) -> Reader:
        """This reader, past a 1-byte type tag that must be ``type_tag``."""
        if self.int(1) != type_tag:
            raise MalformedPacket(f"{self.what} does not start with type {type_tag}")
        return self

    def done(self, message):
        """``message``, once every byte has been read."""
        if self.pos != len(self.data):
            raise MalformedPacket(f"{self.what} has {len(self.data) - self.pos} bytes left over")
        return message

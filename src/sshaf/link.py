"""Role names and the in-process link every handshake driver runs over."""

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

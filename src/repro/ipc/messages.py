"""IPC messages.

V messages are small fixed-size records (32 bytes) optionally followed
by a data segment.  We model a message as an immutable ``kind`` plus
named fields; ``extra_bytes`` sizes the segment for wire-time purposes
(field values themselves are simulation objects and weigh nothing).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

#: Size of the fixed V message header on the wire.
MESSAGE_BYTES = 32


class Message(Mapping):
    """An immutable V message: a ``kind`` tag plus named fields.

    Behaves as a read-only mapping of its fields::

        msg = Message("create_program", program="cc68", remote=True)
        msg["program"]      # "cc68"
        msg.get("missing")  # None
    """

    __slots__ = ("kind", "_fields", "extra_bytes")

    def __init__(self, kind: str, extra_bytes: int = 0, **fields: Any):
        if extra_bytes < 0:
            raise ValueError(f"negative segment size {extra_bytes}")
        # ``fields`` is already a fresh dict built from the keyword
        # arguments; adopt it rather than copying it again.
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "extra_bytes", extra_bytes)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("Message is immutable")

    # ------------------------------------------------------------- mapping

    def __getitem__(self, key: str) -> Any:
        return self._fields[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def get(self, key: str, default: Any = None) -> Any:
        """Field value or ``default``."""
        return self._fields.get(key, default)

    # --------------------------------------------------------------- sizing

    @property
    def wire_bytes(self) -> int:
        """Bytes this message occupies as packet payload."""
        return MESSAGE_BYTES + self.extra_bytes

    def replying(self, kind: Optional[str] = None, **fields: Any) -> "Message":
        """A conventional reply message: same kind suffixed ``-reply``
        unless overridden."""
        return Message(kind or f"{self.kind}-reply", **fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"Message({self.kind!r}, {inner})"

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Message)
            and other.kind == self.kind
            and other._fields == self._fields
            and other.extra_bytes == self.extra_bytes
        )

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self._fields)), self.extra_bytes))


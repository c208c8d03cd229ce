"""Per-agent mailboxes: how the fleet's actors talk to each other.

The CA director posts a ``head-published`` message to every RA's mailbox
when it publishes, and the client-load actor posts ``client-batch``
messages mid-period.  An RA drains its mailbox when its pull event fires —
so an RA that misses pulls (restart fault, crash) visibly accumulates a
backlog, which the report surfaces as ``metrics.fleet.mailbox_depth_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Message:
    """One mailbox entry: a kind and a payload."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


class Mailbox:
    """An unbounded FIFO queue with high-watermark depth accounting."""

    def __init__(self, owner: str) -> None:
        """Create the mailbox for the agent named ``owner``."""
        self.owner = owner
        self._queue: List[Message] = []
        self.max_depth = 0

    def post(self, message: Message) -> None:
        """Append a message and update the depth high-watermark."""
        self._queue.append(message)
        self.max_depth = max(self.max_depth, len(self._queue))

    def drain(self) -> List[Message]:
        """Remove and return every queued message, oldest first."""
        messages = self._queue
        self._queue = []
        return messages

    def depth(self) -> int:
        """The number of currently queued messages."""
        return len(self._queue)

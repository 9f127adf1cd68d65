"""The request lifecycle's wire format.

A :class:`Request` is what a client attempt puts on the network: enough
identity for the server to reply (``client`` names the reply kind,
``origin`` the reply destination) and enough context for both sides to
account for it (``weight`` user-requests per batched arrival,
``attempt`` for retry bookkeeping, ``hedged`` for duplicate-suppression
stats).  Payloads are plain dicts so messages stay JSON-able for
journals and snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Message kind servers register for.
REQUEST_KIND = "traffic.request"

#: Reply kind prefix; the full kind is ``traffic.reply:<client-name>`` so
#: several clients can share one origin node without handler clashes.
REPLY_KIND_PREFIX = "traffic.reply:"


def reply_kind(client_name: str) -> str:
    return REPLY_KIND_PREFIX + client_name


@dataclass(frozen=True)
class Request:
    """One attempt of one (possibly batched) user request."""

    req_id: int
    client: str            # owning client name (reply routing key)
    origin: str            # node the reply goes back to
    created_at: float      # submit time of the *call*, not this attempt
    weight: int = 1        # user-requests this arrival represents
    priority: int = 0      # lower runs first in priority queues
    attempt: int = 1       # 1 = initial attempt, >1 = retries
    hedged: bool = False   # True for speculative duplicates

    def to_payload(self) -> Dict[str, Any]:
        return {
            "req_id": self.req_id,
            "client": self.client,
            "origin": self.origin,
            "created_at": self.created_at,
            "weight": self.weight,
            "priority": self.priority,
            "attempt": self.attempt,
            "hedged": self.hedged,
        }

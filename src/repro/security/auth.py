"""Signed-digest message authentication.

Authenticity is a keyed BLAKE2b MAC over a deterministic encoding of
``(src, dst, kind, payload)``, keyed per sender from a seeded
:class:`KeyChain`.  The signer runs as the **first** send-side transport
interceptor; attack behaviors are installed after it, so a compromised
node's tampering happens below its legitimate signing layer and breaks
the tag.  Receivers verify at delivery; an invalid tag is dropped with
reason ``"auth"`` and recorded as ``digest-mismatch`` trust evidence.

Two choices keep the auth path inside its <=15% peacetime overhead
budget (``benchmarks/regress.py`` bench ``security``):

* The encoding is ``repr`` of the live tuple rather than canonical
  JSON: sign and verify both see the *same in-memory message object*
  (the transport passes it by reference), and payload construction
  order is itself deterministic (seeded streams, ordered event
  kernel), so ``repr`` is reproducible across runs and resumes while
  costing a fraction of a JSON serialization.
* The MAC is keyed BLAKE2b (RFC 7693) rather than HMAC-SHA256: BLAKE2
  has native keyed mode, so one C-level hash call replaces the
  two-pass HMAC construction -- same unforgeability against the
  simulated adversary, who never sees keys, at a quarter of the cost.

Keys are short deterministic strings drawn from a seeded RNG stream, so
rotation is replayable and checkpoint/resume reproduces identical tags.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Iterable, Optional

#: Truncated tag length (hex chars).  Plenty against the simulated
#: adversary, and keeps journals/snapshots compact.
TAG_HEX_CHARS = 16


class KeyChain:
    """Deterministic per-node symmetric keys with replayable rotation."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self._keys: Dict[str, str] = {}
        self._key_bytes: Dict[str, bytes] = {}
        self._rotations: Dict[str, int] = {}

    def issue(self, node: str) -> str:
        """Issue (or re-issue) a key for ``node``."""
        generation = self._rotations.get(node, 0)
        key = f"{node}:{generation}:{self.rng.getrandbits(64):016x}"
        self._keys[node] = key
        self._key_bytes[node] = key.encode("utf-8")
        return key

    def rotate(self, node: str) -> Optional[str]:
        """Rotate ``node``'s key; no-op for nodes without one."""
        if node not in self._keys:
            return None
        self._rotations[node] = self._rotations.get(node, 0) + 1
        return self.issue(node)

    def rotate_all(self, exclude: Iterable[str] = ()) -> int:
        """Rotate every key except ``exclude``; returns rotation count."""
        excluded = set(exclude)
        rotated = 0
        for node in sorted(self._keys):
            if node in excluded:
                continue
            self.rotate(node)
            rotated += 1
        return rotated

    def revoke(self, node: str) -> None:
        """Drop ``node``'s key: its signed messages stop verifying."""
        self._keys.pop(node, None)
        self._key_bytes.pop(node, None)

    def key_of(self, node: str) -> Optional[str]:
        return self._keys.get(node)

    def key_bytes_of(self, node: str) -> Optional[bytes]:
        """Pre-encoded key for the hot auth path (one encode per issue)."""
        return self._key_bytes.get(node)

    def known(self, node: str) -> bool:
        """Whether ``node`` is a registered identity (sybil filter)."""
        return node in self._keys

    @property
    def nodes(self):
        return sorted(self._keys)


def _tag(key: bytes, message) -> str:
    body = repr((message.src, message.dst, message.kind, message.payload))
    return hashlib.blake2b(body.encode("utf-8"), key=key,
                           digest_size=TAG_HEX_CHARS // 2).hexdigest()


class MessageAuthenticator:
    """Signer / verifier pair over a :class:`KeyChain`.

    ``protected_kinds`` limits authentication to a set of message-kind
    prefixes (e.g. ``("swim.", "raft.")``); ``None`` protects everything.
    Unprotected kinds pass unsigned and unverified.
    """

    def __init__(self, keychain: KeyChain,
                 protected_kinds: Optional[Iterable[str]] = None) -> None:
        self.keychain = keychain
        self.protected_kinds = (tuple(sorted(protected_kinds))
                                if protected_kinds is not None else None)
        self.signed = 0
        self.verified = 0
        self.rejected = 0

    def protects(self, kind: str) -> bool:
        if self.protected_kinds is None:
            return True
        return kind.startswith(self.protected_kinds)

    # -- interceptor side --------------------------------------------------- #
    def signer(self, message) -> None:
        """Send-side interceptor: tag protected messages from known keys."""
        if not self.protects(message.kind):
            return None
        key = self.keychain.key_bytes_of(message.src)
        if key is not None:
            message.auth = _tag(key, message)
            self.signed += 1
        return None

    # -- verifier side ------------------------------------------------------ #
    def verify(self, message) -> bool:
        """Delivery-side check; True admits the message."""
        if not self.protects(message.kind):
            return True
        key = self.keychain.key_bytes_of(message.src)
        if key is None or message.auth is None:
            self.rejected += 1
            return False
        ok = hmac.compare_digest(_tag(key, message), message.auth)
        if ok:
            self.verified += 1
        else:
            self.rejected += 1
        return ok

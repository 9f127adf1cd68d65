"""Named, independently seeded random streams.

Reproducibility discipline: a single integer seed fans out into one
``random.Random`` stream *per named subsystem* ("network", "faults",
"workload:traffic", ...).  Adding a new consumer of randomness therefore
never perturbs the draw sequence of existing subsystems, which keeps
recorded experiment outputs stable across code evolution.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List


class RngRegistry:
    """Factory of deterministic, per-name random streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("network")
    >>> b = rngs.stream("faults")
    >>> a is rngs.stream("network")  # streams are cached per name
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(seed=self._derive(f"fork:{name}"))

    @property
    def stream_names(self) -> List[str]:
        return sorted(self._streams)

    # -- persistence --------------------------------------------------------- #
    def snapshot_state(self) -> Dict[str, Any]:
        """Serializable per-stream ``Random.getstate()`` for every stream.

        The Mersenne state tuple is converted to lists so the snapshot is
        JSON-able.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: serialize_rng_state(rng)
                for name, rng in sorted(self._streams.items())
            },
        }


def serialize_rng_state(rng: random.Random) -> List[Any]:
    """``Random.getstate()`` as a JSON-able ``[version, internal, gauss]``."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]

"""Random streams with pure-function derivation.

Every stochastic operation receives an RngContract and derives child
streams from (base_seed, purpose tag, index).  Derivation is a pure
function of those three values, so replications and couplings can be
evaluated in any order, on any number of threads, and still reproduce
bit-identical draws.  A stream's generator is SFC64, seeded by numpy's
SeedSequence hash of (base_seed, stream_id).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(stream_id: int, tag: str, index: int) -> int:
    """Collapse (stream_id, tag, index) into a new 64-bit stream id via SHA-256."""
    h = hashlib.sha256()
    h.update(int(stream_id & _MASK64).to_bytes(8, "little"))
    h.update(tag.encode("utf-8"))
    h.update(int(index & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class RngContract:
    """Handle for a reproducible random stream.

    The generator's state is SeedSequence's hash of the pair (base_seed,
    stream_id), each taken mod 2^64.  That hash spreads any change in its
    input over the whole SFC64 state.  Its input is not the pair itself but
    the 32-bit words of both integers, concatenated, each integer in as few
    words as it needs, so two distinct pairs can draw the same stream:
    RngContract(5, 7 + 3 * 2**32) and RngContract(5 + 7 * 2**32, 3) do.
    Streams under one base seed never collide, nor do streams under base
    seeds below 2^32; a collision needs a base seed of 2^32 or more.
    """

    base_seed: int
    stream_id: int = 0

    def derive(self, tag: str, index: int = 0) -> "RngContract":
        """Child stream for one purpose (e.g. "innovations") and work-unit index."""
        return RngContract(self.base_seed, _mix(self.stream_id, tag, index))

    def generator(self) -> np.random.Generator:
        """Materialize the stream as a numpy Generator (SFC64)."""
        seed = np.random.SeedSequence([self.base_seed & _MASK64, self.stream_id & _MASK64])
        return np.random.Generator(np.random.SFC64(seed))

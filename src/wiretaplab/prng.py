"""Deterministic seeded bit streams.

A PrngStream expands a seed into an unbounded bit sequence by running
SHA-256 as a keyed compression function in counter mode.  Everything
stochastic in this package draws from such a stream, so any experiment is
reproducible from its seed.  Labels give independent substreams (domain
separation); Bernoulli and Gaussian draws are built on fixed-width integer
draws so results are bit-identical across platforms.
"""

from __future__ import annotations

import hashlib
import struct
from statistics import NormalDist

__all__ = ["PrngStream", "prng_stream"]

_MIN_SEED_BYTES = 16
_STD_NORMAL = NormalDist()


def _bernoulli_threshold(p: float) -> int:
    """round(p * 2**32): a 32-bit chunk below it is a Bernoulli(p) 1.  The
    fixed-point threshold keeps draws exactly reproducible across platforms;
    every Bernoulli draw in the package, single or in bulk, compares to it."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p}")
    return round(p * 4294967296.0)


class PrngStream:
    """SHA-256 counter-mode bit stream; single-owner, stateful."""

    def __init__(self, key: bytes):
        self._key = key
        self._counter = 0
        self._buffer = 0
        self._buffered = 0

    def next_bits(self, count: int) -> int:
        """The next `count` stream bits packed LSB-first into an int."""
        if count < 0:
            raise ValueError("negative bit count")
        if self._buffered < count:
            # One conversion for all missing blocks; ORing them in one by one is quadratic.
            blocks = range(self._counter, self._counter + (count - self._buffered + 255) // 256)
            self._counter = blocks.stop
            raw = b"".join(hashlib.sha256(self._key + c.to_bytes(8, "big")).digest() for c in blocks)
            self._buffer |= int.from_bytes(raw, "little") << self._buffered
            self._buffered += 8 * len(raw)
        out = self._buffer & ((1 << count) - 1)
        self._buffer >>= count
        self._buffered -= count
        return out

    def bernoulli(self, p: float) -> int:
        """One Bernoulli(p) draw; see bernoulli_word."""
        return self.bernoulli_word(1, p)

    def bernoulli_word(self, n: int, p: float) -> int:
        """n Bernoulli(p) draws packed LSB-first: bit i is 1 when the i-th next
        32-bit chunk is below _bernoulli_threshold(p)."""
        threshold = _bernoulli_threshold(p)
        chunks = struct.iter_unpack("<I", self.next_bits(32 * n).to_bytes(4 * n, "little"))
        flags = "".join("1" if c < threshold else "0" for (c,) in chunks)
        return int(flags[::-1] or "0", 2)

    def gaussian(self) -> float:
        """One standard normal draw by inverse CDF on a 53-bit uniform."""
        u = (self.next_bits(53) + 0.5) * 2.0**-53
        return _STD_NORMAL.inv_cdf(u)

    def substream(self, label: str) -> "PrngStream":
        """Independent stream derived from this stream's key and a label.

        Derivation is stateless: it does not consume or depend on stream
        position, so substream layouts are stable.
        """
        key = hashlib.sha256(self._key + b"sub:" + label.encode()).digest()
        return PrngStream(key)


def prng_stream(seed: bytes, label: str = "") -> PrngStream:
    """Stream keyed by (seed, label); seed must be at least 16 bytes."""
    if len(seed) < _MIN_SEED_BYTES:
        raise ValueError(f"seed must be >= {_MIN_SEED_BYTES} bytes, got {len(seed)}")
    key = hashlib.sha256(
        len(seed).to_bytes(8, "big") + seed + label.encode()
    ).digest()
    return PrngStream(key)

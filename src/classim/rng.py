"""Portable seeded randomness.

Every stochastic choice in the package (classroom sampling, mock student
responses) flows through the splitmix-style generator below rather than
``random`` or numpy's generators, so a run with a fixed seed reproduces
bit-for-bit across platforms and Python versions.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """One splitmix64 output step applied to ``value``; stateless."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, *parts: object) -> int:
    """Derive a child seed from a root seed and a label tuple.

    Hashes the textual form of ``parts``, so any mix of strings and ints
    (item ids, student indices, replicate numbers) yields a stable stream
    seed independent of Python's per-process hash randomization.
    """
    label = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(f"{seed & _MASK64}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start`` .. ``start + count - 1`` of ``SplitMix64(seed)`` as uint64.

    The stream's state after k draws is ``seed + k * GOLDEN`` (mod 2**64),
    so any stretch of it is one array of states put through the mix.
    Every constant is a ``np.uint64``: under NumPy 1.x a uint64 scalar
    combined with a Python int promotes to float64.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed & _MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_float(self) -> float:
        # 53 uniform bits in [0, 1)
        return (self.next_u64() >> 11) * (2.0**-53)

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, population: int, k: int) -> list[int]:
        """Draw k distinct integers from [0, population)."""
        if k > population:
            raise ValueError(f"cannot draw {k} distinct values from {population}")
        if k * 20 < population:
            # sparse draw: rejection against a seen-set stays cheap
            seen: set[int] = set()
            out: list[int] = []
            while len(out) < k:
                v = self.randrange(population)
                if v not in seen:
                    seen.add(v)
                    out.append(v)
            return out
        pool = list(range(population))
        # partial Fisher-Yates: first k positions end up uniformly drawn
        for i in range(k):
            j = i + self.randrange(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def normal_pair(rng: SplitMix64) -> tuple[float, float]:
    """Two independent standard normal draws (Box-Muller)."""
    import math

    u1 = rng.next_float()
    while u1 <= 0.0:
        u1 = rng.next_float()
    u2 = rng.next_float()
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = 2.0 * math.pi * u2
    return radius * math.cos(angle), radius * math.sin(angle)

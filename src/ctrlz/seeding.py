"""Deterministic seed derivation shared by the samplers and the harness.

Every stochastic draw in this package comes from a generator keyed by a
structured integer tuple, so results never depend on the order in which
runs or candidates are evaluated.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(master_seed: int, run_index: int) -> int:
    """Stable 64-bit mix of (master_seed, run_index), two splitmix64 rounds."""
    z = (master_seed ^ (run_index * _GOLDEN)) & _MASK64
    for _ in range(2):
        z = (z + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


def keyed_rng(*key: int) -> np.random.Generator:
    """Independent generator for a structured nonnegative integer key.

    The same stream as ``np.random.default_rng(np.random.SeedSequence(key))``.
    ``SeedSequence`` gets the key as the uint32 words its own coercion would
    make (each int split little-endian into 32-bit words, 0 as one word),
    which skips that coercion's per-element cost.
    """
    words = []
    for k in key:
        if k < 0:
            raise ValueError(f"key entries must be nonnegative, got {k}")
        words.append(k & _MASK32)
        k >>= 32
        while k:
            words.append(k & _MASK32)
            k >>= 32
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))

"""Deterministic RNG derivation.

Every randomized operation takes an explicit ``numpy.random.Generator``.
When a single integer seed has to drive several independent streams
(key generation, channel noise, attack queries, ...) we derive one
generator per purpose from the seed plus a text label, so adding a new
consumer never shifts the draws seen by an existing one.
"""
from __future__ import annotations

import numpy as np


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Return a Generator keyed by ``(seed, label)``.

    Parameters
    ----------
    seed : int
        Master seed, any non-negative integer (no size limit).
    label : str
        Purpose tag, e.g. ``"keygen"`` or ``"channel"``.
    """
    entropy = [seed, *label.encode("utf-8")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def parse_seed(text: str) -> int:
    """Parse a hex (with or without ``0x``) or decimal seed string; a
    negative seed is rejected."""
    text = text.strip().lower()
    try:
        if text.startswith("0x"):
            seed = int(text, 16)
        else:
            # bare hex like "c0ffee" is accepted too; plain digits parse as decimal
            seed = int(text, 10) if text.isdigit() else int(text, 16)
    except ValueError as exc:
        raise ValueError(f"cannot parse seed {text!r} (expected decimal or hex)") from exc
    if seed < 0:
        raise ValueError(f"seed {text!r} is negative")
    return seed

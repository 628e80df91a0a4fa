"""Fibonacci LFSR used to derive per-block frozen-bit syndromes.

Taps name the exponents of the feedback polynomial with a nonzero
coefficient, the degree itself included and the constant term implied:
``(4, 1)`` means ``x**4 + x + 1``.  With state ``(s[0], ..., s[m-1])``
(``s[0]`` oldest), one clock outputs ``s[0]`` and shifts in

    s[m] = s[0] XOR sum(s[a] for tap a < m)

A degree-m register emits one m-bit syndrome per cipher block: the
syndrome is the current state, after which the register clocks m times.
That block step is a linear map T, and runs of syndromes and jumps are
products by the powers ``T, T**2, T**4, ...``, cached per tap set.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

from .gf2 import GF2Matrix, mul_bits_matrix, mul_bits_words

# Maximal-length tap sets by degree (feedback polynomial exponents).
# Degrees <= 16 are verified primitive by exhaustive period check in the
# test suite; larger degrees (20, 256) are taken from the published
# table of Ward & Molteno, "Table of Linear Feedback Shift Registers"
# (University of Otago), which lists x^256 + x^254 + x^251 + x^246 + 1
# and x^20 + x^3 + 1 as primitive.
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 1),
    7: (7, 1),
    8: (8, 4, 3, 2),
    9: (9, 4),
    10: (10, 3),
    11: (11, 2),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 1),
    16: (16, 15, 13, 4),
    20: (20, 3),
    256: (256, 254, 251, 246),
}

_PRIMITIVITY_CHECK_LIMIT = 16


def taps_for_degree(m: int) -> tuple[int, ...]:
    """Default maximal-length taps for degree ``m``.

    Raises ``ValueError`` when no default is on file; callers may then
    supply their own taps explicitly.
    """
    try:
        return DEFAULT_TAPS[m]
    except KeyError:
        raise ValueError(f"no default taps on file for degree {m}; pass taps explicitly") from None


def validate_taps(taps: tuple[int, ...]) -> tuple[int, ...]:
    taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
    if not taps:
        raise ValueError("taps must be non-empty")
    if taps[-1] < 1:
        raise ValueError("tap exponents must be >= 1 (constant term is implicit)")
    return taps


class Lfsr:
    """Fibonacci LFSR over GF(2).

    Parameters
    ----------
    taps : tuple of int
        Feedback polynomial exponents, degree included.
    state : array-like
        Initial fill, length equal to the degree, not all-zero.
    """

    def __init__(self, taps: tuple[int, ...], state: np.ndarray):
        self.taps = validate_taps(taps)
        self.degree = self.taps[0]
        state = np.asarray(state, dtype=np.uint8)
        if state.shape != (self.degree,):
            raise ValueError(f"state must have length {self.degree}")
        if state.max(initial=0) > 1:
            raise ValueError("state must be bits")
        if not state.any():
            raise ValueError("state must not be all-zero")
        self._state = state.copy()
        # s[0] always feeds back (the constant term), then every tap below the degree
        self._fb_positions = np.array([0, *self.taps[1:]], dtype=np.int64)

    @property
    def state(self) -> np.ndarray:
        """Copy of the current register fill (oldest bit first)."""
        return self._state.copy()

    def clock(self) -> int:
        """Advance one step; returns the output bit (the old ``s[0]``)."""
        out = int(self._state[0])
        fb = int(self._state[self._fb_positions].sum() & 1)
        self._state[:-1] = self._state[1:]
        self._state[-1] = fb
        return out

    def next_syndrome(self) -> np.ndarray:
        """Current state as the next syndrome, then clock ``degree`` steps."""
        return self.syndromes(1)[0]

    def syndromes(self, count: int) -> np.ndarray:
        """Next ``count`` syndromes as a (count, degree) array, by doubling:
        rows ``[2**i, 2**(i+1))`` are the first rows times ``T**(2**i)``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = np.empty((count + 1, self.degree), dtype=np.uint8)
        out[0] = self._state
        for done in (1 << i for i in range(operator.index(count).bit_length())):
            out[done : 2 * done] = _advance(self.taps, out[: min(done, count + 1 - done)], done)
        self._state = out[count].copy()
        return out[:count]

    def skip(self, count: int) -> None:
        """Jump past the next ``count`` syndromes: one product per set bit."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._state = _advance(self.taps, self._state[None], operator.index(count))[0]


@functools.lru_cache(maxsize=1024)
def _step_power(taps: tuple[int, ...], i: int) -> GF2Matrix:
    """``T**(2**i)`` for validated ``taps``, squared from ``T**(2**(i-1))``
    and shared read-only by every register with those taps.  T is the
    block step: row j is unit fill j clocked ``degree`` times (all fills
    at once, as in :meth:`Lfsr.clock`)."""
    if i:
        half = _step_power(taps, i - 1)
        power = GF2Matrix(half.nrows, half.ncols, mul_bits_words(half.to_dense(), half))
    else:
        fills = np.eye(taps[0], dtype=np.uint8)
        for _ in range(taps[0]):
            fb = np.bitwise_xor.reduce(fills[:, [0, *taps[1:]]], axis=1)
            fills = np.concatenate([fills[:, 1:], fb[:, None]], axis=1)
        power = GF2Matrix.from_dense(fills)
    power.words.flags.writeable = False
    return power


def _advance(taps: tuple[int, ...], fills: np.ndarray, blocks: int) -> np.ndarray:
    """The (batch, degree) ``fills`` advanced by ``blocks`` block steps:
    one product by ``T**(2**i)`` per set bit ``i`` of ``blocks``."""
    for i in range(blocks.bit_length()):
        if blocks >> i & 1:
            fills = mul_bits_matrix(fills, _step_power(taps, i))
    return fills


def lfsr_period(taps: tuple[int, ...]) -> int:
    """Length of the state cycle containing ``0...01``.

    Brute force over integer states; restricted to small degrees.
    """
    taps = validate_taps(taps)
    m = taps[0]
    if m > _PRIMITIVITY_CHECK_LIMIT:
        raise ValueError(f"period brute force is limited to degree <= {_PRIMITIVITY_CHECK_LIMIT}")
    fb_mask = sum(1 << t for t in (0, *taps[1:]))
    state = start = 1 << (m - 1)  # state (0, ..., 0, 1)
    period = 0
    while True:
        fb = (state & fb_mask).bit_count() & 1
        state = (state >> 1) | (fb << (m - 1))
        period += 1
        if state == start:
            return period


def is_primitive(taps: tuple[int, ...]) -> bool:
    """True when the feedback polynomial is primitive (maximal period).

    Decided by exhaustive cycle walk, so only degrees up to
    ``_PRIMITIVITY_CHECK_LIMIT`` are supported.
    """
    taps = validate_taps(taps)
    m = taps[0]
    return lfsr_period(taps) == (1 << m) - 1

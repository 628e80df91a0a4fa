"""Fibonacci LFSR used to derive per-block frozen-bit syndromes.

Taps name the exponents of the feedback polynomial with a nonzero
coefficient, the degree itself included and the constant term implied:
``(4, 1)`` means ``x**4 + x + 1``.  With state ``(s[0], ..., s[m-1])``
(``s[0]`` oldest), one clock outputs ``s[0]`` and shifts in

    s[m] = s[0] XOR sum(s[a] for tap a < m)

A degree-m register emits one m-bit syndrome per cipher block: the
syndrome is the current state, after which the register clocks m times.
"""
from __future__ import annotations

import functools

import numpy as np

from .gf2 import GF2Matrix

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


def _feedback_mask(taps: tuple[int, ...]) -> int:
    degree = taps[0]
    mask = 1  # s[0] always feeds back (constant term of the polynomial)
    for t in taps:
        if t < degree:
            mask |= 1 << t
    return mask


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
        self._fb_positions = np.array(
            [0] + [t for t in self.taps if t < self.degree], dtype=np.int64
        )

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
        """Next ``count`` syndromes as a (count, degree) array.

        Uses the precomputed degree-step matrix, so cost per syndrome is
        one vector-matrix product instead of ``degree`` single clocks.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        skip = _block_step_matrix(self.taps)
        out = np.empty((count, self.degree), dtype=np.uint8)
        s = self._state
        for i in range(count):
            out[i] = s
            s = skip.vecmat(s)
        self._state = s.copy()
        return out


@functools.lru_cache(maxsize=32)
def _block_step_matrix(taps: tuple[int, ...]) -> GF2Matrix:
    """The ``degree``-clock state map for validated ``taps``: row i is
    unit fill i clocked ``degree`` times (all fills at once, each clock as
    in :meth:`Lfsr.clock`), so ``s @ step`` is ``s`` clocked ``degree``
    times.  Built once per tap set and shared read-only by every register
    with those taps."""
    m = taps[0]
    fills = np.eye(m, dtype=np.uint8)
    feedback = [0, *taps[1:]]
    for _ in range(m):
        fb = np.bitwise_xor.reduce(fills[:, feedback], axis=1)
        fills = np.concatenate([fills[:, 1:], fb[:, None]], axis=1)
    step = GF2Matrix.from_dense(fills)
    step.words.flags.writeable = False
    return step


def lfsr_period(taps: tuple[int, ...], seed: np.ndarray | None = None) -> int:
    """Length of the state cycle containing ``seed`` (default ``0...01``).

    Brute force over integer states; restricted to small degrees.
    """
    taps = validate_taps(taps)
    m = taps[0]
    if m > _PRIMITIVITY_CHECK_LIMIT:
        raise ValueError(f"period brute force is limited to degree <= {_PRIMITIVITY_CHECK_LIMIT}")
    fb_mask = _feedback_mask(taps)
    if seed is None:
        start = 1 << (m - 1)  # state (0, ..., 0, 1)
    else:
        seed = np.asarray(seed, dtype=np.uint8)
        start = int(sum(int(b) << i for i, b in enumerate(seed)))
    if start == 0:
        raise ValueError("seed must be non-zero")
    state = start
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

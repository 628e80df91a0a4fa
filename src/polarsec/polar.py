"""Polar-code primitives over the binary erasure channel (BEC).

The length-``N = 2**n`` transform is ``x = u @ F^{(n)}`` where ``F`` is
the 2x2 kernel ``[[1, 0], [1, 1]]`` and ``F^{(n)}`` its n-fold Kronecker
power, with rows/columns in natural order (no bit-reversal).  Successive
cancellation (SC) decoding over the BEC is exact message passing on
erasures: a bit is either recovered or flagged ambiguous, never flipped.

Channel values are int8 with ``0``/``1`` for received bits and
``ERASED`` (-1) for erasures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

ERASED = np.int8(-1)

KERNEL = np.array([[1, 0], [1, 1]], dtype=np.uint8)


# ---------------------------------------------------------------------------
# channel polarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReliabilityTable:
    """Bhattacharyya parameters of the ``N`` synthetic channels.

    Attributes
    ----------
    n : int
        log2 of the block length.
    epsilon : float
        Design erasure probability of the underlying BEC.
    z : ndarray
        ``z[i]`` is the erasure probability of synthetic channel ``i + 1``
        (indices are 1-based throughout the public API).
    pi : ndarray
        Channel indices ``1..N`` sorted by ascending ``z`` (most reliable
        first); ties broken by ascending index.
    """

    n: int
    epsilon: float
    z: np.ndarray = field(repr=False)
    pi: np.ndarray = field(repr=False)

    @property
    def block_length(self) -> int:
        return 1 << self.n


def bhattacharyya(n: int, epsilon: float) -> ReliabilityTable:
    """Compute synthetic-channel erasure probabilities for a BEC.

    Starting from ``z = epsilon`` the recursion for each polarization
    level maps ``z`` to the pair ``(2z - z**2, z**2)`` (the degraded and
    upgraded splits).  Exact for the BEC, no approximation involved.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    z = np.array([epsilon], dtype=np.float64)
    for _ in range(n):
        worse = 2.0 * z - z * z
        better = z * z
        z = np.stack([worse, better], axis=1).reshape(-1)
    order = np.argsort(z, kind="stable")
    pi = (order + 1).astype(np.int64)
    return ReliabilityTable(n=n, epsilon=float(epsilon), z=z, pi=pi)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply ``x = u @ F^{(n)}`` along the last axis.

    Works on any leading batch shape; the last axis length must be a
    power of two.  Runs the in-place butterfly, N log N bit operations.
    """
    u = np.asarray(u, dtype=np.uint8)
    size = u.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    x = np.ascontiguousarray(u).copy()
    span = size // 2
    while span:
        v = x.reshape(x.shape[:-1] + (size // (2 * span), 2, span))
        v[..., 0, :] ^= v[..., 1, :]
        span //= 2
    return x


def kernel_power(n: int) -> np.ndarray:
    """Dense ``F^{(n)}`` as a (N, N) uint8 array (reference oracle; O(N^2))."""
    return reduce(lambda acc, _: np.kron(acc, KERNEL), range(n), np.array([[1]], dtype=np.uint8))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def bec_transmit(x: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Send codeword bits through a BEC(epsilon); erased positions become -1."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    x = np.asarray(x, dtype=np.int8)
    if epsilon == 0.0:
        return x.copy()
    mask = rng.random(x.shape) < epsilon
    return np.where(mask, ERASED, x).astype(np.int8)


# ---------------------------------------------------------------------------
# frozen-set bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenPlan:
    """Partition of positions ``1..N`` into information and frozen sets.

    Attributes
    ----------
    n : int
        log2 of the block length.
    info_indices : ndarray
        Ascending 1-based information positions (length K).
    frozen_indices : ndarray
        Ascending 1-based frozen positions (length N - K).
    frozen_values : ndarray
        Default bit values placed at the frozen positions.
    """

    n: int
    info_indices: np.ndarray = field(repr=False)
    frozen_indices: np.ndarray = field(repr=False)
    frozen_values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        size = 1 << self.n
        info = np.asarray(self.info_indices, dtype=np.int64)
        frozen = np.asarray(self.frozen_indices, dtype=np.int64)
        vals = np.asarray(self.frozen_values, dtype=np.uint8)
        object.__setattr__(self, "info_indices", info)
        object.__setattr__(self, "frozen_indices", frozen)
        object.__setattr__(self, "frozen_values", vals)
        if info.size + frozen.size != size:
            raise ValueError("information and frozen sets must partition 1..N")
        if info.size and (np.any(np.diff(info) <= 0) or info.min() < 1 or info.max() > size):
            raise ValueError("info_indices must be strictly ascending within 1..N")
        if frozen.size and (np.any(np.diff(frozen) <= 0) or frozen.min() < 1 or frozen.max() > size):
            raise ValueError("frozen_indices must be strictly ascending within 1..N")
        merged = np.concatenate([info, frozen])
        if np.unique(merged).size != size:
            raise ValueError("information and frozen sets overlap")
        if vals.shape != (frozen.size,):
            raise ValueError("frozen_values length must match the frozen set")
        if vals.size and vals.max() > 1:
            raise ValueError("frozen_values must be bits")

    @classmethod
    def from_info_set(
        cls, n: int, info_indices: np.ndarray, frozen_values: np.ndarray | None = None
    ) -> "FrozenPlan":
        size = 1 << n
        info = np.asarray(info_indices, dtype=np.int64)
        mask = np.ones(size + 1, dtype=bool)
        mask[0] = False
        mask[info] = False
        frozen = np.nonzero(mask)[0]
        if frozen_values is None:
            frozen_values = np.zeros(frozen.size, dtype=np.uint8)
        return cls(n=n, info_indices=info, frozen_indices=frozen, frozen_values=frozen_values)

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def num_info(self) -> int:
        return int(self.info_indices.size)

    @property
    def info0(self) -> np.ndarray:
        """0-based information positions."""
        return self.info_indices - 1

    @property
    def frozen0(self) -> np.ndarray:
        """0-based frozen positions."""
        return self.frozen_indices - 1


def top_indices(table: ReliabilityTable, k: int) -> np.ndarray:
    """The ``k`` most reliable channel indices (1-based, ascending)."""
    if not 0 <= k <= table.block_length:
        raise ValueError("k out of range")
    return np.sort(table.pi[:k])


# ---------------------------------------------------------------------------
# successive cancellation decoding
# ---------------------------------------------------------------------------

def _sc_recurse(
    y: np.ndarray,
    offset: int,
    frozen_mask: np.ndarray,
    leaf_vals: np.ndarray,
    u_out: np.ndarray,
    ambiguous: np.ndarray,
) -> np.ndarray:
    """Decode one subtree; returns the re-encoded codeword estimate.

    ``y`` is (batch, span) int8 with -1 marking erasures.  ``leaf_vals``
    carries frozen bit values at frozen positions (batch, N).  ``u_out``
    and ``ambiguous`` are filled in place.
    """
    span = y.shape[1]
    if span == 1:
        if frozen_mask[offset]:
            u = leaf_vals[:, offset]
        else:
            seen = y[:, 0]
            miss = seen < 0
            np.logical_or(ambiguous, miss, out=ambiguous)
            u = np.where(miss, 0, seen).astype(np.int8)
        u_out[:, offset] = u
        return u.astype(np.int8)[:, None]

    half = span // 2
    ya, yb = y[:, :half], y[:, half:]
    both = (ya >= 0) & (yb >= 0)
    # check-node step: XOR observable only when both halves are present
    za = np.where(both, ya ^ yb, ERASED).astype(np.int8)
    xa = _sc_recurse(za, offset, frozen_mask, leaf_vals, u_out, ambiguous)
    # variable-node step: yb directly, else propagate ya corrected by xa
    zb = np.where(yb >= 0, yb, np.where(ya >= 0, ya ^ xa, ERASED)).astype(np.int8)
    xb = _sc_recurse(zb, offset + half, frozen_mask, leaf_vals, u_out, ambiguous)
    return np.concatenate([xa ^ xb, xb], axis=1)


def sc_decode_batch(
    y: np.ndarray,
    plan: FrozenPlan,
    frozen_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of BEC outputs.

    Parameters
    ----------
    y : ndarray
        (batch, N) int8 channel output, -1 for erasures.
    plan : FrozenPlan
    frozen_values : ndarray, optional
        (batch, N - K) per-block frozen bits; defaults to the plan's
        fixed values broadcast over the batch.

    Returns
    -------
    (info, ambiguous)
        ``info`` is (batch, K) uint8 — estimated information bits in
        ascending position order; ambiguous bits are reported as 0.
        ``ambiguous`` is (batch,) bool, True when any information bit
        could not be resolved from the unerased positions.
    """
    y = np.asarray(y, dtype=np.int8)
    if y.ndim != 2 or y.shape[1] != plan.block_length:
        raise ValueError(f"y must be (batch, {plan.block_length})")
    batch = y.shape[0]
    size = plan.block_length

    frozen_mask = np.zeros(size, dtype=bool)
    frozen_mask[plan.frozen0] = True
    leaf_vals = np.zeros((batch, size), dtype=np.int8)
    if frozen_values is None:
        leaf_vals[:, plan.frozen0] = plan.frozen_values.astype(np.int8)
    else:
        frozen_values = np.asarray(frozen_values, dtype=np.int8)
        if frozen_values.shape != (batch, plan.frozen0.size):
            raise ValueError("frozen_values must be (batch, N - K)")
        leaf_vals[:, plan.frozen0] = frozen_values

    u_out = np.zeros((batch, size), dtype=np.int8)
    ambiguous = np.zeros(batch, dtype=bool)
    _sc_recurse(y, 0, frozen_mask, leaf_vals, u_out, ambiguous)
    info = u_out[:, plan.info0].astype(np.uint8)
    return info, ambiguous


def sc_decode(
    y: np.ndarray,
    plan: FrozenPlan,
    frozen_values: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """Single-block convenience wrapper around :func:`sc_decode_batch`."""
    y = np.asarray(y, dtype=np.int8)
    fv = None if frozen_values is None else np.asarray(frozen_values, dtype=np.int8)[None, :]
    info, ambiguous = sc_decode_batch(y[None, :], plan, fv)
    return info[0], bool(ambiguous[0])


def exhaustive_ambiguity(plan: FrozenPlan, epsilon: float) -> float:
    """Exact probability that SC decoding is ambiguous, by enumerating
    all 2**N erasure patterns (ambiguity depends only on the pattern,
    not on transmitted values).  Intended for small N.
    """
    size = plan.block_length
    if size > 20:
        raise ValueError("exhaustive enumeration needs 2**N patterns; N must be <= 20")
    patterns = np.arange(1 << size, dtype=np.int64)
    bits = (patterns[:, None] >> np.arange(size)) & 1  # 1 = erased
    y = np.where(bits.astype(bool), ERASED, np.int8(0)).astype(np.int8)
    _, ambiguous = sc_decode_batch(y, plan)
    weights = bits.sum(axis=1)
    p = (epsilon ** weights) * ((1.0 - epsilon) ** (size - weights))
    return float(p[ambiguous].sum())

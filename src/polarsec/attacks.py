"""Chosen-plaintext attack harness at toy scale.

The attack targets the one-block relation ``C = M G' + e P`` where
``G' = S G_A P`` is the effective encryption matrix and ``e`` ranges
over the 2^(N-K) perturbation vectors.  Differencing two encryptions of
the same plaintext cancels ``M G'`` and exposes ``(e_j + e_k) P``;
differencing encryptions of ``M`` and ``M + u_i`` exposes row ``g'_i``
up to a member of that difference space.  With N - K small enough to
enumerate, candidate rows are pruned against fresh oracle queries and
the assembled matrix is verified on held-out pairs.

A free-running syndrome register never emits the zero syndrome, so the
observed perturbation set excludes the zero word; that asymmetry is what
lets verification isolate the true ``G'`` exactly.  Against an oracle
drawing syndromes uniformly (zero included) every coset representative
explains the observations equally well and the candidate set cannot be
reduced — the harness reports that outcome honestly instead of guessing.

Everything here is deliberately restricted to toy parameters: the work
factor grows as 2^(N-K) per row, which is the point being demonstrated.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cipher import CipherContext
from .gf2 import GF2Matrix, pack_rows, rref, unpack_rows
from .lfsr import taps_for_degree
from .rng import derive_rng

DEFAULT_MAX_GAP = 12
DEFAULT_VERIFY_PAIRS = 100


class AttackInfeasibleError(RuntimeError):
    """Parameters outside the toy regime; carries the work-factor exponent."""

    def __init__(self, message: str, log2_work_factor: float):
        super().__init__(message)
        self.log2_work_factor = log2_work_factor


class PartialErrorSpaceWarning(UserWarning):
    """Query budget ran out before the error space saturated."""


# ---------------------------------------------------------------------------
# bit/word helpers
# ---------------------------------------------------------------------------

def pack_word(bits: np.ndarray) -> int:
    """Bit vector -> integer (bit i of the word is position i)."""
    return int.from_bytes(
        np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes(), "little"
    )


def unpack_word(value: int, length: int) -> np.ndarray:
    """Integer -> bit vector of the given length."""
    return ((value >> np.arange(length, dtype=np.uint64)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

class EncryptionOracle:
    """Chosen-plaintext oracle hiding a cipher session.

    Modes
    -----
    ``"lfsr"``
        Free-running session: syndromes follow the key's LFSR stream
        (2^(N-K) - 1 distinct values, never zero).
    ``"uniform"``
        A fresh uniform syndrome per query, zero included (``rng``
        required) — the idealized re-randomizing oracle.
    ``"pinned"``
        One fixed syndrome for every query.

    The attacker side sees only ``encrypt`` plus the public dimensions;
    the query counter is monotone.
    """

    def __init__(
        self,
        ctx: CipherContext,
        mode: str = "lfsr",
        rng: np.random.Generator | None = None,
        pinned_syndrome: np.ndarray | None = None,
    ):
        if mode not in ("lfsr", "uniform", "pinned"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        if mode == "uniform" and rng is None:
            raise ValueError("uniform mode needs an rng")
        self._ctx = ctx
        self._rng = rng
        self.mode = mode
        self.queries = 0
        self.block_length = ctx.block_length
        self.num_info = ctx.num_info
        self.gap = ctx.block_length - ctx.num_info
        if mode == "pinned":
            if pinned_syndrome is None:
                pinned_syndrome = np.zeros(self.gap, dtype=np.uint8)
                pinned_syndrome[0] = 1
            self._pinned = np.asarray(pinned_syndrome, dtype=np.uint8)

    def encrypt(self, message: np.ndarray) -> np.ndarray:
        self.queries += 1
        if self.mode == "lfsr":
            return self._ctx.encrypt(message).bits
        if self.mode == "uniform":
            s = self._rng.integers(0, 2, size=self.gap, dtype=np.uint8)
            return self._ctx.encrypt_with_syndrome(message, s)
        return self._ctx.encrypt_with_syndrome(message, self._pinned)


# ---------------------------------------------------------------------------
# error-space collection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorSpace:
    """Distinct ciphertexts of one probe plaintext and the span of their
    differences.

    ``ciphertexts`` holds the observed ciphertext words, sorted; when the
    probe message is zero these are exactly the permuted perturbations
    ``e P``.  ``differences`` is the reduced echelon basis of the span of
    ``ciphertexts ^ ciphertexts[0]`` (which the pairwise differences also
    span): at most N - K packed words, leading bits descending, and empty
    for a pinned oracle.  :func:`span_members` enumerates the span.
    """

    differences: np.ndarray = field(repr=False)
    ciphertexts: np.ndarray = field(repr=False)
    queries_used: int = 0
    saturated: bool = False


def _reduced_basis(words) -> np.ndarray:
    """Reduced echelon basis of the span of ``words`` (Python ints): no
    leading bit of one basis word is set in another, so the basis of a
    span is unique."""
    basis: list[int] = []
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis = [min(b, b ^ w) for b in basis] + [w]
    return np.array(sorted(basis, reverse=True), dtype=np.uint64)


def span_members(basis: np.ndarray) -> np.ndarray:
    """All 2^r members of the span of ``r`` independent words, by
    doubling over the basis; zero comes first and only there."""
    span = np.zeros(1, dtype=np.uint64)
    for b in basis:
        span = np.concatenate([span, span ^ b])
    return span


def _in_sorted(sorted_words: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query word in the sorted, non-empty ``sorted_words``."""
    at = np.searchsorted(sorted_words, queries)
    return sorted_words[np.minimum(at, sorted_words.size - 1)] == queries


def collect_error_space(
    oracle: EncryptionOracle,
    message: np.ndarray,
    budget: int,
    window: int | None = None,
) -> ErrorSpace:
    """Re-encrypt ``message`` until the distinct-ciphertext set stops
    growing for a coupon-collector-scaled window (or the budget runs
    out, which raises :class:`PartialErrorSpaceWarning` and returns the
    partial space).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if oracle.block_length > 64:
        raise ValueError(f"N = {oracle.block_length} does not fit a 64-bit ciphertext word")
    n_e = 1 << oracle.gap
    if window is None:
        # expected full-collection time for n_e coupons, with a floor
        window = max(16, math.ceil(n_e * (math.log(n_e) + 0.5772)))
    seen: set[int] = set()
    queries = 0
    since_new = 0
    saturated = False
    while queries < budget:
        word = pack_word(oracle.encrypt(message))
        queries += 1
        if word in seen:
            since_new += 1
        else:
            seen.add(word)
            since_new = 0
        if len(seen) == n_e or since_new >= window:
            saturated = True
            break
    if not saturated:
        warnings.warn(
            f"budget {budget} exhausted with {len(seen)} distinct ciphertexts "
            f"(space size up to {n_e}); error space is incomplete",
            PartialErrorSpaceWarning,
            stacklevel=2,
        )
    words = sorted(seen)
    return ErrorSpace(
        differences=_reduced_basis(w ^ words[0] for w in words[1:]),
        ciphertexts=np.array(words, dtype=np.uint64),
        queries_used=queries,
        saturated=saturated,
    )


# ---------------------------------------------------------------------------
# the chosen-plaintext attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackResult:
    """Outcome of one attack run.

    ``candidate_error_space`` is the collected error space's basis
    (:attr:`ErrorSpace.differences`); when
    ``verified`` is true, ``recovered_gprime`` reproduced every held-out
    query up to a member of the observed perturbation set.
    ``candidates_examined`` counts candidate-row membership tests, the
    work measure used by the cost curve.
    """

    recovered_gprime: GF2Matrix | None
    queries_used: int
    word_length: int
    candidate_error_space: np.ndarray = field(repr=False)
    verified: bool = False
    candidates_examined: int = 0
    note: str = ""


def _failure(oracle: EncryptionOracle, space: ErrorSpace, examined: int, note: str) -> AttackResult:
    return AttackResult(
        recovered_gprime=None,
        queries_used=oracle.queries,
        word_length=oracle.block_length,
        candidate_error_space=space.differences,
        verified=False,
        candidates_examined=examined,
        note=note,
    )


def rn_attack(
    oracle: EncryptionOracle,
    collection_budget: int | None = None,
    verify_pairs: int = DEFAULT_VERIFY_PAIRS,
    verify_cap: int = 4096,
    enum_cap: int = 1 << 16,
    max_gap: int = DEFAULT_MAX_GAP,
    rng: np.random.Generator | None = None,
) -> AttackResult:
    """Recover the effective encryption matrix from a toy oracle.

    Stages: (1) collect the error space by re-encrypting the zero
    message; (2) for each unit vector u_i, difference encryptions of 0
    and u_i and expand by the nonzero members of the collected span
    into the candidate set for row i; (3) prune each candidate set with
    fresh singleton queries (a candidate survives only while
    ``C - candidate`` stays inside the observed perturbation set, not
    merely inside its span); (4) assemble the surviving
    product and verify every assembled matrix on held-out random
    messages, growing the sample until a unique survivor remains.

    Raises :class:`AttackInfeasibleError` when N - K exceeds
    ``max_gap``; returns an unverified result (with a reason) when the
    error space is incomplete or the candidate set cannot be reduced.
    """
    k = oracle.num_info
    gap = oracle.gap
    if gap > max_gap:
        wf = float(gap * k)
        raise AttackInfeasibleError(
            f"N - K = {gap} exceeds the toy limit {max_gap}; "
            f"work factor is Omega(2^((N-K)K)) = Omega(2^{gap * k})",
            log2_work_factor=wf,
        )
    if rng is None:
        rng = derive_rng(0, "rn-attack")
    n_e = 1 << gap
    if collection_budget is None:
        collection_budget = 8 * n_e + max(16, math.ceil(n_e * (math.log(n_e) + 0.5772))) + 64

    zero = np.zeros(k, dtype=np.uint8)
    space = collect_error_space(oracle, zero, collection_budget)
    examined = 0
    if not space.saturated:
        return _failure(oracle, space, examined, "error space incomplete within budget")
    observed = space.ciphertexts  # perturbations e*P, since the probe was M = 0

    # stage 2: candidate set per row from unit-vector differences
    differences = span_members(space.differences)[1:]
    candidates: list[np.ndarray] = []
    for i in range(k):
        unit = np.zeros(k, dtype=np.uint8)
        unit[i] = 1
        base = pack_word(oracle.encrypt(zero)) ^ pack_word(oracle.encrypt(unit))
        cand = np.uint64(base) ^ differences
        examined += cand.size
        candidates.append(cand)

    # stage 3: per-row pruning with singleton messages.  Every row gets
    # one full error-space cycle (2^gap - 1 queries): a shorter run could
    # miss prunable candidates, and a fixed schedule makes the measured
    # query count a function of the parameters rather than pruning luck.
    schedule = n_e - 1
    for i in range(k):
        unit = np.zeros(k, dtype=np.uint8)
        unit[i] = 1
        cand = candidates[i]
        for _ in range(schedule):
            if cand.size == 0:
                break
            word = np.uint64(pack_word(oracle.encrypt(unit)))
            keep = _in_sorted(observed, word ^ cand)
            examined += cand.size
            cand = cand[keep]
        if cand.size == 0:
            return _failure(
                oracle, space, examined,
                f"candidate set for row {i} emptied out (error space inconsistent)",
            )
        candidates[i] = cand

    total = math.prod(c.size for c in candidates)
    if total > enum_cap:
        return _failure(
            oracle, space, examined,
            f"{total} assembled candidates exceed the enumeration cap {enum_cap}",
        )

    # stage 4: assemble and verify on held-out random messages
    sizes = [c.size for c in candidates]  # every combination, the last row varying fastest
    survivors = np.stack([np.tile(np.repeat(c, math.prod(sizes[i + 1 :])), math.prod(sizes[:i]))
                          for i, c in enumerate(candidates)], axis=1)  # (total, K)
    checked = 0
    while checked < verify_cap and (survivors.shape[0] > 1 or checked < verify_pairs):
        msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        if not msg.any():
            continue
        word = np.uint64(pack_word(oracle.encrypt(msg)))
        supp = np.nonzero(msg)[0]
        vals = np.bitwise_xor.reduce(survivors[:, supp], axis=1) ^ word
        examined += survivors.shape[0]
        survivors = survivors[_in_sorted(observed, vals)]
        checked += 1
        if survivors.shape[0] == 0:
            return _failure(oracle, space, examined, "no assembled candidate verifies")
    if survivors.shape[0] != 1:
        return _failure(
            oracle, space, examined,
            f"{survivors.shape[0]} candidates still verify after {checked} held-out queries",
        )
    dense = np.stack([unpack_word(int(w), oracle.block_length) for w in survivors[0]])
    return AttackResult(
        recovered_gprime=GF2Matrix.from_dense(dense),
        queries_used=oracle.queries,
        word_length=oracle.block_length,
        candidate_error_space=space.differences,
        verified=True,
        candidates_examined=examined,
        note="",
    )


# ---------------------------------------------------------------------------
# decrypting with a recovered matrix
# ---------------------------------------------------------------------------

def attack_decrypt(
    matrix: GF2Matrix, error_basis: np.ndarray, ciphertext: np.ndarray
) -> list[np.ndarray]:
    """The message ``M`` with ``ciphertext = M*matrix + e`` for a nonzero
    ``e`` in the span of ``error_basis`` (packed words, as in
    :attr:`ErrorSpace.differences`), as a one-element list, or an empty
    list when there is none.  One :func:`~polarsec.gf2.rref` of the
    stacked system [matrix; basis | I]: the pivot bits of the ciphertext
    pick the reduced rows that sum to it, and their right halves give the
    coefficients.  Raises ``ValueError`` when the stacked rows are
    dependent.  The perturbation space and the row space of the true
    matrix intersect only in zero, so against a recovered matrix and
    saturated error space the decomposition is unique.
    """
    k, n = matrix.nrows, matrix.ncols
    errors = (np.asarray(error_basis, dtype=np.uint64)[:, None]
              >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    stacked = np.vstack([matrix.to_dense(), errors.astype(np.uint8)])
    m = stacked.shape[0]
    reduced, pivots = rref(pack_rows(np.hstack([stacked, np.eye(m, dtype=np.uint8)])), n)
    if pivots.size != m:
        raise ValueError("matrix rows and error basis must be linearly independent")
    ct = np.asarray(ciphertext, dtype=np.uint8)
    picked = np.bitwise_xor.reduce(reduced[ct[pivots].astype(bool)], axis=0)
    combo = unpack_rows(picked[None, :], n + m)[0]
    if np.array_equal(combo[:n], ct) and combo[n + k:].any():
        return [combo[n : n + k]]
    return []


# ---------------------------------------------------------------------------
# toy instances and the cost curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyInstance:
    """A small cipher instance with its ground truth exposed for tests."""

    n: int
    num_info: int
    taps: tuple[int, ...]
    info_indices: np.ndarray = field(repr=False)
    scrambler: GF2Matrix = field(repr=False)
    perm_dst: np.ndarray = field(repr=False)
    lfsr_state: np.ndarray = field(repr=False)
    true_matrix: GF2Matrix = field(repr=False)

    def context(self, start_block: int = 0) -> CipherContext:
        return CipherContext.from_components(
            self.n, self.info_indices, self.scrambler, self.perm_dst,
            self.taps, self.lfsr_state, start_block=start_block,
        )

    def oracle(
        self,
        mode: str = "lfsr",
        rng: np.random.Generator | None = None,
        pinned_syndrome: np.ndarray | None = None,
    ) -> EncryptionOracle:
        return EncryptionOracle(self.context(), mode=mode, rng=rng,
                                pinned_syndrome=pinned_syndrome)


def build_toy_instance(n: int, num_info: int, seed: int = 0) -> ToyInstance:
    """Random small instance: arbitrary information set, dense random
    nonsingular scrambler, arbitrary permutation.  (Block structure is a
    storage optimization, irrelevant to the attack mathematics.)
    """
    size = 1 << n
    if not 1 <= num_info < size:
        raise ValueError("need 1 <= K < N")
    gap = size - num_info
    rng = derive_rng(seed, f"toy-{n}-{num_info}")
    indices = np.sort(rng.choice(size, size=num_info, replace=False)) + 1
    while True:
        scrambler = GF2Matrix.from_dense(
            rng.integers(0, 2, size=(num_info, num_info), dtype=np.uint8)
        )
        if scrambler.is_nonsingular():
            break
    perm_dst = rng.permutation(size).astype(np.int64)
    state = rng.integers(0, 2, size=gap, dtype=np.uint8)
    if not state.any():
        state[0] = 1
    taps = taps_for_degree(gap)
    instance = ToyInstance(
        n=n,
        num_info=num_info,
        taps=taps,
        info_indices=indices,
        scrambler=scrambler,
        perm_dst=perm_dst,
        lfsr_state=state,
        true_matrix=CipherContext.from_components(
            n, indices, scrambler, perm_dst, taps, state
        ).encryption_matrix(),
    )
    return instance


@dataclass(frozen=True)
class CostPoint:
    """One measured point of the attack cost curve."""

    gap: int
    n: int
    num_info: int
    queries: int
    candidates_examined: int
    seconds: float
    recovered: bool


def _curve_shape(gap: int) -> int:
    """log2 block length for a cost-curve instance at the given gap."""
    n = 4
    while (1 << n) - gap < 1:
        n += 1
    return n


def attack_cost_curve(
    gaps: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    seed: int = 0,
    collection_budget: int | None = None,
) -> tuple[CostPoint, ...]:
    """Run the attack across increasing N - K and record measured cost.

    Instances share the same block length where possible so the trend
    isolates the error-space size 2^(N-K).
    """
    points = []
    for gap in gaps:
        n = _curve_shape(gap)
        instance = build_toy_instance(n, (1 << n) - gap, seed=seed + gap)
        oracle = instance.oracle(mode="lfsr")
        start = time.perf_counter()
        result = rn_attack(
            oracle,
            collection_budget=collection_budget,
            rng=derive_rng(seed + gap, "curve-verify"),
        )
        elapsed = time.perf_counter() - start
        points.append(
            CostPoint(
                gap=gap,
                n=n,
                num_info=(1 << n) - gap,
                queries=result.queries_used,
                candidates_examined=result.candidates_examined,
                seconds=elapsed,
                recovered=result.verified
                and result.recovered_gprime == instance.true_matrix,
            )
        )
    return tuple(points)

"""Attacks on the cipher: a linear known-plaintext attack at any
parameters, and a chosen-plaintext harness at toy scale.

Decryption is one fixed linear map whatever the syndrome: M is the first
K coordinates of C E^-1 (see :mod:`.cipher`).  :func:`linear_kpa` reads
that map off known pairs whose ciphertexts span GF(2)^N, about N of
them, with one elimination; it breaks the reference parameters.

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

The chosen-plaintext harness is deliberately restricted to toy
parameters: its work factor grows as 2^(N-K) per row, which is the point
being demonstrated.
"""
from __future__ import annotations

import math
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cipher import CipherContext
from .gf2 import GF2Matrix, pack_rows, rref, unpack_rows
from .lfsr import Lfsr, taps_for_degree
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
# oracle
# ---------------------------------------------------------------------------

# Most answers one batch computes, whatever the attacker asks for: bounds
# the memory of a call, and the answers computed and then not read.
_QUERY_CHUNK = 4096
# Most (query, candidate) cells one pruning step tests at once.
_PRUNE_CELLS = 1 << 14


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
        One fixed syndrome, e_0 = (1, 0, ..., 0), for every query.

    The attacker side sees only :meth:`query` (and its one-block form
    :meth:`encrypt`) plus the public dimensions; the query counter is
    monotone and counts exactly the answers read.
    """

    def __init__(
        self,
        ctx: CipherContext,
        mode: str = "lfsr",
        rng: np.random.Generator | None = None,
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
        self._pinned = np.eye(1, self.gap, dtype=np.uint8)[0]  # e_0, pinned mode's syndrome

    def query(
        self, messages: np.ndarray, take: Callable[[np.ndarray], int] | None = None
    ) -> np.ndarray:
        """Ciphertexts of a (b, K) batch as packed words (bit i is position
        i), from one syndrome draw and one product.

        ``take(words)`` says how many leading answers the attacker reads
        (all b by default).  Only those count as queries, and the syndrome
        stream ends where that many one-block queries would leave it.
        """
        if self.block_length > 64:
            raise ValueError(f"N = {self.block_length} does not fit a 64-bit ciphertext word")
        messages = np.asarray(messages, dtype=np.uint8)
        b = len(messages)
        if self.mode == "lfsr":  # answered from a copy, then the session skips what was read
            syndromes = Lfsr(self._ctx.lfsr.taps, self._ctx.lfsr.state).syndromes(b)
        elif self.mode == "uniform":
            drawn_from = self._rng.bit_generator.state
            syndromes = self._draw(b)
        else:
            syndromes = np.broadcast_to(self._pinned, (b, self.gap))
        words = pack_rows(self._ctx.encrypt_blocks_with_syndromes(messages, syndromes))[:, 0]
        used = b if take is None else take(words)
        self.queries += used
        if self.mode == "lfsr":
            self._ctx.lfsr.skip(used)
            self._ctx.blocks_processed += used
        elif self.mode == "uniform" and used < b:
            self._rng.bit_generator.state = drawn_from
            self._draw(used)
        return words[:used]

    def _draw(self, count: int) -> np.ndarray:
        """``count`` uniform syndromes, one rng call each, as one-block
        queries draw them."""
        out = np.empty((count, self.gap), dtype=np.uint8)
        for row in out:
            row[:] = self._rng.integers(0, 2, size=self.gap, dtype=np.uint8)
        return out

    def encrypt(self, message: np.ndarray) -> np.ndarray:
        """One query, as ciphertext bits: a one-row :meth:`query`."""
        word = self.query(np.asarray(message, dtype=np.uint8)[None])
        return unpack_rows(word[:, None], self.block_length)[0]


# ---------------------------------------------------------------------------
# error-space collection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorSpace:
    """Distinct ciphertexts of one probe plaintext and the span of their
    differences.

    ``ciphertexts`` holds the observed ciphertext words, sorted; when the
    probe message is zero these are exactly the permuted perturbations
    ``e P``.  ``differences`` is the basis of the span of ``ciphertexts ^
    ciphertexts[0]`` (which the pairwise differences also span) in the
    reduced echelon form of :func:`~polarsec.gf2.rref`: at most N - K
    packed words, pivot bits ascending, each pivot bit set in its own
    word only; empty for a pinned oracle.  :func:`span_members`
    enumerates the span.
    """

    differences: np.ndarray = field(repr=False)
    ciphertexts: np.ndarray = field(repr=False)
    queries_used: int = 0
    saturated: bool = False


def span_members(basis: np.ndarray) -> np.ndarray:
    """All 2^r members of the span of ``r`` independent words, by
    doubling over the basis; zero comes first and only there.

    Member ``c`` is the XOR of ``basis[i]`` over the set bits ``i`` of
    ``c``, so members add as their indices do: ``m[a] ^ m[b] == m[a ^
    b]``.  For a basis from :func:`~polarsec.gf2.rref`, bit ``i`` of a
    member's index is the member's bit at pivot ``i``.
    """
    span = np.zeros(1, dtype=np.uint64)
    for b in basis:
        span = np.concatenate([span, span ^ b])
    return span


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

    The queries go in batches that double with the count so far, and
    each batch is charged up to the query at which a stop rule fires.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n_e = 1 << oracle.gap
    if window is None:
        # expected full-collection time for n_e coupons, with a floor
        window = max(16, math.ceil(n_e * (math.log(n_e) + 0.5772)))
    seen = np.zeros(0, dtype=np.uint64)  # distinct words, sorted
    queries = 0
    since_new = 0
    saturated = False

    def take(words: np.ndarray) -> int:
        """The queries read, through the first one at which a stop rule
        fires, with the collection state they leave."""
        nonlocal seen, since_new, saturated
        _, first = np.unique(np.concatenate([seen, words]), return_index=True)
        fresh = np.zeros(words.size, dtype=bool)
        fresh[first[first >= seen.size] - seen.size] = True
        at = np.arange(words.size)
        since = at - np.maximum.accumulate(np.where(fresh, at, -1 - since_new))
        stop = (seen.size + np.cumsum(fresh) == n_e) | (since >= window)
        used = int(stop.argmax()) + 1 if stop.any() else words.size
        seen = np.union1d(seen, words[:used])
        since_new, saturated = int(since[used - 1]), bool(stop.any())
        return used

    message = np.asarray(message, dtype=np.uint8)
    while queries < budget and not saturated:
        chunk = min(budget - queries, window - since_new, max(n_e, queries), _QUERY_CHUNK)
        queries += oracle.query(np.broadcast_to(message, (chunk, message.size)), take).size
    if not saturated:
        warnings.warn(
            f"budget {budget} exhausted with {seen.size} distinct ciphertexts "
            f"(space size up to {n_e}); error space is incomplete",
            PartialErrorSpaceWarning,
            stacklevel=2,
        )
    reduced, pivots = rref((seen[1:] ^ seen[0])[:, None], oracle.block_length)
    return ErrorSpace(
        differences=reduced[: pivots.size, 0],
        ciphertexts=seen,
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
    Stages 1 to 3 each put their queries as batches to
    :meth:`EncryptionOracle.query`, read up to the query at which the
    one-query loop would stop, so the counts are the loop's.

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
    # The observed perturbations e*P (the probe was M = 0) lie in o0 + span.
    # A candidate row is base ^ members[d], kept as its coordinate d, and
    # "word ^ candidate is observed" is observed[coord(word ^ base ^ o0) ^ d].
    members = span_members(space.differences)
    pivots = rref(space.differences[:, None], oracle.block_length)[1].astype(np.uint64)

    def coordinates(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each word's coordinates (its pivot bits), and whether it is in the span."""
        coord = np.zeros(words.size, dtype=np.intp)
        for i, pivot in enumerate(pivots):
            coord |= ((words >> pivot) & np.uint64(1)).astype(np.intp) << i
        return coord, members[coord] == words

    o0 = space.ciphertexts[0]
    observed = np.zeros(members.size, dtype=bool)
    observed[coordinates(space.ciphertexts ^ o0)[0]] = True

    # stage 2: one batch of (0, u_i) pairs; row i is base_i up to a nonzero
    # member of the collected span
    units = np.eye(k, dtype=np.uint8)
    pairs = np.zeros((2 * k, k), dtype=np.uint8)
    pairs[1::2] = units
    words = oracle.query(pairs)
    bases = words[0::2] ^ words[1::2]
    examined += k * (members.size - 1)

    # stage 3: per-row pruning with singleton messages.  Every row gets
    # one full error-space cycle (2^gap - 1 queries): a shorter run could
    # miss prunable candidates, and a fixed schedule makes the measured
    # query count a function of the parameters rather than pruning luck.
    # The cycle is one batch, read up to the query that empties the set.
    def prune(words: np.ndarray) -> int:
        """Prune ``cand`` query by query; the queries read."""
        nonlocal cand, examined
        coord, inside = coordinates(words ^ base ^ o0)
        read = 0
        while read < words.size and cand.size:
            rows = slice(read, read + max(1, _PRUNE_CELLS // cand.size))
            alive = np.logical_and.accumulate(
                inside[rows, None] & observed[coord[rows, None] ^ cand], axis=0)
            sizes = alive.sum(axis=1)
            steps = sizes.size if sizes[-1] else int(sizes.argmin()) + 1
            examined += cand.size + int(sizes[: steps - 1].sum())
            cand = cand[alive[steps - 1]]
            read += steps
        return read

    candidates: list[np.ndarray] = []
    for i, (base, unit) in enumerate(zip(bases, units)):
        cand = np.arange(1, members.size)
        if cand.size:
            oracle.query(np.broadcast_to(unit, (n_e - 1, k)), prune)
        if cand.size == 0:
            return _failure(
                oracle, space, examined,
                f"candidate set for row {i} emptied out (error space inconsistent)",
            )
        candidates.append(cand)

    total = math.prod(c.size for c in candidates)
    if total > enum_cap:
        return _failure(
            oracle, space, examined,
            f"{total} assembled candidates exceed the enumeration cap {enum_cap}",
        )

    # stage 4: assemble and verify on held-out random messages, one at a time
    sizes = [c.size for c in candidates]  # every combination, the last row varying fastest
    survivors = np.stack([np.tile(np.repeat(c, math.prod(sizes[i + 1 :])), math.prod(sizes[:i]))
                          for i, c in enumerate(candidates)], axis=1)  # (total, K) coordinates
    checked = 0
    while checked < verify_cap and (survivors.shape[0] > 1 or checked < verify_pairs):
        msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        if not msg.any():
            continue
        supp = msg.astype(bool)
        word = oracle.query(msg[None])
        coord, inside = coordinates(word ^ np.bitwise_xor.reduce(bases[supp]) ^ o0)
        examined += survivors.shape[0]
        sums = np.bitwise_xor.reduce(survivors[:, supp], axis=1)
        survivors = survivors[inside[0] & observed[coord[0] ^ sums]]
        checked += 1
        if survivors.shape[0] == 0:
            return _failure(oracle, space, examined, "no assembled candidate verifies")
    if survivors.shape[0] != 1:
        return _failure(
            oracle, space, examined,
            f"{survivors.shape[0]} candidates still verify after {checked} held-out queries",
        )
    rows = bases ^ members[survivors[0]]
    return AttackResult(
        recovered_gprime=GF2Matrix(k, oracle.block_length, rows[:, None]),
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
    errors = unpack_rows(np.asarray(error_basis, dtype=np.uint64)[:, None], n)
    stacked = np.vstack([matrix.to_dense(), errors])
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
# known plaintext
# ---------------------------------------------------------------------------

def linear_kpa(messages: np.ndarray, ciphertexts: np.ndarray) -> GF2Matrix:
    """The (N, K) decryption map D with ``M = C D`` for every known pair,
    the first K columns of E^-1.  One :func:`~polarsec.gf2.rref` of the
    stacked pairs [C | M] reduces the C half to the identity, and the M
    half of its first N rows is D.

    Raises ``ValueError`` when the ciphertexts span less than GF(2)^N, or
    when no linear map takes every ciphertext to its message.
    """
    messages = np.asarray(messages, dtype=np.uint8)
    ciphertexts = np.asarray(ciphertexts, dtype=np.uint8)
    if messages.ndim != 2 or ciphertexts.ndim != 2 or len(messages) != len(ciphertexts):
        raise ValueError("need (pairs, K) messages and (pairs, N) ciphertexts")
    size, k = ciphertexts.shape[1], messages.shape[1]
    reduced, pivots = rref(pack_rows(np.hstack([ciphertexts, messages])), size)
    if pivots.size < size:
        raise ValueError(f"the ciphertexts span rank {pivots.size} < N = {size}")
    if reduced[size:].any():  # a zero ciphertext combination with a nonzero message
        raise ValueError("no linear map takes every ciphertext to its message")
    return GF2Matrix.from_dense(unpack_rows(reduced[:size], size + k)[:, size:])


# ---------------------------------------------------------------------------
# toy instances and the cost curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ToyInstance:
    """A small cipher key without the block structure, its ground truth
    exposed for tests: :class:`~.cipher.CipherContext` takes it as it
    takes a :class:`~.keys.SecretKey`."""

    num_info: int
    taps: tuple[int, ...]
    info_indices: np.ndarray = field(repr=False)
    scrambler: GF2Matrix = field(repr=False)
    perm_dst: np.ndarray = field(repr=False)
    lfsr_state: np.ndarray = field(repr=False)

    @cached_property
    def scrambler_inverse(self) -> GF2Matrix:
        return self.scrambler.inverse()

    @cached_property
    def true_matrix(self) -> GF2Matrix:
        """G' = S G_A P, the matrix the attack must recover."""
        return self.context().encryption_matrix()

    def context(self, start_block: int = 0) -> CipherContext:
        return CipherContext(self, start_block)

    def oracle(self, mode: str = "lfsr",
               rng: np.random.Generator | None = None) -> EncryptionOracle:
        return EncryptionOracle(self.context(), mode=mode, rng=rng)


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
    return ToyInstance(
        num_info=num_info,
        taps=taps_for_degree(gap),
        info_indices=indices,
        scrambler=scrambler,
        perm_dst=perm_dst,
        lfsr_state=state,
    )


@dataclass(frozen=True)
class CostPoint:
    """One measured point of the attack cost curve; ``rank`` is the
    dimension of the collected error space."""

    gap: int
    n: int
    num_info: int
    queries: int
    candidates_examined: int
    seconds: float
    recovered: bool
    rank: int


def _curve_shape(gap: int) -> int:
    """log2 block length for a cost-curve instance at the given gap."""
    n = 4
    while (1 << n) - gap < 1:
        n += 1
    return n


def attack_cost_curve(
    gaps: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    seed: int = 0,
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
        result = rn_attack(oracle, rng=derive_rng(seed + gap, "curve-verify"))
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
                rank=result.candidate_error_space.size,
            )
        )
    return tuple(points)

"""Closed-form accounting and experiment reports.

Implements the rate threshold and pool-size rule, the two union bounds
on block error probability, key-size and complexity accounting, security
work factors in log2, perturbation-weight statistics, end-to-end channel
simulation, and the side-by-side reproduction of the three reference
tables (computed value vs printed value vs relative deviation).

All "printed" constants are the published reference figures this package
is checked against; deviations are reported, never hidden.  Two known
internal inconsistencies of the published figures are flagged explicitly
(see ``reproduce_tables``): the K = 716 vs 717 row at rate 0.7, and the
two irreconcilable Struik-Tilburg work-factor figures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cipher import CipherContext
from .keys import KeyParams, SecretKey
from .polar import ReliabilityTable, bec_transmit, polar_transform

#: Scaling exponent for the binary erasure channel (rate/block-length
#: tradeoff constant; treated as an input, not derived here).
SCALING_EXPONENT_BEC = 3.6261

# Blocks per encrypt/decrypt call of simulate_round_trip.
_SIM_BATCH = 8192


# ---------------------------------------------------------------------------
# rate threshold and pool size
# ---------------------------------------------------------------------------

def rate_threshold(block_length: int, capacity: float, mu: float = SCALING_EXPONENT_BEC) -> float:
    """Largest admissible rate ``I(W) - N**(-1/mu)`` at block length N."""
    if block_length < 2:
        raise ValueError("block length must be >= 2")
    if not 0.0 <= capacity <= 1.0:
        raise ValueError("capacity must lie in [0, 1]")
    return capacity - block_length ** (-1.0 / mu)


def index_pool_size(block_length: int, capacity: float, mu: float = SCALING_EXPONENT_BEC) -> int:
    """Pool size ``floor(N * R_0)`` with the threshold rounded down to
    two decimals first (0.8022 -> 0.80 -> 819 at the reference point).
    """
    threshold = rate_threshold(block_length, capacity, mu)
    r0 = math.floor(threshold * 100 + 1e-9) / 100
    return math.floor(block_length * r0 + 1e-9)


def default_pool(n: int, epsilon: float, mu: float = SCALING_EXPONENT_BEC) -> int:
    """Pool size for a BEC design point (capacity = 1 - epsilon)."""
    return index_pool_size(1 << n, 1.0 - epsilon, mu)


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBoundReport:
    """Union bounds on SC block error probability.

    ``p_e1`` sums the K smallest synthetic-channel erasure probabilities
    (best-case index selection, pool-independent); ``p_e2`` sums ranks
    pool-K+1 .. pool of the ascending ordering (worst selection within
    the pool), defined only for K <= pool and NaN otherwise.
    """

    rate: float
    k: int
    p_e1: float
    p_e2: float


def error_bounds(table: ReliabilityTable, k: int, pool: int) -> ErrorBoundReport:
    if not 0 < k <= table.block_length:
        raise ValueError("need 0 < K <= N")
    if not 0 < pool <= table.block_length:
        raise ValueError("need 0 < pool <= N")
    zs = np.sort(table.z)  # ascending, so partial sums accumulate small-to-large
    p_e1 = float(zs[:k].sum())
    p_e2 = float(zs[pool - k : pool].sum()) if k <= pool else math.nan
    return ErrorBoundReport(rate=k / table.block_length, k=k, p_e1=p_e1, p_e2=p_e2)


# ---------------------------------------------------------------------------
# key-size accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeySizeReport:
    """Key-length accounting, evaluated exactly as printed in the
    reference figures: 11 bits per stored index, 8 bits per compressed
    position/offset, and no explicit bits charged for the CHR vector
    (its width is never specified; the printed closed form omits it).
    The on-disk format is wider — this report is accounting, not I/O.
    """

    bits_indices: int
    bits_seed: int
    bits_s: int
    bits_p: int
    total_actual: int
    bits_sc: int
    bits_pc: int
    bits_chr: int
    total_compressed: int
    reduction_percent: float


def key_size_report(params: KeyParams) -> KeySizeReport:
    k0, n0, l, mu = params.k0, params.n0, params.l, params.mu_s
    bits_indices = 11 * params.num_info
    bits_seed = params.num_frozen
    bits_s = k0 * k0 * l  # first row of each circulant block
    bits_p = n0 * l
    total_actual = bits_indices + bits_seed + bits_s + bits_p
    bits_sc = 8 * mu * k0 * k0
    bits_pc = 8 * n0
    bits_chr = 0
    total_compressed = bits_indices + bits_seed + bits_sc + bits_pc + bits_chr
    reduction = 100.0 * (1.0 - total_compressed / total_actual)
    return KeySizeReport(
        bits_indices=bits_indices,
        bits_seed=bits_seed,
        bits_s=bits_s,
        bits_p=bits_p,
        total_actual=total_actual,
        bits_sc=bits_sc,
        bits_pc=bits_pc,
        bits_chr=bits_chr,
        total_compressed=total_compressed,
        reduction_percent=reduction,
    )


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    """Per-block operation-count bounds.

    Encryption: message-times-G' bound NK plus N for the permuted
    perturbation; decryption: N to unpermute, N*log2(N) for SC decoding,
    K^2 to unscramble.  These are the accounting formulas, reported as
    stated.  The implementation encrypts a block with one product by the
    dense N x N map E.  It decrypts a batch with no erasure with one
    product by E^-1, and a batch with any erasure by SC on every block,
    then one product by S^-1 (see :mod:`.cipher`).
    """

    mul_message_gprime: int
    mul_perturb_perm: int
    mul_receive_perm: int
    sc_decode: int
    mul_unscramble: int


def complexity_report(params: KeyParams) -> ComplexityReport:
    n_len = params.block_length
    k = params.num_info
    return ComplexityReport(
        mul_message_gprime=n_len * k,
        mul_perturb_perm=n_len,
        mul_receive_perm=n_len,
        sc_decode=n_len * params.n,
        mul_unscramble=k * k,
    )


# ---------------------------------------------------------------------------
# security accounting
# ---------------------------------------------------------------------------

def log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2.0)


def log2_binomial(n: int, k: int) -> float:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2.0)


@dataclass(frozen=True)
class SecurityReport:
    """Work factors and keyspace sizes, all as base-2 logarithms.

    ``log2_n_c``: equivalent code selections C(pool, K).
    ``log2_n_e``: perturbation vectors 2^(N-K) (equals syndrome count).
    ``log2_n_s_lower``: scrambler count lower-bound exponent K^2 - K.
    ``log2_n_p``: permutations (l!)^n0 counted without the block-
    structure restriction, as printed.
    ``log2_wf_rn``: chosen-plaintext attack work factor exponent (N-K)K.
    ``log2_st_ciphertexts``: ciphertexts K * N_e * log2(N_e) for the
    graph-automorphism attack; ``log2_st_operations``: its operation
    count K * N * |Aut|^K with |Aut| taken to be 2^(N-K).
    """

    log2_n_c: float
    log2_n_e: float
    log2_n_s_lower: float
    log2_n_p: float
    log2_wf_rn: float
    log2_st_ciphertexts: float
    log2_st_operations: float


def security_report(params: KeyParams) -> SecurityReport:
    k = params.num_info
    gap = params.num_frozen
    l = params.l
    return SecurityReport(
        log2_n_c=log2_binomial(params.pool, k),
        log2_n_e=float(gap),
        log2_n_s_lower=float(k * k - k),
        log2_n_p=params.n0 * log2_factorial(l),
        log2_wf_rn=float(gap * k),
        log2_st_ciphertexts=math.log2(k) + gap + math.log2(gap),
        log2_st_operations=math.log2(k) + params.n + float(k) * gap,
    )


#: Printed Struik-Tilburg ciphertext figure (log2) that the computed
#: K*N_e*log2(N_e) value disagrees with; both are always reported.
ST_PRINTED_LOG2 = 271.0


# ---------------------------------------------------------------------------
# perturbation weight statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightStats:
    """Hamming-weight distribution of perturbation vectors s -> s*G_Ac."""

    samples: int
    mean: float
    min: int
    max: int
    histogram: np.ndarray = field(repr=False)


def perturbation_weight_stats(
    ctx: CipherContext,
    samples: int | None = None,
    rng: np.random.Generator | None = None,
    exhaustive: bool = False,
) -> WeightStats:
    """Weight statistics of the additive perturbation.

    Either draws ``samples`` uniform syndromes (``rng`` required), or
    with ``exhaustive=True`` enumerates all 2^(N-K) syndromes (small
    instances only).  The histogram makes explicit that no weight
    constraint is imposed: weights range freely, and the zero syndrome
    yields weight zero.
    """
    gap = ctx.block_length - ctx.num_info
    if exhaustive:
        if gap > 20:
            raise ValueError("exhaustive enumeration limited to N - K <= 20")
        count = 1 << gap
        syndromes = ((np.arange(count)[:, None] >> np.arange(gap)) & 1).astype(np.uint8)
    else:
        if samples is None or samples < 1:
            raise ValueError("samples must be >= 1")
        if rng is None:
            raise ValueError("rng is required for sampled statistics")
        syndromes = rng.integers(0, 2, size=(samples, gap), dtype=np.uint8)
    u = np.zeros((syndromes.shape[0], ctx.block_length), dtype=np.uint8)
    u[:, ctx.plan.frozen0] = syndromes
    weights = polar_transform(u).sum(axis=1)
    hist = np.bincount(weights, minlength=ctx.block_length + 1)
    return WeightStats(
        samples=int(syndromes.shape[0]),
        mean=float(weights.mean()),
        min=int(weights.min()),
        max=int(weights.max()),
        histogram=hist,
    )


# ---------------------------------------------------------------------------
# end-to-end channel simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    """Full-pipeline Monte Carlo result (encrypt -> BEC -> decrypt)."""

    trials: int
    channel_epsilon: float
    block_errors: int
    ambiguous_blocks: int
    observed_rate: float
    p_e1: float
    p_e2: float


def simulate_round_trip(
    key: SecretKey,
    channel_epsilon: float,
    trials: int,
    rng: np.random.Generator,
) -> SimulationReport:
    """Run ``trials`` random blocks through the whole cipher pipeline.

    Sender and receiver sessions are driven in lock step; a trial is a
    block error when decoding was ambiguous or any decrypted bit differs
    from the original.  ``ambiguous_blocks`` counts the (sub)set of
    trials where the decoder reported an unresolved erasure.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = key.params
    sender = CipherContext(key)
    receiver = CipherContext(key)
    bounds = error_bounds(p.reliability_table(), p.num_info, p.pool)
    errors = 0
    ambiguous = 0
    done = 0
    while done < trials:
        b = min(_SIM_BATCH, trials - done)
        msgs = rng.integers(0, 2, size=(b, p.num_info), dtype=np.uint8)
        ct = sender.encrypt_blocks(msgs)
        received = bec_transmit(ct, channel_epsilon, rng)
        decoded, amb = receiver.decrypt_blocks(received)
        errors += int(np.count_nonzero((decoded != msgs).any(axis=1) | amb))
        ambiguous += int(np.count_nonzero(amb))
        done += b
    return SimulationReport(
        trials=trials,
        channel_epsilon=channel_epsilon,
        block_errors=errors,
        ambiguous_blocks=ambiguous,
        observed_rate=errors / trials,
        p_e1=bounds.p_e1,
        p_e2=bounds.p_e2,
    )


# ---------------------------------------------------------------------------
# reference-table reproduction
# ---------------------------------------------------------------------------

# printed rows: (rate, K, P_e1)
TABLE1_PRINTED: tuple[tuple[float, int, float], ...] = (
    (0.90, 922, 15e-2),
    (0.85, 870, 14e-4),
    (0.80, 819, 1.062e-5),
    (0.75, 768, 2.892e-8),
    (0.70, 716, 2.958e-11),
)

# printed rows: (rate, K, P_e1, P_e2)
TABLE2_PRINTED: tuple[tuple[float, int, float, float], ...] = (
    (0.75, 768, 2.892e-8, 1.062e-5),
    (0.70, 717, 2.958e-11, 1.062e-5),
    (0.65, 665, 1.2e-13, 1.062e-5),
    (0.60, 615, 7.881e-17, 1.062e-5),
)

# printed key-length comparison: system, code family, (N, K), rate, bits
TABLE3_PRINTED: tuple[dict, ...] = (
    {"system": "Rao-Nam", "code": "Hamming", "N": 72, "K": 64, "rate": 64 / 72,
     "key_bits": 18000},
)

REFERENCE_POOL = 819


def _rel_dev(computed: float, printed: float) -> float:
    return (computed - printed) / printed


@dataclass(frozen=True)
class TablesReport:
    """All three reference tables recomputed, plus inconsistency flags."""

    table1: tuple[dict, ...]
    table2: tuple[dict, ...]
    table3: tuple[dict, ...]
    notes: tuple[str, ...]


def reproduce_tables(params: KeyParams | None = None) -> TablesReport:
    """Recompute Tables I-III from scratch and diff against the printed
    values.  Never silently reconciles discrepancies: the K = 716 vs 717
    rate-0.7 row appears in both tables exactly as printed, and both
    Struik-Tilburg work-factor figures are included in the notes.
    """
    from .keys import reference_params

    params = params or reference_params()
    table = params.reliability_table()
    pool = params.pool

    t1 = []
    for rate, k, printed in TABLE1_PRINTED:
        bounds = error_bounds(table, k, pool)
        t1.append(
            {
                "table": "I", "R": rate, "K": k,
                "P_e1": bounds.p_e1, "printed_P_e1": printed,
                "rel_dev": _rel_dev(bounds.p_e1, printed),
            }
        )

    t2 = []
    for rate, k, printed1, printed2 in TABLE2_PRINTED:
        bounds = error_bounds(table, k, pool)
        t2.append(
            {
                "table": "II", "R": rate, "K": k,
                "P_e1": bounds.p_e1, "printed_P_e1": printed1,
                "rel_dev_P_e1": _rel_dev(bounds.p_e1, printed1),
                "P_e2": bounds.p_e2, "printed_P_e2": printed2,
                "rel_dev_P_e2": _rel_dev(bounds.p_e2, printed2),
            }
        )

    sizes = key_size_report(params)
    rn = TABLE3_PRINTED[0]
    t3 = (
        {
            "table": "III", "system": rn["system"], "code": rn["code"],
            "N": rn["N"], "K": rn["K"], "rate": rn["rate"],
            "key_bits": rn["key_bits"], "key_bits_compressed": rn["key_bits"],
        },
        {
            "table": "III", "system": "proposed", "code": "polar",
            "N": params.block_length, "K": params.num_info,
            "rate": params.num_info / params.block_length,
            "key_bits": sizes.total_actual,
            "key_bits_compressed": sizes.total_compressed,
        },
    )

    sec = security_report(params)
    notes = (
        "inconsistency: rate-0.70 row lists K = 716 in Table I but K = 717 "
        "in Table II; both rows are reproduced as printed",
        "inconsistency: Struik-Tilburg ciphertext requirement printed as "
        f"~2^{ST_PRINTED_LOG2:.0f} but K*N_e*log2(N_e) evaluates to "
        f"2^{sec.log2_st_ciphertexts:.1f}; both figures reported",
        f"compressed key is {100 * (1 - sizes.total_compressed / rn['key_bits']):.0f}% "
        "shorter than the Rao-Nam key (printed: about 48 percent)",
    )
    return TablesReport(table1=tuple(t1), table2=tuple(t2), table3=t3, notes=notes)

"""Design-table reproduction, key-size/security/complexity accounting."""
import math

import numpy as np
import pytest

from polarsec.analysis import (
    SCALING_EXPONENT_BEC,
    complexity_report,
    default_pool,
    error_bounds,
    index_pool_size,
    key_size_report,
    log2_binomial,
    log2_factorial,
    perturbation_weight_stats,
    rate_threshold,
    reproduce_tables,
    security_report,
    simulate_round_trip,
)
from polarsec.cipher import CipherContext
from polarsec.keys import KeyParams, generate_key, reference_params
from polarsec.polar import kernel_power
from polarsec.rng import derive_rng

# union-bound values recomputed independently and pinned before the
# implementation existed (N = 1024, epsilon = 0.05, pool = 819)
FROZEN_P_E1 = {
    922: 1.503771e-01,
    870: 1.352893e-03,
    819: 1.062875e-05,
    768: 2.892474e-08,
    717: 3.378930e-11,
    716: 2.958504e-11,
    665: 1.200822e-13,
    615: 7.881210e-17,
}


def test_error_bounds_frozen_values():
    p = reference_params()
    table = p.reliability_table()
    for k, want in FROZEN_P_E1.items():
        got = error_bounds(table, k, p.pool).p_e1
        assert got == pytest.approx(want, rel=1e-5)


def test_error_bounds_structure():
    p = reference_params()
    table = p.reliability_table()
    # P_e1 monotone nondecreasing in K; bounds coincide at K = pool
    prev = 0.0
    for k in (100, 300, 500, 700, 819):
        b = error_bounds(table, k, p.pool)
        assert b.p_e1 >= prev
        prev = b.p_e1
    edge = error_bounds(table, p.pool, p.pool)
    assert edge.p_e1 == edge.p_e2
    # worst-in-pool selection never beats best selection
    mid = error_bounds(table, 768, p.pool)
    assert mid.p_e2 >= mid.p_e1
    assert math.isnan(error_bounds(table, 900, 819).p_e2)


def test_rate_threshold_frozen():
    got = rate_threshold(1024, 0.95)
    assert got == pytest.approx(0.8021489745, abs=1e-9)
    assert abs(got - 0.8022) < 0.0005
    assert SCALING_EXPONENT_BEC == 3.6261


def test_threshold_approaches_capacity():
    values = [rate_threshold(1 << n, 1.0) for n in range(4, 24)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_pool_rounding_convention():
    # threshold 0.80215 -> R0 = 0.80 -> floor(1024 * 0.80) = 819
    assert index_pool_size(1024, 0.95) == 819
    assert default_pool(10, 0.05) == 819
    # exact two-decimal thresholds must not lose a cent to float noise
    assert index_pool_size(1000, 0.75 + 1000 ** (-1 / SCALING_EXPONENT_BEC)) == 750


def test_key_size_report_reference():
    sizes = key_size_report(reference_params())
    assert sizes.bits_indices == 11 * 768
    assert sizes.bits_seed == 256
    assert sizes.bits_s == 6 * 6 * 128
    assert sizes.bits_p == 8 * 128
    assert sizes.total_actual == 14336
    assert sizes.bits_sc == 8 * 2 * 36
    assert sizes.bits_pc == 64
    assert sizes.bits_chr == 0
    assert sizes.total_compressed == 9344
    assert sizes.reduction_percent == pytest.approx(34.82, abs=0.01)


def test_complexity_report_reference():
    comp = complexity_report(reference_params())
    assert comp.mul_message_gprime == 1024 * 768
    assert comp.mul_perturb_perm == 1024
    assert comp.mul_receive_perm == 1024
    assert comp.sc_decode == 1024 * 10
    assert comp.mul_unscramble == 768 * 768


def test_security_report_reference():
    sec = security_report(reference_params())
    assert sec.log2_n_c == pytest.approx(271.3895, abs=1e-3)
    assert sec.log2_n_e == 256.0
    assert sec.log2_n_s_lower == 589056.0
    assert sec.log2_n_p == pytest.approx(5729.2938, abs=1e-3)
    assert sec.log2_wf_rn == 196608.0
    assert sec.log2_st_ciphertexts == pytest.approx(273.58496, abs=1e-4)
    assert sec.log2_st_operations == pytest.approx(196627.585, abs=1e-2)


def test_log2_combinatorics_against_math():
    assert log2_factorial(10) == pytest.approx(math.log2(math.factorial(10)), rel=1e-12)
    assert log2_binomial(52, 5) == pytest.approx(math.log2(math.comb(52, 5)), rel=1e-12)
    assert 8 * log2_factorial(128) == pytest.approx(5729.2938, abs=1e-3)
    assert log2_binomial(819, 768) == pytest.approx(271.3895, abs=1e-3)


def test_reproduce_tables_rows_and_flags():
    report = reproduce_tables()
    assert [r["K"] for r in report.table1] == [922, 870, 819, 768, 716]
    assert [r["K"] for r in report.table2] == [768, 717, 665, 615]
    for row in report.table1[2:]:
        assert abs(row["rel_dev"]) < 0.05
    for row in report.table1[:2]:
        assert abs(row["rel_dev"]) < 0.10
    for row in report.table2:
        assert abs(row["rel_dev_P_e2"]) < 0.05
    systems = {r["system"] for r in report.table3}
    assert systems == {"Rao-Nam", "proposed"}
    joined = " ".join(report.notes)
    assert "716" in joined and "717" in joined
    assert "2^271" in joined and "2^273.6" in joined


def test_perturbation_weights_exhaustive_small():
    p = KeyParams(n=4, k0=1, n0=2, l=8, mu_s=1, epsilon=0.05, pool=16,
                  taps=(8, 4, 3, 2))
    key = generate_key(p, derive_rng(55, "keygen"))
    ctx = CipherContext(key)
    stats = perturbation_weight_stats(ctx, exhaustive=True)
    assert stats.samples == 1 << 8
    assert stats.histogram.sum() == stats.samples
    assert stats.min == 0  # zero syndrome gives the zero perturbation
    # mean weight is half the nonzero columns of the frozen-row span
    span = kernel_power(p.n)[ctx.plan.frozen0]
    nonzero_cols = int((span.any(axis=0)).sum())
    assert stats.mean == nonzero_cols / 2


def test_perturbation_weights_sampled_matches_exhaustive_mean():
    p = KeyParams(n=5, k0=2, n0=4, l=8, mu_s=2, epsilon=0.05, pool=32,
                  taps=(16, 15, 13, 4))
    key = generate_key(p, derive_rng(56, "keygen"))
    ctx = CipherContext(key)
    exact = perturbation_weight_stats(ctx, exhaustive=True)
    sampled = perturbation_weight_stats(ctx, samples=4000,
                                        rng=derive_rng(57, "w"))
    assert sampled.samples == 4000
    assert sampled.mean == pytest.approx(exact.mean, rel=0.05)


def test_simulate_round_trip_noiseless_is_perfect():
    p = KeyParams(n=6, k0=6, n0=8, l=8, mu_s=2, epsilon=0.05, pool=64,
                  taps=(16, 15, 13, 4))
    key = generate_key(p, derive_rng(58, "keygen"))
    rep = simulate_round_trip(key, 0.0, 500, derive_rng(59, "sim"))
    assert rep.trials == 500
    assert rep.block_errors == 0
    assert rep.ambiguous_blocks == 0
    assert rep.observed_rate == 0.0

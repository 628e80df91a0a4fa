"""Polar code construction, the butterfly transform, and SC decoding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec.analysis import simulate_round_trip
from polarsec.keys import KeyParams, generate_key
from polarsec.polar import (
    ERASED,
    FrozenPlan,
    ReliabilityTable,
    bec_transmit,
    bhattacharyya,
    exhaustive_ambiguity,
    kernel_power,
    polar_transform,
    sc_decode_batch,
    top_indices,
)
from polarsec.rng import derive_rng


def test_bhattacharyya_two_level_half_erasure():
    table = bhattacharyya(2, 0.5)
    # one split of z: worse 2z - z^2, better z^2; applied twice to 0.5
    assert np.allclose(table.z, [0.9375, 0.5625, 0.4375, 0.0625])
    assert table.block_length == 4
    # ascending reliability ranking, 1-based
    assert table.pi.tolist() == [4, 3, 2, 1]


def test_bhattacharyya_conservation():
    # each split preserves the sum: (2z - z^2) + z^2 = 2z
    for n in (1, 4, 8, 12, 16):
        for eps in (0.05, 0.3, 0.5, 0.9):
            table = bhattacharyya(n, eps)
            assert abs(table.z.sum() - (1 << n) * eps) < 1e-12
            assert table.z.min() >= 0.0 and table.z.max() <= 1.0


def test_bhattacharyya_pi_is_permutation_and_stable():
    table = bhattacharyya(10, 0.05)
    assert sorted(table.pi.tolist()) == list(range(1, 1025))
    z = table.z[table.pi - 1]
    assert np.all(np.diff(z) >= 0)
    # stable: equal reliabilities keep index order
    flat = ReliabilityTable(n=2, epsilon=0.0, z=np.zeros(4), pi=np.arange(1, 5))
    assert flat.pi.tolist() == [1, 2, 3, 4]


def test_polarization_spreads_with_depth():
    shallow = bhattacharyya(4, 0.3)
    deep = bhattacharyya(10, 0.3)
    near_perfect = lambda t: np.mean(t.z < 1e-6)
    assert near_perfect(deep) > near_perfect(shallow)


def test_transform_is_involution():
    rng = np.random.default_rng(19)
    for n in (1, 3, 7, 12):
        u = rng.integers(0, 2, size=(5, 1 << n), dtype=np.uint8)
        x = polar_transform(u.copy())
        assert np.array_equal(polar_transform(x.copy()), u)


def test_transform_of_empty_batch():
    for n in (1, 6):
        assert polar_transform(np.zeros((0, 1 << n), dtype=np.uint8)).shape == (0, 1 << n)


def test_transform_matches_kernel_power_exhaustively():
    for n in (1, 2, 3, 4):
        size = 1 << n
        g = kernel_power(n)
        u = ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).astype(np.uint8)
        want = (u.astype(np.int64) @ g) % 2
        assert np.array_equal(polar_transform(u.copy()), want.astype(np.uint8))


def test_encoding_injectivity_exhaustive():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        size = 1 << n
        for k in (1, size // 2, size - 1):
            info = np.sort(rng.choice(size, size=k, replace=False)) + 1
            plan = FrozenPlan.from_info_set(n, info)
            frozen_vals = rng.integers(0, 2, size=size - k, dtype=np.uint8)
            msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
            u = np.zeros((1 << k, size), dtype=np.uint8)
            u[:, plan.info0] = msgs
            u[:, plan.frozen0] = frozen_vals
            words = polar_transform(u)
            packed = np.packbits(words, axis=1)
            assert len({bytes(row) for row in packed}) == 1 << k


def test_bec_transmit_statistics():
    rng = np.random.default_rng(77)
    x = np.zeros((2000, 64), dtype=np.uint8)
    y = bec_transmit(x, 0.25, rng)
    frac = float((y == ERASED).mean())
    assert abs(frac - 0.25) < 0.01
    kept = y[y != ERASED]
    assert np.array_equal(np.unique(kept), [0])


def _reference_sc(y, frozen_mask, leaf_vals):
    """Straightforward scalar SC recursion used as the decoding oracle;
    returns the re-encoded codeword, the leaf decisions and ambiguity."""
    n_bits = len(y)
    if n_bits == 1:
        if frozen_mask[0]:
            u, amb = int(leaf_vals[0]), False
        else:
            u, amb = max(int(y[0]), 0), bool(y[0] < 0)
        return np.array([u], dtype=np.int8), np.array([u], dtype=np.int8), amb
    half = n_bits // 2
    ya, yb = y[:half], y[half:]
    za = np.where((ya >= 0) & (yb >= 0), ya ^ yb, ERASED)
    xa, ua, amb_a = _reference_sc(za, frozen_mask[:half], leaf_vals[:half])
    zb = np.where(yb >= 0, yb, np.where(ya >= 0, ya ^ xa, ERASED))
    xb, ub, amb_b = _reference_sc(zb, frozen_mask[half:], leaf_vals[half:])
    return np.concatenate([xa ^ xb, xb]), np.concatenate([ua, ub]), amb_a or amb_b


def test_sc_decoder_matches_reference_exhaustively():
    # every erasure pattern, crossed with every message for n <= 2 and a
    # random message sample at n = 3; each message decodes as one batch
    rng = np.random.default_rng(314)
    for n in (1, 2, 3):
        size = 1 << n
        masks = ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).astype(bool)
        for _ in range(4):
            k = int(rng.integers(1, size + 1))
            info = np.sort(rng.choice(size, size=k, replace=False)) + 1
            frozen_vals = rng.integers(0, 2, size=size - k, dtype=np.uint8)
            plan = FrozenPlan.from_info_set(n, info)
            frozen_mask = np.zeros(size, dtype=bool)
            frozen_mask[plan.frozen0] = True
            leaf_vals = np.zeros(size, dtype=np.int8)
            leaf_vals[plan.frozen0] = frozen_vals
            if n <= 2:
                msgs = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
            else:
                msgs = rng.integers(0, 2, size=(4, k), dtype=np.uint8)
            for msg in msgs:
                u = np.zeros(size, dtype=np.uint8)
                u[plan.info0] = msg
                u[plan.frozen0] = frozen_vals
                x = polar_transform(u[None, :].copy())[0]
                y = np.where(masks, ERASED, x.astype(np.int8))
                got, got_amb = sc_decode_batch(
                    y, plan, np.broadcast_to(frozen_vals, (len(y), size - k)))
                want_amb = [_reference_sc(row, frozen_mask, leaf_vals)[2] for row in y]
                assert got_amb.tolist() == want_amb
                # over the BEC, unambiguous SC decisions are exact
                assert np.array_equal(got[~got_amb], np.broadcast_to(msg, got[~got_amb].shape))


@settings(max_examples=120)
@given(n=st.integers(1, 6),
       batch=st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]) | st.integers(0, 70),
       rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       per_block=st.booleans(), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sc_decode_batch_matches_reference(n, batch, rate, per_block, fortran, seed):
    # arbitrary received words (codewords or not) over a random
    # information set, every block against the scalar oracle; batch sizes
    # around multiples of 8 cover the padding of the last plane byte
    rng = np.random.default_rng(seed)
    size = 1 << n
    info = np.flatnonzero(rng.integers(0, 2, size=size)) + 1
    plan = FrozenPlan.from_info_set(n, info)
    # per-block frozen bits, or none passed, which decodes as zeros
    frozen = (rng.integers(0, 2, size=(batch, size - info.size), dtype=np.uint8)
              if per_block else np.zeros((batch, size - info.size), dtype=np.uint8))
    bits = rng.integers(0, 2, size=(batch, size), dtype=np.int8)
    y = np.where(rng.random((batch, size)) < rate, ERASED, bits)
    got, amb = sc_decode_batch(np.asfortranarray(y) if fortran else y, plan,
                               frozen if per_block else None)
    assert got.shape == (batch, info.size) and amb.shape == (batch,)
    frozen_mask = np.zeros(size, dtype=bool)
    frozen_mask[plan.frozen0] = True
    for i in range(batch):
        leaf_vals = np.zeros(size, dtype=np.int8)
        leaf_vals[plan.frozen0] = frozen[i]
        _, want, want_amb = _reference_sc(y[i], frozen_mask, leaf_vals)
        assert amb[i] == want_amb
        assert np.array_equal(got[i], want[plan.info0])


def test_per_block_frozen_values_override():
    rng = np.random.default_rng(99)
    n, k = 3, 4
    size = 1 << n
    info = np.array([4, 6, 7, 8])
    plan = FrozenPlan.from_info_set(n, info)
    msgs = rng.integers(0, 2, size=(8, k), dtype=np.uint8)
    frozen = rng.integers(0, 2, size=(8, size - k), dtype=np.uint8)
    u = np.zeros((8, size), dtype=np.uint8)
    u[:, plan.info0] = msgs
    u[:, plan.frozen0] = frozen
    y = polar_transform(u).astype(np.int8)
    got, amb = sc_decode_batch(y, plan, frozen_values=frozen)
    assert not amb.any()
    assert np.array_equal(got, msgs)


def test_plan_is_a_read_only_partition():
    info = np.array([4, 6, 7, 8])
    plan = FrozenPlan.from_info_set(3, info)
    assert plan.info0.tolist() == [3, 5, 6, 7]
    assert plan.frozen0.tolist() == [0, 1, 2, 4]
    assert np.array_equal(np.flatnonzero(plan.frozen_mask), plan.frozen0)
    assert (plan.num_info, plan.block_length) == (4, 8)
    for array in (plan.info0, plan.frozen0, plan.frozen_mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    assert info.flags.writeable


@pytest.mark.parametrize("n, info", [(3, [1, 2, 9]), (3, [0, 1]), (3, [2, 1]), (3, [1, 1]),
                                     (2, [[1, 2]]), (0, [2])],
                         ids=["above_n", "zero", "descending", "repeated", "two_d", "n_zero"])
def test_plan_rejects_indices_not_ascending_within_one_to_n(n, info):
    with pytest.raises(ValueError, match=r"strictly ascending within 1\.\.N"):
        FrozenPlan.from_info_set(n, np.array(info))


def test_plans_compare_and_hash_by_n_and_info_set():
    plan = FrozenPlan.from_info_set(2, [1, 4])
    same = FrozenPlan.from_info_set(2, np.array([1, 4]))
    assert plan == same and hash(plan) == hash(same) and len({plan, same}) == 1
    for other in (FrozenPlan.from_info_set(2, [1, 3]), FrozenPlan.from_info_set(3, [1, 4]),
                  FrozenPlan.from_info_set(2, [1]), (2, [1, 4])):
        assert plan != other


def test_exhaustive_ambiguity_half_erasure_worst_channel():
    # information set {4} at epsilon = 1/2: failure exactly when the
    # last synthetic channel erases, probability z_4 = 1/16
    plan = FrozenPlan.from_info_set(2, np.array([4]))
    assert exhaustive_ambiguity(plan, 0.5) == 0.0625
    table = bhattacharyya(2, 0.5)
    assert table.z[3] == 0.0625


def test_block_error_rate_tracks_exhaustive():
    # over the erasure channel a block fails exactly when SC decoding is
    # ambiguous, which depends only on the erasure pattern and the
    # information set, not on the syndrome or the permutation
    params = KeyParams(n=3, k0=1, n0=2, l=4, mu_s=1, epsilon=0.05, pool=8,
                       taps=(4, 1))
    key = generate_key(params, derive_rng(9, "keygen"))
    plan = FrozenPlan.from_info_set(3, key.info_indices)
    exact = exhaustive_ambiguity(plan, 0.3)
    report = simulate_round_trip(key, 0.3, 40_000, np.random.default_rng(2718))
    assert report.block_errors == report.ambiguous_blocks
    assert abs(report.observed_rate - exact) < 0.01


def test_top_indices_prefix_of_ranking():
    table = bhattacharyya(6, 0.2)
    sel = top_indices(table, 40)
    assert sel.tolist() == sorted(table.pi[:40].tolist())

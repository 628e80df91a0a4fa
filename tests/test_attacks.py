"""Chosen-plaintext attack harness: error-space collection, matrix
recovery at toy scale, failure modes, and the measured cost curve."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec.attacks import (
    AttackInfeasibleError,
    EncryptionOracle,
    PartialErrorSpaceWarning,
    attack_cost_curve,
    attack_decrypt,
    build_toy_instance,
    collect_error_space,
    pack_word,
    rn_attack,
    span_members,
    unpack_word,
)
from polarsec.cipher import CipherContext
from polarsec.gf2 import GF2Matrix
from polarsec.keys import KeyParams, generate_key
from polarsec.rng import derive_rng

TOY = build_toy_instance(3, 4, seed=3)  # N = 8, K = 4, N - K = 4
ZERO4 = np.zeros(4, dtype=np.uint8)


def test_word_packing_round_trip():
    rng = derive_rng(0, "pack")
    for length in (1, 7, 8, 16, 32, 63):
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        assert np.array_equal(unpack_word(pack_word(bits), length), bits)
    assert pack_word(np.array([1, 0, 1])) == 0b101


def test_error_space_free_running_oracle():
    space = collect_error_space(TOY.oracle(mode="lfsr"), ZERO4, budget=2000)
    # the register never emits zero: 2^4 - 1 perturbations, and their
    # differences span a 4-dimensional space
    assert space.ciphertexts.size == 15
    assert space.differences.size == 4
    assert span_members(space.differences)[1:].size == 15
    assert space.saturated
    assert space.queries_used <= 120


def test_error_space_uniform_oracle_includes_zero_syndrome():
    oracle = TOY.oracle(mode="uniform", rng=derive_rng(7, "uniform"))
    space = collect_error_space(oracle, ZERO4, budget=2000)
    assert space.ciphertexts.size == 16
    assert 0 in space.ciphertexts
    assert space.differences.size == 4
    assert span_members(space.differences)[1:].size == 15
    assert space.saturated
    assert space.queries_used <= 120


def test_error_space_pinned_oracle_is_degenerate():
    space = collect_error_space(TOY.oracle(mode="pinned"), ZERO4, budget=2000)
    assert space.ciphertexts.size == 1
    assert space.differences.size == 0
    assert space.saturated


@settings(max_examples=30)
@given(shape=st.integers(3, 4).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(2, min(8, (1 << n) - 1)))),
       mode=st.sampled_from(["lfsr", "uniform", "pinned"]),
       seed=st.integers(0, 2**16))
def test_saturated_span_equals_pairwise_differences(shape, mode, seed):
    n, gap = shape
    num_info = (1 << n) - gap
    toy = build_toy_instance(n, num_info, seed=seed)
    oracle = toy.oracle(mode=mode, rng=derive_rng(seed, "uniform"))
    space = collect_error_space(oracle, np.zeros(num_info, dtype=np.uint8), budget=20_000)
    assert space.saturated
    words = [int(w) for w in space.ciphertexts]
    pairwise = {a ^ b for a in words for b in words if a != b}
    members = span_members(space.differences)
    assert members.size == 1 << space.differences.size == len(pairwise) + 1
    assert members[0] == 0 and set(members[1:].tolist()) == pairwise
    # reduced echelon: leading bits descending, each set in its own word only
    leads = [int(b).bit_length() - 1 for b in space.differences]
    assert leads == sorted(set(leads), reverse=True)
    assert all((int(b) >> lead) & 1 == (i == j)
               for i, b in enumerate(space.differences) for j, lead in enumerate(leads))


def test_collection_matches_coupon_collector_mean():
    # with uniform syndromes, filling all 16 cells should take about
    # 16 * H_16 = 54.09 queries on average
    runs = 200
    total = 0
    for i in range(runs):
        oracle = TOY.oracle(mode="uniform", rng=derive_rng(1000 + i, "coupon"))
        space = collect_error_space(oracle, ZERO4, budget=10_000, window=10**9)
        assert space.saturated
        total += space.queries_used
    mean = total / runs
    assert abs(mean - 54.09) / 54.09 < 0.20


def test_same_message_differences_stay_in_collected_space():
    space = collect_error_space(TOY.oracle(mode="lfsr"), ZERO4, budget=2000)
    collected = set(int(d) for d in span_members(space.differences)[1:])
    assert len(collected) == 15
    oracle = TOY.oracle(mode="lfsr")
    rng = derive_rng(21, "pairs")
    for _ in range(100):
        msg = rng.integers(0, 2, size=4, dtype=np.uint8)
        diff = pack_word(oracle.encrypt(msg)) ^ pack_word(oracle.encrypt(msg))
        assert diff in collected


def test_recovers_toy_matrix_exactly():
    oracle = TOY.oracle(mode="lfsr")
    result = rn_attack(oracle, rng=derive_rng(3, "verify"))
    assert result.verified
    assert result.note == ""
    assert result.recovered_gprime == TOY.true_matrix
    assert result.queries_used == oracle.queries <= 500
    assert result.candidates_examined > 0


def test_recovered_matrix_decrypts_intercepted_traffic():
    result = rn_attack(TOY.oracle(mode="lfsr"), rng=derive_rng(3, "verify"))
    # a later session intercepted mid-stream, never seen by the attack
    ctx = TOY.context(start_block=23)
    rng = derive_rng(4, "traffic")
    for _ in range(20):
        msg = rng.integers(0, 2, size=4, dtype=np.uint8)
        block = ctx.encrypt(msg)
        found = attack_decrypt(
            result.recovered_gprime, result.candidate_error_space, block.bits
        )
        assert len(found) == 1
        assert np.array_equal(found[0], msg)


def test_attack_decrypt_matches_enumerating_the_span():
    # the reference decrypts by trying every nonzero member of the span
    result = rn_attack(TOY.oracle(mode="lfsr"), rng=derive_rng(3, "verify"))
    matrix, basis = result.recovered_gprime, result.candidate_error_space
    pivots = matrix.pivots()
    dense = matrix.to_dense().astype(np.int64)
    a_inv = GF2Matrix.from_dense(dense[:, pivots]).inverse().to_dense()
    decrypted = 0
    for word in range(256):
        ct = unpack_word(word, 8)
        want = set()
        for err in span_members(basis)[1:]:
            target = ct ^ unpack_word(int(err), 8)
            msg = (target[pivots] @ a_inv) % 2
            if np.array_equal((msg @ dense) % 2, target):
                want.add(pack_word(msg))
        got = [pack_word(m) for m in attack_decrypt(matrix, basis, ct)]
        assert got == sorted(want)
        decrypted += bool(got)
    # every message under every nonzero perturbation, nothing else
    assert decrypted == 16 * 15
    # a basis word inside the row space makes the stacked rows dependent
    with pytest.raises(ValueError):
        attack_decrypt(matrix, np.append(basis, np.uint64(pack_word(matrix.to_dense()[0]))), ct)


def test_recovers_structured_key_instance():
    # same attack against a key drawn from the real generator (block
    # scrambler, register-seeded) rather than a dense random toy
    params = KeyParams(n=3, k0=1, n0=2, l=4, mu_s=1, epsilon=0.05, pool=8,
                       taps=(4, 1))
    key = generate_key(params, derive_rng(9, "keygen"))
    ctx = CipherContext(key)
    result = rn_attack(EncryptionOracle(ctx), rng=derive_rng(9, "verify"))
    assert result.verified
    assert result.recovered_gprime == ctx.encryption_matrix()


def test_uniform_oracle_defeats_candidate_reduction():
    # with zero included every coset shift explains the data equally
    # well, so pruning keeps all 3 candidates per row and verification
    # cannot break the tie
    toy = build_toy_instance(2, 2, seed=5)
    oracle = toy.oracle(mode="uniform", rng=derive_rng(5, "uniform"))
    result = rn_attack(oracle, verify_cap=256, rng=derive_rng(5, "verify"))
    assert not result.verified
    assert result.recovered_gprime is None
    assert "still verify" in result.note


def test_uniform_oracle_large_candidate_set_hits_enum_cap():
    toy = build_toy_instance(4, 12, seed=6)
    oracle = toy.oracle(mode="uniform", rng=derive_rng(6, "uniform"))
    result = rn_attack(oracle, rng=derive_rng(6, "verify"))
    assert not result.verified
    assert "enumeration cap" in result.note


def test_wide_gap_fails_within_capped_budget():
    toy = build_toy_instance(5, 12, seed=11)  # N - K = 20
    oracle = toy.oracle(mode="lfsr")
    with pytest.warns(PartialErrorSpaceWarning):
        result = rn_attack(oracle, collection_budget=5000, max_gap=20)
    assert not result.verified
    assert result.note == "error space incomplete within budget"
    assert result.queries_used == 5000


def test_refuses_gap_beyond_toy_limit():
    toy = build_toy_instance(4, 3, seed=1)  # N - K = 13 > 12
    oracle = toy.oracle(mode="lfsr")
    with pytest.raises(AttackInfeasibleError) as excinfo:
        rn_attack(oracle)
    assert excinfo.value.log2_work_factor == 39.0
    assert "2^39" in str(excinfo.value)
    assert oracle.queries == 0


def test_refuses_block_length_beyond_word_before_querying():
    # a ciphertext word is one uint64, so N = 128 is refused up front
    toy = build_toy_instance(7, 124, seed=0)
    oracle = toy.oracle(mode="lfsr")
    with pytest.raises(ValueError, match="64-bit"):
        collect_error_space(oracle, np.zeros(124, dtype=np.uint8), budget=100)
    assert oracle.queries == 0


def test_recovers_more_rows_than_array_dimensions():
    # K = 60 rows of candidates assemble into survivors without one array
    # axis per row (numpy caps arrays at 32 or 64 dimensions)
    toy = build_toy_instance(6, 60, seed=0)
    result = rn_attack(toy.oracle(mode="lfsr"), rng=derive_rng(0, "verify"))
    assert result.verified
    assert result.recovered_gprime == toy.true_matrix


def test_cost_curve_grows_with_gap():
    points = attack_cost_curve()
    assert [p.gap for p in points] == [2, 3, 4, 5, 6, 7, 8]
    assert all(p.n == 4 and p.num_info == 16 - p.gap for p in points)
    assert all(p.recovered for p in points)
    queries = [p.queries for p in points]
    assert queries == [189, 246, 373, 624, 1075, 2083, 3979]
    assert all(b > a for a, b in zip(queries, queries[1:]))
    examined = {p.gap: p.candidates_examined for p in points}
    assert examined[4] / examined[2] >= 3.0
    # work does not grow monotonically: at gaps 6 and 12 the register
    # shows only a third of the perturbations, so pruning is sharper
    assert list(examined.values()) == [241, 596, 1801, 6088, 2227, 74638, 265164]

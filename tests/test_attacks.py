"""Chosen-plaintext attack harness: error-space collection, matrix
recovery at toy scale, failure modes, and the measured cost curve."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec.attacks import (
    AttackInfeasibleError,
    AttackResult,
    EncryptionOracle,
    ErrorSpace,
    PartialErrorSpaceWarning,
    attack_cost_curve,
    attack_decrypt,
    build_toy_instance,
    collect_error_space,
    rn_attack,
    span_members,
)
from polarsec.cipher import CipherContext
from polarsec.gf2 import GF2Matrix, pack_rows, rref, unpack_rows
from polarsec.keys import KeyParams, generate_key
from polarsec.rng import derive_rng

TOY = build_toy_instance(3, 4, seed=3)  # N = 8, K = 4, N - K = 4
ZERO4 = np.zeros(4, dtype=np.uint8)


def test_word_packing_round_trip():
    # an oracle word is one packed row: bit i is ciphertext position i
    rng = derive_rng(0, "pack")
    for length in (1, 7, 8, 16, 32, 63, 64):
        bits = rng.integers(0, 2, size=(3, length), dtype=np.uint8)
        assert np.array_equal(unpack_rows(pack_rows(bits)[:, :1], length), bits)
    assert pack_rows(np.array([[1, 0, 1]]))[0, 0] == 0b101
    oracle, loop = TOY.oracle(mode="lfsr"), TOY.oracle(mode="lfsr")
    msgs = rng.integers(0, 2, size=(5, 4), dtype=np.uint8)
    words = oracle.query(msgs)
    assert np.array_equal(unpack_rows(words[:, None], 8), [loop.encrypt(m) for m in msgs])
    assert oracle.queries == loop.queries == 5


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
    # gf2.rref's form: pivots (each word's lowest set bit) ascending, each
    # pivot bit set in its own word only
    pivots = [(int(b) & -int(b)).bit_length() - 1 for b in space.differences]
    assert pivots == sorted(set(pivots))
    assert all((int(b) >> pivot) & 1 == (i == j)
               for i, b in enumerate(space.differences) for j, pivot in enumerate(pivots))


@settings(max_examples=30)
@given(dense=st.integers(1, 8).flatmap(lambda rows: st.lists(
           st.lists(st.integers(0, 1), min_size=20, max_size=20), min_size=rows, max_size=rows)))
def test_span_members_are_indexed_by_coordinates(dense):
    # member c is the XOR of basis[i] over the set bits i of c, and for an
    # rref basis bit i of c is the member's bit at pivot i: the coordinate
    # table of rn_attack rests on both
    reduced, pivots = rref(pack_rows(np.array(dense)), 20)
    basis = [int(w) for w in reduced[: pivots.size, 0]]
    members = span_members(reduced[: pivots.size, 0])
    assert members.size == 1 << len(basis)
    for c, member in enumerate(members.tolist()):
        picked = 0
        for i, b in enumerate(basis):
            picked ^= b if c >> i & 1 else 0
        assert member == picked
        assert sum(((member >> int(p)) & 1) << i for i, p in enumerate(pivots)) == c


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
        first, second = oracle.query(np.stack([msg, msg]))
        assert int(first ^ second) in collected


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
    errors = unpack_rows(span_members(basis)[1:, None], 8)
    decrypted = 0
    for ct in unpack_rows(np.arange(256, dtype=np.uint64)[:, None], 8):
        want = set()
        for err in errors:
            target = ct ^ err
            msg = (target[pivots] @ a_inv) % 2
            if np.array_equal((msg @ dense) % 2, target):
                want.add(tuple(msg))
        got = [tuple(m) for m in attack_decrypt(matrix, basis, ct)]
        assert got == sorted(want)
        decrypted += bool(got)
    # every message under every nonzero perturbation, nothing else
    assert decrypted == 16 * 15
    # a basis word inside the row space makes the stacked rows dependent
    with pytest.raises(ValueError):
        attack_decrypt(matrix, np.append(basis, pack_rows(matrix.to_dense()[:1])[0, 0]), ct)


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


# ---------------------------------------------------------------------------
# the batched stages against the one-query loops
# ---------------------------------------------------------------------------

class LoopOracle(EncryptionOracle):
    """Overrides ``encrypt`` with one syndrome draw and one one-block
    encryption per query, as a tracing subclass does, and inherits the
    batched ``query``."""

    def encrypt(self, message):
        self.queries += 1
        ctx = self._ctx
        if self.mode == "lfsr":
            return ctx.encrypt(message).bits
        if self.mode == "uniform":
            syndrome = self._rng.integers(0, 2, size=self.gap, dtype=np.uint8)
            return ctx.encrypt_with_syndrome(message, syndrome)
        return ctx.encrypt_with_syndrome(message, self._pinned)


def loop_word(oracle, message):
    return np.uint64(pack_rows(oracle.encrypt(message)[None])[0, 0])


def loop_collect(oracle, message, budget, window=None):
    """The collection loop, one ``encrypt`` per query."""
    n_e = 1 << oracle.gap
    if window is None:
        window = max(16, math.ceil(n_e * (math.log(n_e) + 0.5772)))
    seen = set()
    queries = since_new = 0
    saturated = False
    while queries < budget:
        word = int(loop_word(oracle, message))
        queries += 1
        if word in seen:
            since_new += 1
        else:
            seen.add(word)
            since_new = 0
        if len(seen) == n_e or since_new >= window:
            saturated = True
            break
    words = np.array(sorted(seen), dtype=np.uint64)
    reduced, pivots = rref((words[1:] ^ words[0])[:, None], oracle.block_length)
    return ErrorSpace(reduced[: pivots.size, 0], words, queries, saturated)


def loop_attack(oracle, collection_budget=None, verify_pairs=100, verify_cap=4096,
                enum_cap=1 << 16, rng=None):
    """``rn_attack`` one ``encrypt`` per query, with sorted-array membership."""
    k, gap, n_e = oracle.num_info, oracle.gap, 1 << oracle.gap
    if collection_budget is None:
        collection_budget = 8 * n_e + max(16, math.ceil(n_e * (math.log(n_e) + 0.5772))) + 64
    zero = np.zeros(k, dtype=np.uint8)
    space = loop_collect(oracle, zero, collection_budget)
    examined = 0

    def failure(note):
        return AttackResult(None, oracle.queries, oracle.block_length, space.differences,
                            False, examined, note)

    def member(words):
        at = np.searchsorted(space.ciphertexts, words)
        return space.ciphertexts[np.minimum(at, space.ciphertexts.size - 1)] == words

    if not space.saturated:
        return failure("error space incomplete within budget")
    differences = span_members(space.differences)[1:]
    units = np.eye(k, dtype=np.uint8)
    candidates = []
    for unit in units:
        base = loop_word(oracle, zero) ^ loop_word(oracle, unit)
        candidates.append(base ^ differences)
        examined += differences.size
    for i, unit in enumerate(units):
        cand = candidates[i]
        for _ in range(n_e - 1):
            if cand.size == 0:
                break
            keep = member(loop_word(oracle, unit) ^ cand)
            examined += cand.size
            cand = cand[keep]
        if cand.size == 0:
            return failure(f"candidate set for row {i} emptied out (error space inconsistent)")
        candidates[i] = cand
    total = math.prod(c.size for c in candidates)
    if total > enum_cap:
        return failure(f"{total} assembled candidates exceed the enumeration cap {enum_cap}")
    sizes = [c.size for c in candidates]
    survivors = np.stack([np.tile(np.repeat(c, math.prod(sizes[i + 1:])), math.prod(sizes[:i]))
                          for i, c in enumerate(candidates)], axis=1)
    checked = 0
    while checked < verify_cap and (survivors.shape[0] > 1 or checked < verify_pairs):
        msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        if not msg.any():
            continue
        word = loop_word(oracle, msg)
        vals = np.bitwise_xor.reduce(survivors[:, msg.astype(bool)], axis=1) ^ word
        examined += survivors.shape[0]
        survivors = survivors[member(vals)]
        checked += 1
        if survivors.shape[0] == 0:
            return failure("no assembled candidate verifies")
    if survivors.shape[0] != 1:
        return failure(f"{survivors.shape[0]} candidates still verify after {checked} "
                       "held-out queries")
    matrix = GF2Matrix(k, oracle.block_length, survivors[0][:, None])
    return AttackResult(matrix, oracle.queries, oracle.block_length, space.differences,
                        True, examined, "")


def stream_position(oracle):
    """Where the oracle's syndrome stream stands."""
    if oracle.mode == "uniform":
        return oracle._rng.bit_generator.state
    return oracle._ctx.lfsr.state.tolist(), oracle._ctx.blocks_processed


def assert_same_run(batched, looped, got, want):
    assert batched.queries == looped.queries
    assert stream_position(batched) == stream_position(looped)
    for name in got.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def both_ways(toy, mode, seed, run, reference, oracle_class=EncryptionOracle):
    """``run`` on a fresh oracle of ``oracle_class``, and ``reference`` on a
    fresh one-query oracle, both under the same stream."""
    oracles = [cls(toy.context(), mode=mode, rng=derive_rng(seed, "uniform"))
               for cls in (oracle_class, LoopOracle)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialErrorSpaceWarning)
        got, want = run(oracles[0]), reference(oracles[1])
    assert_same_run(*oracles, got, want)
    return got


shapes = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, min(8, (1 << n) - 1))))


@settings(max_examples=40, deadline=None)
@given(shape=shapes, mode=st.sampled_from(["lfsr", "uniform", "pinned"]),
       seed=st.integers(0, 2**16), budget=st.integers(1, 1200),
       window=st.none() | st.integers(1, 400))
def test_batched_collection_matches_one_query_loop(shape, mode, seed, budget, window):
    n, gap = shape
    toy = build_toy_instance(n, (1 << n) - gap, seed=seed)
    zero = np.zeros(toy.num_info, dtype=np.uint8)
    both_ways(toy, mode, seed, lambda o: collect_error_space(o, zero, budget, window),
              lambda o: loop_collect(o, zero, budget, window))


@settings(max_examples=25, deadline=None)
@given(shape=shapes, mode=st.sampled_from(["lfsr", "uniform", "pinned"]),
       seed=st.integers(0, 2**16), budget=st.none() | st.integers(1, 1500),
       verify_pairs=st.integers(0, 30), verify_cap=st.integers(1, 60),
       enum_cap=st.sampled_from([1, 64, 1 << 16]))
def test_batched_attack_matches_one_query_loop(shape, mode, seed, budget, verify_pairs,
                                               verify_cap, enum_cap):
    n, gap = shape
    toy = build_toy_instance(n, (1 << n) - gap, seed=seed)
    kwargs = dict(collection_budget=budget, verify_pairs=verify_pairs, verify_cap=verify_cap,
                  enum_cap=enum_cap)
    both_ways(toy, mode, seed, lambda o: rn_attack(o, rng=derive_rng(seed, "v"), **kwargs),
              lambda o: loop_attack(o, rng=derive_rng(seed, "v"), **kwargs))


@pytest.mark.parametrize("n, k, seed, mode, kwargs, note", [
    (3, 4, 3, "pinned", {}, "candidate set for row 0 emptied out"),
    (4, 6, 1, "lfsr", {"collection_budget": 700}, "error space incomplete within budget"),
    (4, 12, 6, "uniform", {}, "exceed the enumeration cap"),
    (2, 2, 5, "uniform", {"verify_cap": 256}, "still verify"),
    (3, 4, 3, "lfsr", {}, ""),
])
@pytest.mark.parametrize("oracle_class", [EncryptionOracle, LoopOracle])
def test_batched_attack_failure_paths_match_one_query_loop(n, k, seed, mode, kwargs, note,
                                                           oracle_class):
    # LoopOracle stands for a subclass that overrides encrypt and inherits query
    result = both_ways(build_toy_instance(n, k, seed=seed), mode, seed,
                       lambda o: rn_attack(o, rng=derive_rng(seed, "v"), **kwargs),
                       lambda o: loop_attack(o, rng=derive_rng(seed, "v"), **kwargs),
                       oracle_class)
    assert note in result.note and result.verified == (note == "")

"""Syndrome register behavior: clocking, periods, primitivity."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec import lfsr
from polarsec.lfsr import (
    DEFAULT_TAPS,
    Lfsr,
    is_primitive,
    lfsr_period,
    taps_for_degree,
    validate_taps,
)


def test_clock_sequence_degree_four():
    # x^4 + x + 1, seeded with impulse state: the classic 15-bit m-sequence
    reg = Lfsr((4, 1), np.array([1, 0, 0, 0], dtype=np.uint8))
    out = [reg.clock() for _ in range(15)]
    assert out == [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1]
    # back at the start state after one full period
    assert [reg.clock() for _ in range(4)] == [1, 0, 0, 0]


def test_next_syndrome_is_state_then_degree_clocks():
    rng = np.random.default_rng(24)
    registers = [((5, 2), np.array([1, 1, 0, 1, 0], dtype=np.uint8))]
    for degree in (8, 12, 20):
        state = rng.integers(0, 2, size=degree, dtype=np.uint8)
        state[0] = 1
        registers.append((taps_for_degree(degree), state))
    for taps, state in registers:
        a = Lfsr(taps, state)
        b = Lfsr(taps, state)
        for _ in range(6):
            syn = a.next_syndrome()
            assert np.array_equal(syn, b.state)
            for _ in range(b.degree):
                b.clock()


def test_step_powers_built_once_per_tap_set():
    lfsr._step_power.cache_clear()
    taps = taps_for_degree(12)
    first = Lfsr(taps, np.eye(12, dtype=np.uint8)[0])
    first.skip(5 << 20)
    # T, T^2, ..., T^(2^22): only as far as the jump needs
    assert lfsr._step_power.cache_info().misses == 23
    second = Lfsr(taps, np.eye(12, dtype=np.uint8)[0])
    second.skip(5 << 20)
    assert lfsr._step_power.cache_info().misses == 23
    assert not any(lfsr._step_power(taps, i).words.flags.writeable for i in range(23))
    assert np.array_equal(first.state, second.state)


def draw_fill(data, degree: int) -> np.ndarray:
    word = data.draw(st.integers(1, (1 << degree) - 1))
    return np.array([word >> i & 1 for i in range(degree)], dtype=np.uint8)


@settings(max_examples=25)
@given(st.data())
def test_step_powers_are_repeated_block_steps(data):
    for taps in DEFAULT_TAPS.values():
        degree = taps[0]
        fill = draw_fill(data, degree)
        reg = Lfsr(taps, fill)
        for _ in range(degree):
            reg.clock()
        t, t2, t4 = (lfsr._step_power(taps, i).to_dense().astype(np.int64) for i in range(3))
        assert np.array_equal((fill @ t) % 2, reg.state)
        assert np.array_equal(t2, (t @ t) % 2)
        assert np.array_equal(t4, (t2 @ t2) % 2)


def clocked_syndromes(reg: Lfsr, count: int) -> np.ndarray:
    """Reference stream: each syndrome is the state, then ``degree`` clocks."""
    out = []
    for _ in range(count):
        out.append(reg.state)
        for _ in range(reg.degree):
            reg.clock()
    return np.array(out, dtype=np.uint8).reshape(count, reg.degree)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_syndromes_and_skip_match_single_clocks(data):
    for taps in DEFAULT_TAPS.values():
        degree = taps[0]
        fill = draw_fill(data, degree)
        count = data.draw(st.integers(0, 40))
        jump = data.draw(st.integers(0, 40))
        reg, ref = Lfsr(taps, fill), Lfsr(taps, fill)
        assert np.array_equal(reg.syndromes(count), clocked_syndromes(ref, count))
        reg.skip(jump)
        clocked_syndromes(ref, jump)
        assert np.array_equal(reg.state, ref.state)
        assert np.array_equal(reg.syndromes(2), clocked_syndromes(ref, 2))


@settings(max_examples=30)
@given(a=st.integers(0, 2**64), b=st.integers(0, 2**64))
def test_skips_add(a, b):
    for degree in (5, 16, 256):
        taps = taps_for_degree(degree)
        fill = np.zeros(degree, dtype=np.uint8)
        fill[[0, degree // 3]] = 1
        split, whole = Lfsr(taps, fill), Lfsr(taps, fill)
        split.skip(a)
        split.skip(b)
        whole.skip(a + b)
        assert np.array_equal(split.state, whole.state)
        if degree < 256:
            # a primitive register's block steps cycle with its period
            reduced = Lfsr(taps, fill)
            reduced.skip((a + b) % lfsr_period(taps))
            assert np.array_equal(reduced.state, whole.state)


def test_syndromes_batch_equals_stepping():
    state = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
    a = Lfsr((8, 4, 3, 2), state)
    b = Lfsr((8, 4, 3, 2), state)
    batch = a.syndromes(40)
    single = np.stack([b.next_syndrome() for _ in range(40)])
    assert np.array_equal(batch, single)
    # both registers end in the same state
    assert np.array_equal(a.state, b.state)


def test_state_never_reaches_zero():
    reg = Lfsr((6, 1), np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8))
    for _ in range(200):
        reg.clock()
        assert reg.state.any()


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        Lfsr((4, 1), np.zeros(4, dtype=np.uint8))


def test_default_taps_all_primitive_up_to_brute_force_limit():
    for degree, taps in DEFAULT_TAPS.items():
        if degree > 16:
            continue  # published-table entries, beyond the brute-force check
        assert lfsr_period(taps) == (1 << degree) - 1
        assert is_primitive(taps)


def test_non_primitive_taps_detected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
    assert lfsr_period((4, 2)) == 6
    assert not is_primitive((4, 2))


def test_degree_256_register_runs():
    taps = taps_for_degree(256)
    assert taps == (256, 254, 251, 246)
    state = np.zeros(256, dtype=np.uint8)
    state[0] = 1
    reg = Lfsr(taps, state)
    syn = reg.syndromes(3)
    assert syn.shape == (3, 256)
    assert np.array_equal(syn[0], state)
    # deterministic restart
    reg2 = Lfsr(taps, state)
    assert np.array_equal(reg2.syndromes(3), syn)


def test_taps_for_degree_unknown_raises():
    with pytest.raises(ValueError):
        taps_for_degree(23)


def test_validate_taps():
    assert validate_taps((1, 4)) == (4, 1)
    assert validate_taps((4, 4, 1)) == (4, 1)
    with pytest.raises(ValueError):
        validate_taps(())
    with pytest.raises(ValueError):
        validate_taps((4, 0))

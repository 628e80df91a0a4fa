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


def test_block_step_matrix_built_once_per_tap_set():
    lfsr._block_step_matrix.cache_clear()
    taps = taps_for_degree(12)
    first = Lfsr(taps, np.eye(12, dtype=np.uint8)[0]).syndromes(3)
    second = Lfsr(taps, np.eye(12, dtype=np.uint8)[0]).syndromes(3)
    info = lfsr._block_step_matrix.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(first, second)


@settings(max_examples=25)
@given(st.data())
def test_block_step_matrix_is_degree_single_clocks(data):
    for taps in DEFAULT_TAPS.values():
        degree = taps[0]
        word = data.draw(st.integers(1, (1 << degree) - 1))
        fill = ((word >> np.arange(degree)) & 1).astype(np.uint8)
        reg = Lfsr(taps, fill)
        for _ in range(degree):
            reg.clock()
        assert np.array_equal(lfsr._block_step_matrix(taps).vecmat(fill), reg.state)


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

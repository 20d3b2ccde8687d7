"""The band kernels of the lumped count chains: the left-looking elimination
and its band storage against the dense right-looking oracle, and the memory
of an exact profile."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import dense_gth_stationary
from cutpaste.chains import EhrenfestParams
from cutpaste.errors import ValidationError
from cutpaste.lumped import _gth, _stationary
from cutpaste.tvlab import ehrenfest_tv_profile


def _band_to_dense(moves: np.ndarray) -> np.ndarray:
    size, width = moves.shape
    a = width // 2
    dense = np.zeros((size, size + 2 * a))
    for j in range(size):
        dense[j, j : j + width] = moves[j]
    return dense[:, a : a + size]


@st.composite
def _banded_chains(draw):
    """A stochastic matrix on at most 40 states whose moves shift the state
    by at most band < size, as its band: small integer weights, a fifth of
    them 0, each row normalised; a row with no weight stays put."""
    size = draw(st.integers(2, 40))
    band = draw(st.integers(1, min(8, size - 1)))
    moves = draw(arrays(np.float64, (size, 2 * band + 1), elements=st.integers(0, 4)))
    target = np.arange(size)[:, None] + np.arange(-band, band + 1)
    moves[(target < 0) | (target >= size)] = 0.0
    totals = moves.sum(axis=1)
    moves[totals == 0, band] = 1.0
    return moves / moves.sum(axis=1, keepdims=True), band


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_banded_chains())
def test_left_looking_gth_matches_the_right_looking_oracle(chain):
    moves, band = chain
    dense = _band_to_dense(moves)
    try:
        want = dense_gth_stationary(dense)
    except ValueError as refusal:
        for solve in (lambda: _gth(dense.copy(), band), lambda: _stationary(moves)):
            with pytest.raises(ValidationError, match=f"^{refusal}:"):
                solve()
        return
    assert np.max(np.abs(_gth(dense.copy(), band) - want)) <= 1e-14
    assert np.max(np.abs(_stationary(moves) - want)) <= 1e-14


def test_exact_profile_memory_is_linear_in_the_band():
    # one (n+1)^2 matrix at n = 1100 alone is 9.3 MiB; the moves, the
    # incoming band and the elimination's band storage are 0.2, 0.2 and
    # 0.4 MiB here
    params = EhrenfestParams(1100, 0.01)
    assert params.batch_size == 11
    tracemalloc.start()
    try:
        ehrenfest_tv_profile(params, [0, 10, 100])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

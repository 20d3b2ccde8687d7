"""The band kernels of the lumped count chains: the left-looking elimination
and its band storage against the dense right-looking oracle, the blocked
sweep and its band powers against the one-step oracle sweep and dense
matrix powers, and the memory and the stepping calls of an exact
profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import dense_gth_stationary, one_step_sweep
from cutpaste import lumped
from cutpaste.chains import EhrenfestParams, standard_ehrenfest
from cutpaste.errors import ValidationError
from cutpaste.lumped import _band_power, _gth, _half_l1, _stationary, _sweep
from cutpaste.tvlab import ehrenfest, ehrenfest_tv_profile
from cutpaste.tvlab.ehrenfest import _block_length, _one_count_chain


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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_banded_chains(), st.sampled_from([1, 2, 4, 8, 16]),
       st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
def test_blocked_sweep_matches_the_one_step_oracle(chain, b, horizons):
    moves, band = chain
    dense = _band_to_dense(moves)
    power = _band_to_dense(_band_power(moves, b))
    assert np.max(np.abs(power - np.linalg.matrix_power(dense, b))) <= 1e-15
    row = np.zeros(len(moves))
    row[-1] = 1.0
    horizons = sorted(horizons)
    oracle = one_step_sweep(moves, row)
    want, t = row, 0
    for horizon, (got_t, got) in zip(horizons, _sweep(moves, row, horizons, b), strict=True):
        for t in range(t, horizon):
            want = next(oracle)
        t = horizon
        assert got_t == horizon
        assert np.max(np.abs(got - want)) <= 1e-15
        # one path to each horizon: the same bits when it is asked alone
        ((_, alone),) = _sweep(moves, row, [horizon], b)
        assert np.array_equal(got, alone)


@pytest.mark.parametrize("n,a", [(320, 80), (256, 64), (1100, 11)])
def test_a_chain_of_block_length_one_takes_the_oracle_values(n, a):
    params = EhrenfestParams(n, a / n)
    assert params.batch_size == a and _block_length(n, a) == 1
    moves, pi, row, _ = _one_count_chain(params)
    grid = [0, 1, 2, 5, 9, 17, 30]
    laws = one_step_sweep(moves, row)
    law, t, want = row, 0, []
    for horizon in grid:
        for t in range(t, horizon):
            law = next(laws)
        t = horizon
        want.append(_half_l1(law - pi))
    assert [est.value for _, est in ehrenfest_tv_profile(params, grid)] == want


def test_the_standard_profile_steps_by_blocks(monkeypatch):
    # the four horizons of the benchmark's single-site n = 320 query take
    # 1385 one-step calls; with blocks of 32 steps, 43 block calls and 46
    # single steps inside blocks
    n = 320
    horizons = [math.ceil(c * n * math.log(n)) for c in (0.25, 0.4, 0.6, 0.75)]
    assert horizons[-1] == 1385 and _block_length(n, 1) == 32
    calls = []
    advance = lumped._advance
    monkeypatch.setattr(lumped, "_advance", lambda band, law: calls.append(1) or advance(band, law))
    ehrenfest_tv_profile(standard_ehrenfest(n), horizons)
    assert len(calls) <= 100


def test_exact_profile_memory_is_linear_in_the_band(traced_peak):
    # one (n+1)^2 matrix at n = 1100 alone is 9.3 MiB. At a = 11 the moves,
    # the incoming band and the elimination's band storage are 0.2, 0.2 and
    # 0.4 MiB; at a = 1 the band of K^8 is 0.1 MiB. Each call is cold, so
    # the elimination runs inside the traced peak
    for params, a in [(EhrenfestParams(1100, 0.01), 11), (standard_ehrenfest(1100), 1)]:
        assert params.batch_size == a
        ehrenfest._stationary_laws.clear()
        assert traced_peak(ehrenfest_tv_profile, params, [0, 10, 100]) < 2**20

"""Tests for the range-sum axis memo (:mod:`repro.reconstruct.rangesum`).

The memo must be invisible: every memoised weight vector and compiled
axis equals what the unmemoised builders produce, entry for entry and
in the same order (that order is the summation order of the range-sum
contraction, so bit identity depends on it); shared entries cannot be
written through; and the memo stays within its capacity.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.plans import _PlanLRU
from repro.reconstruct import rangesum
from repro.reconstruct.rangesum import (
    AXIS_MEMO_CAPACITY,
    _build_weights,
    range_sum_axis,
    range_sum_memo_info,
    range_sum_standard,
    range_sum_weights,
)
from repro.service.replay import build_store
from repro.tiling.standard import StandardTiling

SIZES = (1, 2, 4, 8, 16, 32, 64)


def _boxes(size):
    return [
        (low, high) for low in range(size) for high in range(low, size)
    ]


@pytest.fixture(autouse=True)
def cold_memo():
    rangesum._MEMO.clear()
    yield
    rangesum._MEMO.clear()


def test_memoised_weights_equal_the_builder_everywhere():
    for size in SIZES:
        for low, high in _boxes(size):
            want_indices, want_weights = _build_weights(size, low, high)
            for __ in range(2):  # cold, then warm
                indices, weights = range_sum_weights(size, low, high)
                assert indices.dtype == want_indices.dtype
                assert weights.dtype == want_weights.dtype
                assert np.array_equal(indices, want_indices)
                assert np.array_equal(weights, want_weights)


def test_memoised_axes_equal_the_unmemoised_location_everywhere():
    for size in SIZES[1:]:
        edges = [1 << b for b in range(1, size.bit_length())]
        for edge in edges:
            tiling = StandardTiling((size,), edge)
            for low, high in _boxes(size):
                indices, weights = _build_weights(size, low, high)
                bands, roots, slots = tiling.locate_axis_indices(0, indices)
                axis = range_sum_axis(tiling, 0, low, high)
                assert axis is range_sum_axis(tiling, 0, low, high)
                assert np.array_equal(axis.indices, indices)
                assert np.array_equal(axis.weights, weights)
                assert np.array_equal(axis.located.slots, slots)
                assert axis.parts == tuple(sorted(
                    {(int(b), int(r)) for b, r in zip(bands, roots)}
                ))
                # every entry's group names its own tile part
                assert [axis.parts[g] for g in axis.located.group] == [
                    (int(b), int(r)) for b, r in zip(bands, roots)
                ]


def test_cached_arrays_are_read_only():
    indices, weights = range_sum_weights(64, 5, 40)
    axis = range_sum_axis(StandardTiling((64, 64), 4), 1, 5, 40)
    arrays = [indices, weights, axis.indices, axis.weights]
    arrays += [axis.located.group, axis.located.slots]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_invalid_bounds_raise_and_are_not_cached():
    for __ in range(2):
        with pytest.raises(ValueError):
            range_sum_weights(8, 5, 3)
        with pytest.raises(ValueError):
            range_sum_axis(StandardTiling((8,), 2), 0, 0, 8)
    assert rangesum._MEMO.info()["size"] == 0


def test_module_memo_never_exceeds_its_cap():
    tiling = StandardTiling((64,), 4)
    for size in SIZES:
        for low, high in _boxes(size):
            range_sum_weights(size, low, high)
            info = range_sum_memo_info()
            assert info["size"] <= AXIS_MEMO_CAPACITY
    for low, high in _boxes(64):
        range_sum_axis(tiling, 0, low, high)
    info = range_sum_memo_info()
    assert info["capacity"] == AXIS_MEMO_CAPACITY
    assert info["misses"] > AXIS_MEMO_CAPACITY  # it really evicted
    assert info["size"] == AXIS_MEMO_CAPACITY


def test_small_memo_evicts_least_recently_used():
    memo = _PlanLRU(capacity=3)
    for key in range(3):
        memo.get_or_build((key,), lambda key=key: key)
    memo.get_or_build((0,), lambda: "rebuilt")  # touch: 1 is now oldest
    memo.get_or_build((3,), lambda: 3)
    assert memo.info()["size"] == 3
    assert memo.get_or_build((0,), lambda: "rebuilt") == 0
    assert memo.get_or_build((1,), lambda: "rebuilt") == "rebuilt"


def test_concurrent_lookups_agree_and_stay_bounded():
    memo = _PlanLRU(capacity=16)
    errors = []
    threads, steps = 6, 2000
    barrier = threading.Barrier(threads)

    def hammer(seed):
        barrier.wait()
        for step in range(steps):
            key = (step * (seed + 1)) % 40
            if memo.get_or_build((key,), lambda key=key: key * 2) != key * 2:
                errors.append(key)

    workers = [
        threading.Thread(target=hammer, args=(s,)) for s in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    info = memo.info()
    assert info["hits"] + info["misses"] == threads * steps  # no lost count
    assert info["size"] <= 16


def test_range_sum_is_bit_identical_cold_and_warm():
    store, data = build_store(shape=(32, 16), block_edge=4, seed=4)
    boxes = [((0, 0), (31, 15)), ((3, 5), (20, 9)), ((7, 2), (7, 2))]
    cold = []
    for lows, highs in boxes:
        rangesum._MEMO.clear()
        cold.append(range_sum_standard(store, lows, highs))
    warm = [range_sum_standard(store, lows, highs) for lows, highs in boxes]
    assert cold == warm
    for (lows, highs), value in zip(boxes, warm):
        box = data[lows[0]:highs[0] + 1, lows[1]:highs[1] + 1]
        assert value == pytest.approx(box.sum(), rel=1e-9, abs=1e-9)

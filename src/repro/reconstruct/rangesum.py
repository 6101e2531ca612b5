"""Range-sum queries against stored transforms (paper, Lemma 2).

Haar wavelets have a vanishing 0-th moment, so a detail coefficient
contributes to a range sum only when the range cuts its support: at
most two details per level per axis.  A 1-d range sum therefore needs
at most ``2 log N + 1`` coefficients; standard-form multidimensional
range sums need the cross product of the per-axis boundary sets —
the OLAP workload the paper's tiling is designed for.

Because the boundary sets factor per axis (Section 3.2), each axis of
a range sum is compiled once — weights, tile slots and tile-part
groups — and the read-only result is memoised by the axis' geometry
and bounds, so the batch planner and the executor of the same query
(and every later query sharing the axis) reuse one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.plans import _PlanLRU
from repro.storage.scatter import AxisTiles, group_axis_indices
from repro.storage.tiled import TiledStandardStore
from repro.util.bits import ilog2
from repro.wavelet.layout import SCALING_INDEX

__all__ = [
    "AXIS_MEMO_CAPACITY",
    "RangeSumAxis",
    "range_sum_axis",
    "range_sum_memo_info",
    "range_sum_weights",
    "range_sum_standard",
    "range_sum_nonstandard",
]

#: Entries the range-sum memo keeps (weights and compiled axes
#: together).  The perfbench serving workloads touch 184
#: (``olap-drilldown``) and 192 (``olap-cold-durable``) distinct keys,
#: at most 34 in one request, and an LRU replay of their key streams
#: reaches its unbounded hit rate from 256 entries.  1024 keeps four
#: times that at about 1-2 KB an entry.
AXIS_MEMO_CAPACITY = 1024

#: The shared memo; its entries are pure functions of their keys.
_MEMO = _PlanLRU(capacity=AXIS_MEMO_CAPACITY, name="rangesum")


def range_sum_memo_info() -> Dict[str, float]:
    """The memo's size, capacity, hits, misses, evictions and builds."""
    return _MEMO.info()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _overlap(lo: int, hi: int, start: int, stop: int) -> int:
    """Length of ``[lo, hi) ∩ [start, stop)``."""
    return max(0, min(hi, stop) - max(lo, start))


def _build_weights(
    size: int, low: int, high: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Unmemoised :func:`range_sum_weights`."""
    n = ilog2(size)
    if not 0 <= low <= high < size:
        raise ValueError(
            f"need 0 <= low <= high < {size}, got [{low}, {high}]"
        )
    indices: List[int] = [SCALING_INDEX]
    weights: List[float] = [float(high - low + 1)]
    for level in range(1, n + 1):
        for position in {low >> level, high >> level}:
            start = position << level
            mid = start + (1 << (level - 1))
            stop = start + (1 << level)
            net = _overlap(low, high + 1, start, mid) - _overlap(
                low, high + 1, mid, stop
            )
            if net:
                indices.append((1 << (n - level)) + position)
                weights.append(float(net))
    return (
        _read_only(np.asarray(indices, dtype=np.int64)),
        _read_only(np.asarray(weights, dtype=np.float64)),
    )


def range_sum_weights(
    size: int, low: int, high: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and weights so that ``sum(data[low:high+1])`` equals the
    dot product of the returned weights with the flat transform at the
    returned indices.

    At most ``2n + 1`` entries (Lemma 2).  Memoised: the arrays are
    shared and read-only, and their entry order is the summation order
    of every contraction over them.
    """
    size, low, high = int(size), int(low), int(high)
    return _MEMO.get_or_build(
        ("weights", size, low, high),
        lambda: _build_weights(size, low, high),
    )


@dataclass(frozen=True)
class RangeSumAxis:
    """One range-sum axis compiled against a tiling; arrays read-only.

    ``indices`` / ``weights`` are :func:`range_sum_weights`' entries;
    ``located`` is the axis' tile grouping that
    :meth:`TiledStandardStore.read_region` accepts pre-computed; and
    ``parts`` the sorted tile parts the axis touches (the planner's
    per-axis tile set).
    """

    indices: np.ndarray
    weights: np.ndarray
    located: AxisTiles

    @property
    def parts(self) -> Tuple[Tuple[int, int], ...]:
        return self.located.parts


def _build_axis(dim, low: int, high: int) -> RangeSumAxis:
    """Unmemoised :func:`range_sum_axis` over a one-axis tiling."""
    indices, weights = range_sum_weights(dim.size, low, high)
    parts, group, slots = group_axis_indices(dim, indices)
    return RangeSumAxis(
        indices=indices,
        weights=weights,
        located=AxisTiles(parts, _read_only(group), _read_only(slots)),
    )


def range_sum_axis(tiling, axis: int, low: int, high: int) -> RangeSumAxis:
    """The memoised :class:`RangeSumAxis` of ``[low, high]`` on ``axis``
    of a :class:`~repro.tiling.standard.StandardTiling`.

    Keyed by the axis' geometry (extent and tile edge, which fix its
    one-dimensional tiling) and the bounds.
    """
    dim = tiling.dim(axis)
    low, high = int(low), int(high)
    return _MEMO.get_or_build(
        ("axis", dim.size, dim.block_edge, low, high),
        lambda: _build_axis(dim, low, high),
    )


def range_sum_standard(
    store, lows: Sequence[int], highs: Sequence[int]
) -> float:
    """Standard-form multidimensional range sum over the box
    ``[lows, highs]`` (inclusive per axis)."""
    shape = store.shape
    if len(lows) != len(shape) or len(highs) != len(shape):
        raise ValueError("lows/highs must match the store rank")
    if isinstance(store, TiledStandardStore):
        axes = [
            range_sum_axis(store.tiling, axis, low, high)
            for axis, (low, high) in enumerate(zip(lows, highs))
        ]
        block = store.read_region(
            [axis.indices for axis in axes],
            located=[axis.located for axis in axes],
        )
        axis_weights = [axis.weights for axis in axes]
    else:
        terms = [
            range_sum_weights(extent, low, high)
            for extent, low, high in zip(shape, lows, highs)
        ]
        block = store.read_region([indices for indices, __ in terms])
        axis_weights = [weights for __, weights in terms]
    for weights in reversed(axis_weights):
        block = block @ weights
    return float(block)


def range_sum_nonstandard(
    store, lows: Sequence[int], highs: Sequence[int]
) -> float:
    """Non-standard multidimensional range sum over ``[lows, highs]``.

    A detail of type ``mask`` at level ``j`` contributes the product of
    per-axis factors: the signed half-overlap for differenced axes
    (nonzero only at the two range boundaries) and the plain overlap
    count for smooth axes.  The overall average contributes the box's
    cell count.
    """
    size = store.size
    ndim = store.ndim
    n = ilog2(size)
    lows = [int(x) for x in lows]
    highs = [int(x) for x in highs]
    if any(not 0 <= lo <= hi < size for lo, hi in zip(lows, highs)):
        raise ValueError(f"invalid box [{lows}, {highs}] for size {size}")

    cells = 1.0
    for lo, hi in zip(lows, highs):
        cells *= hi - lo + 1
    total = store.read_scaling() * cells

    for level in range(1, n + 1):
        width = 1 << level
        half = width >> 1
        node_ranges = [
            (lo >> level, hi >> level) for lo, hi in zip(lows, highs)
        ]
        # Per-axis factors for every candidate node position.
        smooth_factors = []
        diff_boundaries = []  # [(position, factor), ...] per axis
        for axis in range(ndim):
            first, last = node_ranges[axis]
            positions = np.arange(first, last + 1, dtype=np.int64)
            starts = positions << level
            smooth = np.asarray(
                [
                    _overlap(lows[axis], highs[axis] + 1, s, s + width)
                    for s in starts
                ],
                dtype=np.float64,
            )
            smooth_factors.append(smooth)
            boundaries = []
            for position in {first, last}:
                start = position << level
                net = _overlap(
                    lows[axis], highs[axis] + 1, start, start + half
                ) - _overlap(
                    lows[axis], highs[axis] + 1, start + half, start + width
                )
                if net:
                    boundaries.append((position, float(net)))
            diff_boundaries.append(boundaries)

        for type_mask in range(1, 1 << ndim):
            # Differenced axes contribute only at the (<= 2) range
            # boundaries; smooth axes span their whole node range and
            # are read as one contiguous region per boundary combo.
            mask_axes = [
                axis for axis in range(ndim) if (type_mask >> axis) & 1
            ]
            if any(not diff_boundaries[axis] for axis in mask_axes):
                continue
            boundary_choices = [diff_boundaries[axis] for axis in mask_axes]
            for picks in np.ndindex(*[len(c) for c in boundary_choices]):
                node_start = [0] * ndim
                node_counts = [0] * ndim
                weight_vectors = []
                boundary_weight = 1.0
                for choice_index, axis in enumerate(mask_axes):
                    position, factor = boundary_choices[choice_index][
                        picks[choice_index]
                    ]
                    node_start[axis] = position
                    node_counts[axis] = 1
                    boundary_weight *= factor
                for axis in range(ndim):
                    if (type_mask >> axis) & 1:
                        weight_vectors.append(np.ones(1))
                        continue
                    first, last = node_ranges[axis]
                    node_start[axis] = first
                    node_counts[axis] = last - first + 1
                    weight_vectors.append(smooth_factors[axis])
                block = store.read_details(
                    level, type_mask, node_start, node_counts
                )
                for weights in reversed(weight_vectors):
                    block = block @ weights
                total += boundary_weight * float(block)
    return float(total)

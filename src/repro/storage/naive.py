"""Naive coefficient blocking — the ablation baseline for tiling.

Instead of the paper's wavelet-tree subtree tiles, coefficients are
packed into blocks by plain index geometry: block key is
``index // B`` per axis.  Coefficients that are far apart in the tree
(and never co-accessed) share blocks, while a root path crosses many
blocks — exactly the utilisation problem Section 3's tiling fixes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.storage.iostats import IOStats
from repro.storage.scatter import (
    AxisTiles,
    CompiledRegion,
    compile_region,
    row_major_strides,
)
from repro.storage.tile_store import TileStore
from repro.util.bits import ilog2
from repro.util.validation import require_power_of_two_shape

__all__ = ["NaiveBlockedStandardStore"]


class NaiveBlockedStandardStore:
    """Standard-form transform in row-major index-space blocks.

    Implements the same region interface as
    :class:`~repro.storage.tiled.TiledStandardStore` so queries and
    maintenance algorithms run unchanged against it.
    """

    def __init__(
        self,
        shape: Sequence[int],
        block_edge: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
    ) -> None:
        self._shape = require_power_of_two_shape(shape)
        self._edge = block_edge
        ilog2(block_edge)
        for axis, extent in enumerate(self._shape):
            if block_edge > extent:
                raise ValueError(
                    f"block_edge {block_edge} exceeds extent {extent} "
                    f"of axis {axis}"
                )
        self._store = TileStore(
            block_slots=block_edge ** len(self._shape),
            pool_capacity=pool_capacity,
            stats=stats,
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def stats(self) -> IOStats:
        return self._store.stats

    @property
    def tile_store(self) -> TileStore:
        return self._store

    def flush(self) -> None:
        self._store.flush()

    def drop_cache(self) -> None:
        self._store.drop_cache()

    def _compile(self, per_axis: Sequence[np.ndarray]) -> CompiledRegion:
        if len(per_axis) != self.ndim:
            raise ValueError(
                f"need {self.ndim} index arrays, got {len(per_axis)}"
            )
        axes = []
        for axis, indices in enumerate(per_axis):
            flat = np.asarray(indices, dtype=np.int64)
            if np.unique(flat).size != flat.size:
                raise ValueError(
                    f"axis {axis} index array contains duplicates"
                )
            blocks, group = np.unique(flat // self._edge, return_inverse=True)
            slots = flat % self._edge
            axes.append(
                AxisTiles(tuple(blocks.tolist()), group.reshape(-1), slots)
            )
        return compile_region(
            axes, row_major_strides((self._edge,) * self.ndim)
        )

    def _update_region(self, per_axis, values, accumulate: bool) -> None:
        values = np.asarray(values, dtype=np.float64)
        region = self._compile(per_axis)
        region.scatter(self._store, values.reshape(-1), accumulate)

    def set_region(self, per_axis, values) -> None:
        self._update_region(per_axis, values, accumulate=False)

    def add_region(self, per_axis, values) -> None:
        self._update_region(per_axis, values, accumulate=True)

    def read_region(self, per_axis) -> np.ndarray:
        out = np.zeros(
            tuple(np.asarray(axis).size for axis in per_axis),
            dtype=np.float64,
        )
        self._compile(per_axis).gather(self._store, out.reshape(-1))
        return out

    def read_point(self, position: Sequence[int]) -> float:
        key = tuple(int(i) // self._edge for i in position)
        slot = 0
        for coordinate in position:
            slot = slot * self._edge + int(coordinate) % self._edge
        return self._store.read_slot(key, slot)

    def write_point(self, position: Sequence[int], value: float) -> None:
        key = tuple(int(i) // self._edge for i in position)
        slot = 0
        for coordinate in position:
            slot = slot * self._edge + int(coordinate) % self._edge
        self._store.write_slot(key, slot, value)

    def to_array(self) -> np.ndarray:
        """Uncounted dense snapshot (verification only)."""
        saved = self.stats.snapshot()
        dense = np.zeros(self._shape, dtype=np.float64)
        edge_shape = (self._edge,) * self.ndim
        for key in list(self._store.keys()):
            tile = self._store.peek(key)
            selector = tuple(
                slice(block * self._edge, (block + 1) * self._edge)
                for block in key
            )
            dense[selector] = tile.reshape(edge_shape)
        self.stats.block_reads = saved.block_reads
        self.stats.block_writes = saved.block_writes
        self.stats.cache_hits = saved.cache_hits
        self.stats.cache_misses = saved.cache_misses
        return dense

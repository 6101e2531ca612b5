"""Tiled (block-granularity) coefficient stores.

These stores present the same region/key interfaces as their dense
counterparts in :mod:`repro.storage.dense`, but persist coefficients in
tile blocks through a :class:`~repro.storage.tile_store.TileStore`, so
that the I/O counters measure *disk blocks* under the paper's optimal
allocation strategy (Section 3).  Every region operation compiles its
region with :func:`repro.storage.scatter.compile_region` and moves
whole blocks, one fetch per touched tile, exactly as the paper's tiled
SHIFT-SPLIT does (Section 4.2).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.iostats import IOStats
from repro.storage.scatter import (
    AxisTiles,
    CompiledRegion,
    compile_region,
    group_axis_indices,
    row_major_strides,
)
from repro.storage.tile_store import TileStore
from repro.tiling.nonstandard import NonStandardTiling
from repro.tiling.standard import StandardTiling
from repro.wavelet.keys import NonStandardKey

__all__ = ["TiledStandardStore", "TiledNonStandardStore"]

#: Debug env var forcing duplicate-index validation on for every tiled
#: region call (see :class:`TiledStandardStore`'s ``validate_regions``).
VALIDATE_ENV = "REPRO_VALIDATE_REGIONS"


def _env_validate_default() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


class TiledStandardStore:
    """Standard-form transform stored in cross-product tiles.

    Mirrors :class:`~repro.storage.dense.DenseStandardStore`'s interface
    (``set_region`` / ``add_region`` / ``read_region`` / point ops) so
    the maintenance algorithms are store-agnostic.
    """

    def __init__(
        self,
        shape: Sequence[int],
        block_edge: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
        validate_regions: Optional[bool] = None,
        device=None,
    ) -> None:
        self._tiling = StandardTiling(shape, block_edge)
        self._edge = block_edge
        self._store = TileStore(
            block_slots=self._tiling.block_slots,
            pool_capacity=pool_capacity,
            stats=stats,
            device=device,
        )
        # Duplicate-index validation costs an np.unique per axis on
        # every region call; plan-driven traffic is duplicate-free by
        # construction, so the check is opt-in (constructor flag, or
        # the REPRO_VALIDATE_REGIONS env var for debugging).
        self._validate_regions = (
            _env_validate_default()
            if validate_regions is None
            else bool(validate_regions)
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._tiling.shape

    @property
    def ndim(self) -> int:
        return self._tiling.ndim

    @property
    def tiling(self) -> StandardTiling:
        return self._tiling

    @property
    def tile_store(self) -> TileStore:
        return self._store

    @property
    def stats(self) -> IOStats:
        return self._store.stats

    def flush(self) -> None:
        self._store.flush()

    def drop_cache(self) -> None:
        self._store.drop_cache()

    # ------------------------------------------------------------------

    def _compile(
        self,
        per_axis: Sequence[np.ndarray],
        validate: Optional[bool] = None,
        located: Optional[Sequence[AxisTiles]] = None,
    ) -> CompiledRegion:
        """Compile the cross-product region ``per_axis``.

        ``validate`` overrides the store's duplicate-index check for
        this call (``None`` = store default).  Duplicated positions
        would make fancy-index accumulation silently drop updates, so
        turn the check on when handing the store untrusted index sets.
        ``located`` supplies every axis' :class:`AxisTiles` already
        computed for ``per_axis``, skipping location and validation.
        """
        if len(per_axis) != self.ndim:
            raise ValueError(
                f"need {self.ndim} index arrays, got {len(per_axis)}"
            )
        if located is None:
            check = self._validate_regions if validate is None else validate
            located = [
                group_axis_indices(self._tiling.dim(axis), indices, check)
                for axis, indices in enumerate(per_axis)
            ]
        return compile_region(
            located, row_major_strides((self._edge,) * self.ndim)
        )

    def _update_region(
        self,
        per_axis: Sequence[np.ndarray],
        values: np.ndarray,
        accumulate: bool,
        validate: Optional[bool] = None,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        region = self._compile(per_axis, validate=validate)
        shape = tuple(np.asarray(axis).size for axis in per_axis)
        if values.shape != shape:
            raise ValueError(
                f"values of shape {values.shape} for a {shape} region"
            )
        region.scatter(self._store, values.reshape(-1), accumulate)

    def set_region(
        self,
        per_axis: Sequence[np.ndarray],
        values: np.ndarray,
        validate: Optional[bool] = None,
    ) -> None:
        """Overwrite the cross-product region, tile by tile."""
        self._update_region(per_axis, values, accumulate=False, validate=validate)

    def add_region(
        self,
        per_axis: Sequence[np.ndarray],
        values: np.ndarray,
        validate: Optional[bool] = None,
    ) -> None:
        """Accumulate into the cross-product region, tile by tile."""
        self._update_region(per_axis, values, accumulate=True, validate=validate)

    def read_region(
        self,
        per_axis: Sequence[np.ndarray],
        validate: Optional[bool] = None,
        located: Optional[Sequence[AxisTiles]] = None,
    ) -> np.ndarray:
        """Read the cross-product region, tile by tile.

        ``located`` optionally supplies every axis' :class:`AxisTiles`
        already computed for ``per_axis`` (as
        :func:`~repro.reconstruct.rangesum.range_sum_axis` memoises
        them), skipping the per-call location and validation.
        """
        region = self._compile(per_axis, validate=validate, located=located)
        out = np.zeros(
            tuple(np.asarray(axis).size for axis in per_axis),
            dtype=np.float64,
        )
        region.gather(self._store, out.reshape(-1))
        return out

    # ------------------------------------------------------------------

    def read_point(self, position: Sequence[int]) -> float:
        key, slot = self._tiling.locate(position)
        return self._store.read_slot(key, slot)

    def write_point(self, position: Sequence[int], value: float) -> None:
        key, slot = self._tiling.locate(position)
        self._store.write_slot(key, slot, value)

    def add_point(self, position: Sequence[int], delta: float) -> None:
        key, slot = self._tiling.locate(position)
        self._store.add_to_slot(key, slot, delta)

    def to_array(self) -> np.ndarray:
        """Uncounted dense snapshot (verification only).

        Decodes every materialised tile.  Per-axis slot 0 is a valid
        transform coefficient only for the per-axis *top* tile (where
        it holds the axis' overall-smooth direction, flat index 0);
        slot 0 of other tiles is the redundant scaling slot and is
        skipped.
        """
        saved = self.stats.snapshot()  # snapshots are free of I/O charges
        dense = np.zeros(self.shape, dtype=np.float64)
        edge_shape = (self._edge,) * self.ndim
        for key in list(self._store.keys()):
            tile = self._store.peek(key)
            view = tile.reshape(edge_shape)
            axis_slots: List[np.ndarray] = []
            axis_flats: List[np.ndarray] = []
            usable = True
            for axis, part in enumerate(key):
                tiling = self._tiling.dim(axis)
                slots = []
                flats = []
                band, root = part
                if band == tiling.num_bands - 1 and root == 0:
                    slots.append(0)
                    flats.append(0)
                for level, position, slot in tiling.details_of_tile(part):
                    slots.append(slot)
                    flats.append(
                        (1 << (tiling.levels - level)) + position
                    )
                if not slots:
                    usable = False
                    break
                axis_slots.append(np.asarray(slots, dtype=np.intp))
                axis_flats.append(np.asarray(flats, dtype=np.intp))
            if usable:
                dense[np.ix_(*axis_flats)] = view[np.ix_(*axis_slots)]
        self.stats.block_reads = saved.block_reads
        self.stats.block_writes = saved.block_writes
        self.stats.cache_hits = saved.cache_hits
        self.stats.cache_misses = saved.cache_misses
        return dense


class TiledNonStandardStore:
    """Non-standard transform stored in quadtree-subtree tiles.

    Mirrors :class:`~repro.storage.dense.DenseNonStandardStore`'s
    interface.
    """

    def __init__(
        self,
        size: int,
        ndim: int,
        block_edge: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
    ) -> None:
        self._tiling = NonStandardTiling(size, ndim, block_edge)
        self._store = TileStore(
            block_slots=self._tiling.block_slots,
            pool_capacity=pool_capacity,
            stats=stats,
        )

    @property
    def size(self) -> int:
        return self._tiling.size

    @property
    def ndim(self) -> int:
        return self._tiling.ndim

    @property
    def tiling(self) -> NonStandardTiling:
        return self._tiling

    @property
    def tile_store(self) -> TileStore:
        return self._store

    @property
    def stats(self) -> IOStats:
        return self._store.stats

    def flush(self) -> None:
        self._store.flush()

    def drop_cache(self) -> None:
        self._store.drop_cache()

    # ------------------------------------------------------------------

    def _compile(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        node_counts: Sequence[int],
    ) -> CompiledRegion:
        """Compile a contiguous node region of one subband.

        A node's flat slot inside its tile is ``1 + (base + ordinal) *
        (D - 1) + (type_mask - 1)``: ``base`` counts the nodes above
        its depth in the tile's subtree and ``ordinal`` is its
        row-major position among the ``side^d`` nodes at that depth.
        """
        band = self._tiling.band_of_level(level)
        depth = self._tiling.band_root_level(band) - level
        side = 1 << depth
        details = self._tiling.branching - 1
        base = ((self._tiling.branching ** depth) - 1) // details
        axes = []
        for start, count in zip(node_start, node_counts):
            start, stop = int(start), int(start) + int(count)
            nodes = np.arange(start, stop)
            first, last = start >> depth, (stop - 1) >> depth
            axes.append(
                AxisTiles(
                    tuple(range(first, last + 1)),
                    (nodes >> depth) - first,
                    nodes & (side - 1),
                )
            )
        ndim = self._tiling.ndim
        return compile_region(
            axes,
            [details * side ** (ndim - 1 - a) for a in range(ndim)],
            slot_base=1 + base * details + (type_mask - 1),
            tile_key=lambda roots: (band, roots),
        )

    def set_details(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        values: np.ndarray,
    ) -> None:
        """Overwrite a contiguous node region of one subband."""
        values = np.asarray(values, dtype=np.float64)
        region = self._compile(level, type_mask, node_start, values.shape)
        region.scatter(self._store, values.reshape(-1), accumulate=False)

    def read_details(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        node_counts: Sequence[int],
    ) -> np.ndarray:
        """Read a contiguous node region of one subband."""
        out = np.zeros(tuple(int(c) for c in node_counts), dtype=np.float64)
        region = self._compile(level, type_mask, node_start, out.shape)
        region.gather(self._store, out.reshape(-1))
        return out

    def add_detail(self, key: NonStandardKey, delta: float) -> None:
        tile, slot = self._tiling.locate_key(key)
        self._store.add_to_slot(tile, slot, delta)

    def set_detail(self, key: NonStandardKey, value: float) -> None:
        tile, slot = self._tiling.locate_key(key)
        self._store.write_slot(tile, slot, value)

    def read_detail(self, key: NonStandardKey) -> float:
        tile, slot = self._tiling.locate_key(key)
        return self._store.read_slot(tile, slot)

    def read_scaling(self) -> float:
        tile, slot = self._tiling.locate_scaling()
        return self._store.read_slot(tile, slot)

    def add_scaling(self, delta: float) -> None:
        tile, slot = self._tiling.locate_scaling()
        self._store.add_to_slot(tile, slot, delta)

    def set_scaling(self, value: float) -> None:
        tile, slot = self._tiling.locate_scaling()
        self._store.write_slot(tile, slot, value)

    def to_array(self) -> np.ndarray:
        """Uncounted dense Mallat-layout snapshot (verification only)."""
        saved = self.stats.snapshot()
        dense = np.zeros((self.size,) * self.ndim, dtype=np.float64)
        for key in list(self._store.keys()):
            tile = self._store.peek(key)
            for detail_key in self._tiling.keys_of_tile(key):
                __, slot = self._tiling.locate_key(detail_key)
                dense[detail_key.position(self.size)] = tile[slot]
        top_tile, top_slot = self._tiling.locate_scaling()
        stored = self._store.peek(top_tile)
        if stored is not None:
            dense[(0,) * self.ndim] = stored[top_slot]
        self.stats.block_reads = saved.block_reads
        self.stats.block_writes = saved.block_writes
        self.stats.cache_hits = saved.cache_hits
        self.stats.cache_misses = saved.cache_misses
        return dense

"""Batched query planning: map queries to tile sets, dedup fetches.

The paper's tiling guarantees every fetched block carries at least
``b`` useful coefficients *for one query*.  A serving workload adds a
second axis of I/O savings the single-query benchmarks never see:
concurrent queries overlap heavily on the coarse bands (every point
query reads the top tile; range sums share boundary tiles), so a batch
of N queries touches far fewer *distinct* blocks than N independent
executions fetch.  The planner makes that overlap explicit:

1. each query is mapped to the exact set of tile keys its execution
   will read, using the same factorisation the stores use (the tiles
   touched by a cross-product index set are the cross product of the
   per-axis touched tile sets);
2. the per-query sets are unioned into one fetch list, and the ratio
   ``total per-query tile references / unique tiles`` — the **dedup
   ratio** — is reported;
3. the engine prefetches the unique list once (pinning each block) and
   then executes every query against a warm, shared pool.

Planning is pure metadata: nothing here touches the device or charges
I/O.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.standard_ops import chunk_axis_maps
from repro.reconstruct.rangesum import range_sum_axis
from repro.service.queries import (
    CustomQuery,
    PointQuery,
    Query,
    RangeSumQuery,
    RegionQuery,
)
from repro.util.dyadic import dyadic_box_cover

__all__ = ["QueryPlan", "BatchPlan", "tiles_for_query", "plan_batch"]

TileKey = Tuple[Tuple[int, int], ...]


def _tiles_of_read(tiling, per_axis_indices: Sequence[np.ndarray]):
    """Tile keys covering one cross-product region read.

    The factorisation property (Section 3.2): the touched tile set is
    exactly the cross product of the per-axis touched tile sets.
    """
    per_axis_parts: List[List[Tuple[int, int]]] = []
    for axis, indices in enumerate(per_axis_indices):
        flat = np.asarray(indices, dtype=np.int64)
        bands, roots, __ = tiling.locate_axis_indices(axis, flat)
        parts = sorted({
            (int(band), int(root)) for band, root in zip(bands, roots)
        })
        per_axis_parts.append(parts)
    return set(itertools.product(*per_axis_parts))


def tiles_for_query(store, query: Query) -> FrozenSet[TileKey]:
    """The exact tile keys executing ``query`` against ``store`` reads.

    Mirrors the read patterns of :mod:`repro.reconstruct`:

    * point — cross product of per-axis root paths (Lemma 1);
    * range sum — cross product of per-axis boundary coefficient sets
      (Lemma 2), each axis compiled once through the memo the executor
      shares (:func:`~repro.reconstruct.rangesum.range_sum_axis`);
    * region — one cross-product read per piece of the canonical
      dyadic cover (Result 6);
    * custom — unknown, planned as the empty set.
    """
    tiling = store.tiling
    shape = store.shape
    if isinstance(query, PointQuery):
        if len(query.position) != len(shape):
            raise ValueError(
                f"position must have {len(shape)} axes, got {query.position}"
            )
        return frozenset(tiling.tiles_on_root_path(query.position))
    if isinstance(query, RangeSumQuery):
        axes = [
            range_sum_axis(tiling, axis, low, high)
            for axis, low, high in zip(
                range(len(shape)), query.lows, query.highs
            )
        ]
        return frozenset(itertools.product(*[axis.parts for axis in axes]))
    if isinstance(query, RegionQuery):
        tiles = set()
        for box in dyadic_box_cover(query.starts, query.stops):
            grid_position = [
                start // extent
                for start, extent in zip(box.starts, box.shape)
            ]
            maps = chunk_axis_maps(shape, box.shape, grid_position)
            tiles |= _tiles_of_read(tiling, [mp.target for mp in maps])
        return frozenset(tiles)
    if isinstance(query, CustomQuery):
        return frozenset()
    raise TypeError(f"unsupported query type: {type(query).__name__}")


@dataclass(frozen=True)
class QueryPlan:
    """One query plus the tile keys its execution will read."""

    query: Query
    tiles: FrozenSet[TileKey]


@dataclass(frozen=True)
class BatchPlan:
    """A batch's per-query plans and the deduplicated fetch list."""

    plans: Tuple[QueryPlan, ...]
    unique_tiles: Tuple[TileKey, ...]
    total_tile_refs: int

    @property
    def num_queries(self) -> int:
        return len(self.plans)

    @property
    def num_unique_tiles(self) -> int:
        return len(self.unique_tiles)

    @property
    def dedup_ratio(self) -> float:
        """Per-query tile references per unique tile; > 1 whenever
        queries overlap (1.0 for an empty or perfectly disjoint
        batch)."""
        if not self.unique_tiles:
            return 1.0
        return self.total_tile_refs / len(self.unique_tiles)

    def report(self) -> Dict[str, float]:
        """JSON-friendly summary for metrics and benchmarks."""
        return {
            "queries": self.num_queries,
            "tile_refs": self.total_tile_refs,
            "unique_tiles": self.num_unique_tiles,
            "dedup_ratio": self.dedup_ratio,
        }


def plan_batch(store, queries: Sequence[Query]) -> BatchPlan:
    """Plan a batch: per-query tile sets plus the deduplicated union.

    ``unique_tiles`` preserves first-reference order, which clusters
    tiles queried together — the engine re-orders by block id before
    prefetching anyway.
    """
    plans: List[QueryPlan] = []
    unique: Dict[TileKey, None] = {}
    total_refs = 0
    for query in queries:
        tiles = tiles_for_query(store, query)
        plans.append(QueryPlan(query=query, tiles=tiles))
        total_refs += len(tiles)
        for key in sorted(tiles):
            unique.setdefault(key, None)
    return BatchPlan(
        plans=tuple(plans),
        unique_tiles=tuple(unique),
        total_tile_refs=total_refs,
    )

"""One region compiler for both tiled stores.

The tiled stores persist coefficients in blocks, and the paper's tiled
SHIFT-SPLIT moves one whole block per touched tile (Section 4.2).  A
*region* is a cross product of per-axis positions: the index arrays of
:class:`~repro.storage.tiled.TiledStandardStore`'s ``set_region`` /
``add_region`` / ``read_region``, or the node ranges of
:class:`~repro.storage.tiled.TiledNonStandardStore`'s ``set_details`` /
``read_details``.  :func:`compile_region` turns a region into per-tile
index arrays in one pass:

1. every axis arrives grouped by tile part (:class:`AxisTiles`: the
   ascending distinct parts, each entry's part ordinal and its
   within-tile slot along the axis);
2. one broadcast gives every region entry its flat tile slot, its flat
   position in the caller's row-major value tensor, and its tile
   ordinal (mixed radix over the per-axis part ordinals, last axis
   fastest);
3. a stable argsort by tile ordinal gathers each tile's entries into
   one contiguous run.

The result, a :class:`CompiledRegion`, stores per touched tile two
parallel ``intp`` arrays: ``slots`` (flat coefficient slots inside the
tile's block) and ``source`` (flat positions inside the caller's value
tensor).  Applying it is one line per tile::

    tile_store.tile(key, for_write=True)[slots] += values_flat[source]

Tiles come in ascending per-axis part order, last axis fastest, so
every path fetches the same tiles in the same order and charges the
same :class:`~repro.storage.iostats.IOStats`; values are only moved,
never summed, so the stored coefficients are bit-identical whichever
caller compiled the region.  The chunk plans of :mod:`repro.core.plans`
compile each region once and replay it; the stores compile per call.
"""

from __future__ import annotations

from math import prod
from typing import (
    Any,
    Callable,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

from repro.tiling.onedim import OneDimTiling

#: A flat index array (tile slots, tensor positions, part ordinals).
Index = NDArray[np.intp]

__all__ = [
    "AxisTiles",
    "CompiledRegion",
    "compile_region",
    "group_axis_indices",
    "row_major_strides",
]


class AxisTiles(NamedTuple):
    """One axis of a region, grouped by tile part.

    ``parts`` holds the distinct tile parts the axis touches, ascending;
    ``group[i]`` is the ordinal in ``parts`` of entry ``i``'s part and
    ``slots[i]`` its within-tile slot along the axis.
    """

    parts: Tuple[Hashable, ...]
    group: Index
    slots: Index


def group_axis_indices(
    tiling: OneDimTiling, indices: NDArray[Any], validate: bool = True
) -> AxisTiles:
    """Locate one axis' flat transform indices and group them by
    ``(band, root)`` tile part.

    With ``validate`` (the default) raises ``ValueError`` on duplicate
    indices: a compiled region assumes each (tile, slot) pair is hit at
    most once, so fancy-index assignment and in-place ``+=`` are both
    exact.
    """
    flat = np.asarray(indices, dtype=np.int64)
    if validate and np.unique(flat).size != flat.size:
        raise ValueError("axis index array contains duplicates")
    bands, roots, slots = tiling.locate_indices(flat)
    span = int(roots.max()) + 1 if roots.size else 1
    codes, group = np.unique(bands * span + roots, return_inverse=True)
    parts = tuple((int(code) // span, int(code) % span) for code in codes)
    return AxisTiles(
        parts, group.reshape(-1).astype(np.intp), slots.astype(np.intp)
    )


def row_major_strides(shape: Sequence[int]) -> List[int]:
    """Element strides of a C-ordered array of ``shape``."""
    strides = [1] * len(shape)
    for axis in range(len(shape) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * int(shape[axis + 1])
    return strides


def compile_region(
    axes: Sequence[AxisTiles],
    slot_strides: Sequence[int],
    tensor_shape: Optional[Sequence[int]] = None,
    offsets: Optional[Sequence[int]] = None,
    slot_base: int = 0,
    tile_key: Optional[Callable[[Tuple[Hashable, ...]], Hashable]] = None,
) -> "CompiledRegion":
    """Compile the cross product of ``axes`` into per-tile index arrays.

    An entry's flat tile slot is ``slot_base`` plus the sum over axes
    of its axis slot times ``slot_strides[a]``; its tile key is the
    tuple of its per-axis parts, passed through ``tile_key`` if given.
    ``tensor_shape`` is the caller's full value tensor (``None``: the
    region itself), and ``offsets[a]`` shifts axis ``a``'s entries
    into it (a region covering tensor axis range ``[off, off + L)``
    passes ``off``).
    """
    ndim = len(axes)
    counts = [int(axis.group.size) for axis in axes]
    entries = prod(counts)
    if entries == 0:
        return CompiledRegion((), 0)
    radices = [len(axis.parts) for axis in axes]
    # Axis a contributes a column of shape (counts[a], 1, ..., 1) with
    # one trailing 1 per later axis, so the sums broadcast to the region.
    ordinal: Any = 0
    slot: Any = slot_base
    source: Any
    for a, axis in enumerate(axes):
        along = (-1,) + (1,) * (ndim - 1 - a)
        ordinal = ordinal * radices[a] + axis.group.reshape(along)
        slot = slot + (axis.slots * slot_strides[a]).reshape(along)
    ordinal = ordinal.reshape(-1)
    order = np.argsort(ordinal, kind="stable")
    ordinal = ordinal[order]
    slot = slot.reshape(-1)[order]
    source = order
    if tensor_shape is not None:
        source = np.zeros((1,) * ndim, dtype=np.intp)
        shifts = offsets or (0,) * ndim
        for a, stride in enumerate(row_major_strides(tensor_shape)):
            positions = np.arange(shifts[a], shifts[a] + counts[a])
            along = (-1,) + (1,) * (ndim - 1 - a)
            source = source + (positions * stride).reshape(along)
        source = source.reshape(-1)[order]
    starts = np.flatnonzero(ordinal[1:] != ordinal[:-1]) + 1
    bounds = [0, *starts.tolist(), entries]
    firsts = np.unravel_index(ordinal[bounds[:-1]], radices)
    combos = zip(
        *(
            [axis.parts[i] for i in ix.tolist()]
            for axis, ix in zip(axes, firsts)
        )
    )
    keys: List[Hashable] = [
        combo if tile_key is None else tile_key(combo) for combo in combos
    ]
    tiles = [
        (key, slot[start:stop], source[start:stop])
        for key, start, stop in zip(keys, bounds, bounds[1:])
    ]
    return CompiledRegion(tiles, entries)


class CompiledRegion:
    """One cross-product region compiled against one tile geometry.

    Attributes
    ----------
    tiles:
        ``(tile_key, slots, source)`` per touched tile, in ascending
        per-axis part order, last axis fastest.
    entries:
        Total number of coefficients the region moves.
    """

    __slots__ = ("tiles", "entries")

    def __init__(
        self,
        tiles: Sequence[Tuple[Hashable, Index, Index]],
        entries: int,
    ) -> None:
        self.tiles = tuple(tiles)
        self.entries = entries

    @classmethod
    def from_axis_groups(
        cls,
        axis_groups: Sequence[AxisTiles],
        axis_offsets: Sequence[int],
        tensor_shape: Sequence[int],
        block_edge: int,
    ) -> "CompiledRegion":
        """Compile a standard-form region: cross-product tiles of edge
        ``block_edge``, keyed by the tuple of per-axis parts (see
        :func:`compile_region` for the offsets and tensor shape)."""
        return compile_region(
            axis_groups,
            row_major_strides((block_edge,) * len(axis_groups)),
            tensor_shape,
            axis_offsets,
        )

    # ------------------------------------------------------------------

    def scatter(
        self,
        tile_store: Any,
        values_flat: NDArray[np.float64],
        accumulate: bool,
    ) -> None:
        """Push ``values_flat[source]`` into every touched tile.

        Charges one counted tile fetch per touched tile, in order.
        """
        fetch = tile_store.tile
        if accumulate:
            for key, slots, source in self.tiles:
                fetch(key, for_write=True)[slots] += values_flat[source]
        else:
            for key, slots, source in self.tiles:
                fetch(key, for_write=True)[slots] = values_flat[source]

    def gather(self, tile_store: Any, out_flat: NDArray[np.float64]) -> None:
        """Fill ``out_flat[source]`` from every touched tile.

        Never-materialised tiles are skipped: they read as zero without
        I/O, and the caller's (normally zero-filled) buffer is left
        untouched there.
        """
        peek = tile_store.peek
        for key, slots, source in self.tiles:
            tile = peek(key)
            if tile is None:
                continue
            out_flat[source] = tile[slots]

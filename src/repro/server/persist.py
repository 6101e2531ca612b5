"""Hub state (de)serialisation for ``--data-dir`` persistence.

The :class:`~repro.storage.mmap_device.MmapBlockDevice` persists the
raw coefficient blocks; everything *around* them — which tenants
exist, which cubes they own, each cube's dimension schema and, most
importantly, each cube's tile directory (tile key → block id) — lives
in one JSON sidecar, ``hub_state.json``, next to the arena file.  A
restarted hub reconstructs the serving stack from the sidecar and
adopts the on-disk blocks without reading (or re-loading) a single
coefficient.

Tile keys of the standard tiling are nested tuples of ints
(per-axis ``(band, root)`` pairs); JSON has no tuples, so keys are
round-tripped through nested lists.  The sidecar is written with a
write-to-temp-then-rename so a crash mid-save leaves the previous
state intact.

Durability contract: ``ServingHub.update`` flushes every dirty frame
through the journal into the arena and msyncs the mapping *before*
rewriting the sidecar, so any **acknowledged** batch survives process
death and power loss.  The write-ahead journal itself is in-memory
(the simulation's separate journal device) and is not replayable
across process death — a crash while a batch is still in flight can
leave that one batch partially applied; block-level integrity is then
re-established on reopen by rebuilding the CRC summaries from the
arena's actual content.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Hashable

from repro.olap.schema import Dimension, Hierarchy, Level

__all__ = [
    "STATE_FILENAME",
    "ARENA_FILENAME",
    "dimension_from_state",
    "dimension_to_state",
    "key_from_state",
    "key_to_state",
    "load_state",
    "save_state",
    "state_path",
]

STATE_FILENAME = "hub_state.json"
ARENA_FILENAME = "arena.blocks"
_STATE_VERSION = 1


def state_path(data_dir: str) -> str:
    return os.path.join(data_dir, STATE_FILENAME)


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------


def dimension_to_state(dimension: Dimension) -> dict:
    """A loss-free ``Dimension`` record (unlike ``to_dict``, which
    injects the implicit binary hierarchy for display)."""
    return {
        "name": dimension.name,
        "size": dimension.size,
        "low": dimension.low,
        "high": dimension.high,
        "label": dimension.label,
        "hierarchies": [
            {
                "name": hierarchy.name,
                "levels": [
                    {"name": level.name, "fanout": level.fanout}
                    for level in hierarchy.levels
                ],
            }
            for hierarchy in dimension.hierarchies
        ],
    }


def dimension_from_state(record: dict) -> Dimension:
    return Dimension(
        record["name"],
        record["size"],
        low=record["low"],
        high=record["high"],
        label=record["label"],
        hierarchies=tuple(
            Hierarchy(
                entry["name"],
                [
                    Level(level["name"], level["fanout"])
                    for level in entry["levels"]
                ],
            )
            for entry in record["hierarchies"]
        ),
    )


# ----------------------------------------------------------------------
# tile-key round-trip
# ----------------------------------------------------------------------


def key_to_state(key: Hashable):
    if isinstance(key, tuple):
        return [key_to_state(part) for part in key]
    return key


def key_from_state(record):
    if isinstance(record, list):
        return tuple(key_from_state(part) for part in record)
    return record


# ----------------------------------------------------------------------
# whole-hub state
# ----------------------------------------------------------------------


def hub_to_state(hub) -> dict:
    """Snapshot ``hub``'s logical state (not the block contents)."""
    tenants = []
    for tenant_name in hub.tenants():
        tenant = hub.tenant(tenant_name)
        cubes = []
        for cube_name in sorted(tenant.cubes):
            state = tenant.cubes[cube_name]
            directory: Dict[Hashable, int] = (
                state.cube.store.tile_store.directory()
            )
            cubes.append(
                {
                    "name": cube_name,
                    "dimensions": [
                        dimension_to_state(dimension)
                        for dimension in state.cube.dimensions
                    ],
                    "directory": sorted(
                        (
                            [key_to_state(key), block_id]
                            for key, block_id in directory.items()
                        ),
                        key=lambda pair: pair[1],
                    ),
                }
            )
        tenants.append(
            {
                "name": tenant_name,
                "api_key": tenant.api_key,
                "max_inflight": tenant.max_inflight,
                "default_deadline_s": tenant.default_deadline_s,
                "cubes": cubes,
            }
        )
    return {"version": _STATE_VERSION, "tenants": tenants}


def save_state(hub, data_dir: str) -> str:
    """Atomically write the sidecar; returns its path."""
    path = state_path(data_dir)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(hub_to_state(hub), handle, indent=1, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    _fsync_dir(data_dir)
    return path


def _fsync_dir(data_dir: str) -> None:
    """Flush the directory entry so the rename itself survives power
    loss — ``os.replace`` alone only orders the data, not the name.
    Best-effort on platforms where directories cannot be opened."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        dirfd = os.open(data_dir, flags)
    except OSError:
        return
    try:
        os.fsync(dirfd)
    except OSError:
        pass
    finally:
        os.close(dirfd)


def load_state(data_dir: str) -> dict:
    path = state_path(data_dir)
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    version = state.get("version")
    if version != _STATE_VERSION:
        raise ValueError(
            f"{path}: unsupported hub state version {version!r} "
            f"(expected {_STATE_VERSION})"
        )
    return state

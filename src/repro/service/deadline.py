"""Deadline-bounded degraded reads: answer from what is already cached.

A query whose deadline has expired used to be answered with a bare
timeout.  The serving layer wants something better: the paper's
progressive/approximate answering says a wavelet store can always
produce *an* answer with a sound absolute error bound — the degraded
machinery of :mod:`repro.storage.degrade` computes exactly that for
unreadable blocks.  This module makes "no time left" look like
"unreadable": a :class:`DeadlineGuardDevice` wraps the block device
and, while the thread executing a query holds its
:meth:`~DeadlineGuardDevice.cache_only` scope (every query runs in its
caller's thread), refuses every *device read* with
:class:`BlockNotResidentError`.
Buffer-pool hits never reach the device, so an expired query re-run
under the scope reads only resident blocks, zero-fills the rest, and
reports the same ``W * ||block||_1`` error bound a fault-degraded read
would — without touching the (possibly slow, possibly contended) disk
at all.

The guard flag is **per-thread**: one tenant's expired queries degrade
while every other thread on the shared device keeps reading normally.
Writes always pass through (a cache-only read pass can still trigger
a write-back eviction, which must not be lost).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["BlockNotResidentError", "DeadlineGuardDevice"]


class BlockNotResidentError(IOError):
    """Read refused: the deadline budget allows no device I/O."""

    def __init__(self, block_id: int) -> None:
        super().__init__(
            f"block {block_id} is not resident and the deadline "
            f"budget allows no device read"
        )
        self.block_id = block_id


class DeadlineGuardDevice:
    """Device wrapper that can refuse reads for the current thread.

    Outside a :meth:`cache_only` scope the wrapper is a transparent
    pass-through (one ``threading.local`` attribute check per read).
    Install it *outermost* in the device chain — above journaling —
    so a refused read never consumes a checksum verification or a
    journal probe, and below the buffer pool — so resident blocks
    keep answering for free.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._local = threading.local()

    # ------------------------------------------------------------------
    # pass-through surface
    # ------------------------------------------------------------------

    @property
    def inner(self):
        return self._inner

    @property
    def stats(self):
        return self._inner.stats

    @property
    def block_slots(self) -> int:
        return self._inner.block_slots

    @property
    def num_blocks(self) -> int:
        return self._inner.num_blocks

    def allocate(self) -> int:
        return self._inner.allocate()

    def peek_block(self, block_id: int) -> np.ndarray:
        return self._inner.peek_block(block_id)

    def dump_blocks(self) -> np.ndarray:
        return self._inner.dump_blocks()

    def restore_blocks(self, blocks: np.ndarray) -> None:
        self._inner.restore_blocks(blocks)

    def bytes_used(self, coefficient_bytes: int = 8) -> int:
        return self._inner.bytes_used(coefficient_bytes)

    def write_block(self, block_id: int, data: np.ndarray) -> None:
        self._inner.write_block(block_id, data)

    def __getattr__(self, name: str):
        # Durability extensions (``write_batch``, ``block_summary``,
        # ``journal``, ``recover``) surface only when the wrapped
        # device has them, so probing code sees a plain device as
        # plain — the same conditional-passthrough contract as
        # :class:`repro.service.pool._SynchronizedDevice`.
        if name in (
            "write_batch",
            "block_summary",
            "expected_summary",
            "journal",
            "recover",
            "scan",
            "fault_counts",
        ):
            return getattr(self._inner, name)
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------

    @contextmanager
    def cache_only(self) -> Iterator[None]:
        """Refuse device reads on this thread for the scope's duration."""
        already = getattr(self._local, "active", False)
        self._local.active = True
        try:
            yield
        finally:
            self._local.active = already

    @property
    def guarding(self) -> bool:
        """Is the current thread inside a :meth:`cache_only` scope?"""
        return bool(getattr(self._local, "active", False))

    def read_block(self, block_id: int) -> np.ndarray:
        if getattr(self._local, "active", False):
            raise BlockNotResidentError(block_id)
        return self._inner.read_block(block_id)

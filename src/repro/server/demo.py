"""Deterministic demo hub used by the CLI, smoke driver and benches.

Two tenants with fixed API keys, each owning one 64x64 cube on the
shared arena:

* ``acme`` / key ``acme-key`` — cube ``sales`` with a declared
  ``ymd``-style hierarchy on ``time`` (4 x 4 x 4 members);
* ``globex`` / key ``globex-key`` — cube ``telemetry`` with implicit
  binary hierarchies only.

Everything is seeded, so two processes building the demo hub serve
bit-identical answers — the property the smoke driver asserts.
"""

from __future__ import annotations

import numpy as np

from repro.olap.schema import Dimension, Hierarchy, Level
from repro.server.hub import ServingHub

__all__ = ["build_demo_hub"]


def build_demo_hub(
    seed: int = 7,
    size: int = 64,
    pool_blocks: int = 64,
    max_inflight: int = 64,
    data_dir=None,
    reqlog_stream=None,
    flight_capacity: int = 64,
    reqlog_capacity: int = 512,
    **hub_kwargs,
) -> ServingHub:
    """A two-tenant hub over ``size`` x ``size`` cubes (power of two).

    With ``data_dir`` the demo data is bulk-loaded straight onto the
    persistent arena; the directory must not already hold a hub (use
    ``ServingHub(data_dir=...)`` to reopen one).  The debug admin key
    is the deterministic ``demo-admin-key`` so smoke drivers can hit
    ``/debug/*`` without scraping startup output.  Extra keyword
    arguments (``replicate``, ``fault_rate`` …) pass straight through
    to :class:`ServingHub`.
    """
    hub = ServingHub(
        block_slots=64,
        pool_blocks=pool_blocks,
        max_inflight=max_inflight,
        data_dir=data_dir,
        reqlog_stream=reqlog_stream,
        flight_capacity=flight_capacity,
        reqlog_capacity=reqlog_capacity,
        admin_key="demo-admin-key",
        **hub_kwargs,
    )
    rng = np.random.default_rng(seed)

    hub.add_tenant("acme", api_key="acme-key")
    ymd = Hierarchy(
        "ymd",
        [Level("year", 4), Level("month", 4), Level("day", 4)],
    )
    time_dim = (
        Dimension("time", size, label="Time", hierarchies=(ymd,))
        if size == 64
        else Dimension("time", size, label="Time")
    )
    hub.add_cube(
        "acme",
        "sales",
        [time_dim, Dimension("region", size, label="Region")],
        data=rng.random((size, size)),
    )

    hub.add_tenant("globex", api_key="globex-key")
    hub.add_cube(
        "globex",
        "telemetry",
        [
            Dimension("tick", size, label="Tick"),
            Dimension("sensor", size, label="Sensor"),
        ],
        data=rng.random((size, size)),
    )
    return hub

"""L2-aware tile sizing for the host gang backend.

The paper's §V reads kernel performance through last-level-cache
capacity: the MI250X's 8 MB L2 forces its packing kernels to stream
where an A100's 40 MB keeps working sets resident.  The host gang
backend (:class:`repro.acc.gang.GangExecutor`) applies the same lens:
a tile should be small enough that the pipeline buffers it touches fit
in the device's last-level cache, so each worker streams its slab once
instead of thrashing.  This module turns the device catalog's L2 sizes
into a tile count, tying the *real* execution backend to the same specs
the analytic cost model prices kernels with.
"""

from __future__ import annotations

import math

from repro.common import ConfigurationError
from repro.hardware.devices import DeviceSpec

#: Fraction of the last-level cache a tile's working set may occupy.
#: Half leaves room for the other direction's buffers, code, and the
#: OS — the usual engineering margin for cache blocking.
L2_OCCUPANCY = 0.5


def suggest_tile_count(extent: int, workers: int, *,
                       bytes_per_slice: int = 0,
                       device: DeviceSpec | None = None,
                       occupancy: float = L2_OCCUPANCY,
                       min_rows: int = 1) -> int:
    """Tile count for partitioning ``extent`` rows across ``workers``.

    Parameters
    ----------
    extent:
        Rows along the tiled (slowest) axis.
    workers:
        Worker threads; the result is always a multiple of ``workers``
        (or clamped to ``extent``), so a launch keeps every worker busy.
    bytes_per_slice:
        Working-set bytes the pipeline keeps in flight per unit row of
        the tiled axis (the sweep engine passes one row of its tile
        arena's heaviest stage plus the field operands' rows).
    device:
        Catalog entry supplying the last-level-cache capacity; with no
        device (or no byte estimate) the baseline one-tile-per-worker
        split is returned.
    min_rows:
        Fewest rows a tile may shrink to while growing the count (the
        caller's floor on work per kernel call); the baseline
        one-tile-per-worker split is returned even when it is narrower.

    Returns
    -------
    int:
        At least ``min(workers, extent)``; grown in worker multiples
        until one tile's working set fits ``occupancy`` of the cache
        (or tiles can shrink no further, or would drop under
        ``min_rows``).
    """
    if extent < 1:
        raise ConfigurationError(f"extent must be >= 1, got {extent}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    tiles = min(workers, extent)
    if device is None or bytes_per_slice <= 0:
        return tiles
    budget = device.l2_bytes * occupancy
    while tiles < extent:
        rows_per_tile = math.ceil(extent / tiles)
        if rows_per_tile * bytes_per_slice <= budget:
            break
        grown = min(extent, tiles + workers)
        if math.ceil(extent / grown) < min_rows:
            break
        tiles = grown
    return tiles

"""Reproducible random streams.

Streams are counter-based (Philox; Salmon et al., *Parallel random numbers:
as easy as 1, 2, 3*, SC'11) and derived from ``(master seed, *indices)``, so
a stream does not depend on scheduling or worker layout.  Re-deriving with
the same indices always yields the same stream.  The indices form the seed
sequence's spawn key, which is not zero-padded like its entropy, so
``derive(s)``, ``derive(s, 0)`` and ``derive(s, 0, 0)`` are three different
streams.

Every stream feeds one block of replicas, and the engine draws the whole
block's sites from it in one call per kind of draw.  The estimators key a
block ``(seed, grid index, block)`` and `simulate` keys it ``(seed,
block)``.  The estimators step runs of blocks as one array, a run holding
blocks of any events of one law, typically of several estimates (several
grid indices), but each block keeps its own stream and makes the same calls
on it as alone.  A replica that the engine retires early (see
`engine.event_outcomes`) stops drawing, so the rows left in its block take
later draws of the stream; the block's draws still depend only on its key.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive"]


def derive(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator keyed by the master seed and an index path."""
    seq = np.random.SeedSequence(int(master_seed),
                                 spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(seq))

"""Reproducible random streams.

Streams are counter-based (Philox) and derived from ``(master seed, *indices)``
so every replica gets an independent generator that does not depend on
scheduling or worker layout.  Re-deriving with the same indices always yields
the same stream.  The indices form the seed sequence's spawn key, which is
not zero-padded like its entropy, so ``derive(s)``, ``derive(s, 0)`` and
``derive(s, 0, 0)`` are three different streams.

A replica that the engine retires early (see `engine.event_outcomes`) just
stops drawing from its stream; the streams of the replicas beside it, and
so their draws, stay as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive"]


def derive(master_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator keyed by the master seed and an index path."""
    seq = np.random.SeedSequence(int(master_seed),
                                 spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(seq))

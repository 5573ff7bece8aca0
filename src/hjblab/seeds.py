"""Deterministic seed derivation for parallel Monte Carlo streams.

Every random draw in the package comes from a counter-based bit generator
keyed by a seed derived here. Derivation is a pure function of
(master_seed, stream_label, index), so results never depend on execution
order or platform.
"""

import hashlib

import numpy as np

__all__ = ["derive_seed", "stream"]


def derive_seed(master_seed: int, stream_label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a master seed, a label, and an index.

    The child is the first 8 bytes (little endian) of
    SHA-256(f"{master_seed}:{stream_label}:{index}"). This mapping is frozen;
    changing it would silently invalidate every recorded witness seed.
    """
    msg = f"{int(master_seed)}:{stream_label}:{int(index)}".encode("ascii")
    digest = hashlib.sha256(msg).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, stream_label: str, index: int = 0) -> np.random.Generator:
    """A Generator on a counter-based (Philox) stream for the derived seed."""
    key = derive_seed(master_seed, stream_label, index)
    return np.random.Generator(np.random.Philox(key=key))


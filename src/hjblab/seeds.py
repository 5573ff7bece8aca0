"""Deterministic seed derivation for per-path Monte Carlo streams.

Every random draw in the package comes from a counter-based bit generator
keyed by a seed derived here. Derivation is a pure function of
(master_seed, stream_label, index), so results never depend on execution
order or platform.
"""

import hashlib

import numpy as np

__all__ = ["derive_seed", "stream", "path_streams"]


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


def path_streams(master_seed: int, stream_label: str, n: int):
    """Yield generators at the start of stream(master_seed, stream_label, k), k < n.

    One Philox is re-keyed for every k instead of building n of them. A
    Philox draw is a function of its key and counter alone, so key
    [derive_seed(...), 0], counter 0 and an empty buffer reproduce stream()
    bit for bit. The same Generator is yielded each time: it is valid only
    until the next one is drawn.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    key = np.zeros(2, dtype=np.uint64)
    # the state setter copies these arrays in, so one dict serves every path
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k in range(n):
        key[0] = derive_seed(master_seed, stream_label, k)
        bit_gen.state = state
        yield gen

"""Deterministic seed derivation for per-path Monte Carlo streams.

Every random draw in the package comes from a counter-based bit generator
keyed by a seed derived here. Derivation is a pure function of
(master_seed, stream_label, index), so results never depend on execution
order or platform.
"""

import hashlib

import numpy as np

__all__ = ["derive_seed", "stream", "path_keys", "path_streams"]

# path_streams turns this many keys at a time into Python ints
_KEY_CHUNK = 1024


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


def path_keys(master_seed: int, stream_label: str, n: int) -> np.ndarray:
    """derive_seed(master_seed, stream_label, k) for k < n, as read-only uint64.

    The shared prefix "master_seed:stream_label:" is hashed once and a copy
    of that state takes each index: the same SHA-256 input, so the same keys
    as derive_seed. Each call derives its keys anew and holds none.
    """
    copy = hashlib.sha256(f"{int(master_seed)}:{stream_label}:".encode("ascii")).copy
    # each digest goes straight into place: a list of n digests would cost
    # about 17 times the keys' own memory
    raw = bytearray(8 * int(n))
    view = memoryview(raw)
    for k in range(int(n)):
        h = copy()
        h.update(b"%d" % k)
        view[8 * k:8 * k + 8] = h.digest()[:8]
    keys = np.frombuffer(raw, dtype="<u8")
    keys.flags.writeable = False
    return keys


def path_streams(keys):
    """Yield generators at the start of the streams keyed by keys, in order.

    keys is path_keys(master_seed, stream_label, n) or a row range of it,
    keys[lo:hi], which yields stream(master_seed, stream_label, k) for
    lo <= k < hi: a process can draw any range of paths without deriving a
    key, so the keys of a block drawn across processes are derived once, in
    the process that asks for it. One Philox is re-keyed for every key
    instead of building one per path. A Philox draw is a function of its key
    and counter alone, so key [derive_seed(...), 0], counter 0 and an empty
    buffer reproduce stream() bit for bit. The state is set from Python ints,
    which the setter reads far faster than numpy array entries. The same
    Generator is yielded each time: it is valid only until the next one is
    drawn.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    key = [0, 0]
    # the state setter copies these values in, so one dict serves every path
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, len(keys), _KEY_CHUNK):
        for k in keys[start:start + _KEY_CHUNK].tolist():
            key[0] = k
            bit_gen.state = state
            yield gen

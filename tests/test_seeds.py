import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab.seeds import derive_seed, path_key_cache, path_keys, path_streams, stream


def test_derive_seed_is_pure():
    assert derive_seed(42, "paths", 0) == derive_seed(42, "paths", 0)
    assert derive_seed(42, "paths", 1) == derive_seed(42, "paths", 1)


def test_derive_seed_frozen_values():
    # pinned so a silent change of the derivation breaks loudly
    assert derive_seed(42, "paths", 0) == 1847751557054045857
    assert derive_seed(42, "paths", 1) == 1578579463122237053
    assert derive_seed(0, "calibrate", 0) == 8806663858262281490


@given(
    master=st.integers(min_value=0, max_value=2**31 - 1),
    label=st.sampled_from(["paths", "coupled", "family", "probe"]),
    index=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_derive_seed_stable_and_bounded(master, label, index):
    s = derive_seed(master, label, index)
    assert 0 <= s < 2**64
    assert s == derive_seed(master, label, index)


def test_index_collision_scan():
    # one master seed, one label, a million indices: all children distinct
    seen = {derive_seed(42, "paths", k) for k in range(1_000_000)}
    assert len(seen) == 1_000_000


def test_labels_give_disjoint_streams():
    a = {derive_seed(7, "paths", k) for k in range(1000)}
    b = {derive_seed(7, "coupled", k) for k in range(1000)}
    assert not (a & b)


def test_stream_draws_are_reproducible():
    x = stream(42, "paths", 3).standard_normal(8)
    y = stream(42, "paths", 3).standard_normal(8)
    assert np.array_equal(x, y)
    z = stream(42, "paths", 4).standard_normal(8)
    assert not np.array_equal(x, z)


def test_stream_is_counter_based():
    # drawing in two chunks equals drawing at once (no hidden global state)
    g1 = stream(11, "x", 0)
    a = np.concatenate([g1.standard_normal(5), g1.standard_normal(5)])
    b = stream(11, "x", 0).standard_normal(10)
    assert np.array_equal(a, b)


def test_path_streams_replay_fresh_streams():
    # an odd count of float32 draws leaves half a word buffered; re-keying
    # must start the next path from an empty buffer. The second pass takes
    # its keys from the cache and must replay the same streams.
    for attempt in range(2):
        hits = path_key_cache.hits
        for k, gen in enumerate(path_streams(path_keys(2**40 + 1, "paths", 5))):
            ref = stream(2**40 + 1, "paths", k)
            assert gen.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()
            assert gen.standard_normal(7).tobytes() == ref.standard_normal(7).tobytes()
        assert k == 4
    assert path_key_cache.hits == hits + 1


@pytest.mark.parametrize("master, n, lo, hi", [
    (2**40 + 1, 5, 0, 5), (2**40 + 1, 5, 2, 5), (2**40 + 1, 5, 3, 4),
    (2**40 + 1, 5, 4, 4), (7, 2500, 1000, 2100),  # across a key chunk
])
def test_path_streams_over_a_row_range_replay_their_streams(master, n, lo, hi):
    keys = path_keys(master, "rows", n)
    drawn = [gen.standard_normal(3).tobytes() for gen in path_streams(keys[lo:hi])]
    assert drawn == [stream(master, "rows", k).standard_normal(3).tobytes()
                     for k in range(lo, hi)]


@pytest.mark.parametrize("master, label, n", [
    (42, "paths", 1), (0, "calibrate", 3), (2**40 + 1, "paths", 5),
    (7, "coupled", 1500), (2**63 + 5, "family_paths", 64),
])
def test_path_keys_equal_derived_seeds(master, label, n):
    keys = path_keys(master, label, n)
    assert keys.dtype == np.uint64 and keys.shape == (n,)
    assert keys.tolist() == [derive_seed(master, label, k) for k in range(n)]


def test_path_keys_are_read_only():
    keys = path_keys(5, "ro", 4)
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 1


def test_repeated_path_keys_request_is_a_hit():
    path_keys(6, "hit", 10)
    hits, misses = path_key_cache.hits, path_key_cache.misses
    again = path_keys(6, "hit", 10)
    assert again is path_keys(6, "hit", 10)
    assert (path_key_cache.hits, path_key_cache.misses) == (hits + 2, misses)
    # a request differing in any field misses
    for request in [(7, "hit", 10), (6, "hot", 10), (6, "hit", 11)]:
        path_keys(*request)
    assert path_key_cache.misses == misses + 3


def test_path_key_cache_stays_bounded():
    held = []
    for k in range(3 * path_key_cache.size):
        held.append(path_keys(8, "bound", k + 1))
        assert len(path_key_cache.entries) <= path_key_cache.size
    # the newest requests are held, the oldest dropped
    misses = path_key_cache.misses
    assert path_keys(8, "bound", 3 * path_key_cache.size) is held[-1]
    path_keys(8, "bound", 1)
    assert path_key_cache.misses == misses + 1


def test_negative_like_inputs_rejected_by_int_cast():
    with pytest.raises((ValueError, TypeError)):
        derive_seed("not-a-seed", "paths", 0)

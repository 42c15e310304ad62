import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from ridecloak import bloom


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**40),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
)
def test_positions_exactly_n_distinct(cell, n_hashes, epoch, salt):
    bits = max(64, n_hashes)
    positions = bloom.cell_positions(cell, bits, n_hashes, epoch, salt)
    assert len(positions) == n_hashes
    assert len(set(positions)) == n_hashes
    assert all(0 <= p < bits for p in positions)


def test_positions_match_oracle():
    for cell in (0, 1, 999, 2**33):
        for epoch, salt in ((1, 777), (9, 0), (2**40, 2**40)):
            got = bloom.cell_positions(cell, 576, 7, epoch, salt)
            assert got == oracles.summary_positions(cell, 576, 7, epoch, salt)


def test_single_insert_sets_exactly_n_hashes_bits():
    rng = np.random.default_rng(0)
    for cell in rng.integers(0, 10**6, 30):
        f = bloom.BloomFilter(320, 4, epoch=3, salt=5)
        f.add(int(cell))
        assert int(f.array.sum()) == 4


def test_repeat_insert_idempotent_on_bits():
    f = bloom.BloomFilter(320, 4, epoch=1, salt=1)
    f.add(42)
    once = f.array.copy()
    f.add(42)
    np.testing.assert_array_equal(f.array, once)


def test_no_false_negatives_up_to_100_cells():
    rng = np.random.default_rng(7)
    cells = [int(c) for c in rng.choice(10**6, size=100, replace=False)]
    f = bloom.BloomFilter(2048, 24, epoch=4, salt=99)
    f.add_all(cells)
    assert all(support.membership_dot(f, c) == 24 for c in cells)


def test_membership_dot_counts_set_positions():
    f = bloom.BloomFilter(64, 6, epoch=2, salt=2)
    assert support.membership_dot(f, 123) == 0
    f.add(123)
    assert support.membership_dot(f, 123) == 6
    positions = bloom.cell_positions(456, 64, 6, 2, 2)
    f2 = bloom.BloomFilter(64, 6, epoch=2, salt=2)
    f2.array[positions[:2]] = 1
    assert support.membership_dot(f2, 456) == 2


def test_sizing_pinned_values():
    assert bloom.sizing(60, 0.01) == (576, 7)
    assert bloom.sizing(60, 0.1) == (320, 4)
    bits, n_hashes = bloom.sizing(1, 0.5)
    assert bits >= 64 and bits % 64 == 0
    assert 1 <= n_hashes <= bits


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5000), st.floats(1e-6, 0.5))
def test_sizing_matches_oracle(max_items, fpp):
    assert bloom.sizing(max_items, fpp) == oracles.sizing_oracle(max_items, fpp)


def test_sizing_monotone_in_target():
    widths = [bloom.sizing(60, p)[0] for p in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert widths == sorted(widths)
    with pytest.raises(ValueError):
        bloom.sizing(0, 0.01)
    with pytest.raises(ValueError):
        bloom.sizing(60, 0.0)
    with pytest.raises(ValueError):
        bloom.sizing(60, 1.0)


def test_empirical_fpp_within_analytic_bound():
    rng = np.random.default_rng(13)
    members = [int(c) for c in rng.choice(10**7, size=60, replace=False)]
    f = bloom.BloomFilter(576, 7, epoch=1, salt=3)
    f.add_all(members)
    member_set = set(members)
    probes = [int(c) for c in rng.integers(10**7, 10**9, 100_000)]
    hits = sum(1 for c in probes if c not in member_set and support.membership_dot(f, c) == 7)
    rate = hits / len(probes)
    assert rate <= 1.5 * support.analytic_fpp(576, 7, 60)


def test_epoch_changes_decorrelate_positions():
    """Across epochs, position overlap should look like independent draws."""
    bits, n_hashes, cells = 2048, 24, 200
    rng = np.random.default_rng(21)
    ids = [int(c) for c in rng.choice(10**6, size=cells, replace=False)]
    overlap = 0
    for cell in ids:
        a = set(bloom.cell_positions(cell, bits, n_hashes, 1, 55))
        b = set(bloom.cell_positions(cell, bits, n_hashes, 2, 55))
        overlap += len(a & b)
    mean = cells * n_hashes * n_hashes / bits
    var_one = (n_hashes * n_hashes / bits) * ((bits - n_hashes) / bits) * (
        (bits - n_hashes) / (bits - 1)
    )
    sigma = math.sqrt(cells * var_one)
    assert abs(overlap - mean) <= 3 * sigma


def test_salt_changes_positions():
    a = bloom.cell_positions(77, 2048, 24, 1, 1)
    b = bloom.cell_positions(77, 2048, 24, 1, 2)
    assert a != b


def test_vector_is_float_copy():
    f = bloom.BloomFilter(64, 4, epoch=1, salt=1)
    f.add(5)
    v = f.vector()
    assert v.dtype == np.float64
    v[:] = 0
    assert f.array.sum() == 4


def test_slot_index_boundaries():
    assert bloom.slot_index(0, 48) == 0
    assert bloom.slot_index(86399, 48) == 47
    assert bloom.slot_index(1800, 48) == oracles.slot_of(1800, 48) == 1
    for bad in (-1, 86400, 90000.5):
        with pytest.raises(ValueError):
            bloom.slot_index(bad, 48)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 86399.999), st.integers(1, 288))
def test_slot_index_matches_oracle(seconds, slots):
    idx = bloom.slot_index(seconds, slots)
    assert idx == oracles.slot_of(seconds, slots)
    assert 0 <= idx < slots


def test_slot_vector_is_one_hot_at_the_slot_width():
    v = bloom.slot_vector(0, 48)
    assert v.shape == (48,) and v[0] == 1.0 and v.sum() == 1.0
    last = bloom.slot_vector(86399, 48)
    assert last.shape == (48,) and last[47] == 1.0 and last.sum() == 1.0
    with pytest.raises(ValueError, match="seconds"):
        bloom.slot_vector(86400, 48)


def test_hash_count_cannot_exceed_width():
    with pytest.raises(ValueError, match="exceed"):
        bloom.cell_positions(1, 8, 9, 1, 1)
    with pytest.raises(ValueError, match="bits"):
        bloom.BloomFilter(0, 4, epoch=1, salt=1)
    with pytest.raises(ValueError, match="width"):
        bloom.BloomFilter(64, 4, epoch=1, salt=1, array=np.zeros(32, dtype=np.uint8))

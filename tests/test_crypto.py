import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import support
from ridecloak import crypto

TOL = 1e-3


def enc_pair(env, q, p, rng):
    """Encrypt, unmask, and return (row query, column offer) indexes."""
    query = support.unmask_index(support.encrypt_index(q, env.rider, rng), env.secrets, "rider")
    offer = support.unmask_index(support.encrypt_index(p, env.driver, rng), env.secrets, "driver")
    return query, offer


def test_inner_product_exact_small(knn64):
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.integers(0, 2, knn64.dim).astype(float)
        p = rng.integers(0, 2, knn64.dim).astype(float)
        query, offer = enc_pair(knn64, q, p, rng)
        assert abs(support.match_similarity(query, offer) - q @ p) <= TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**31 - 1))
def test_inner_product_property(knn64, q_bits, p_bits, seed):
    q = np.array([(q_bits >> i) & 1 for i in range(16)] * 4, dtype=float)
    p = np.array([(p_bits >> i) & 1 for i in range(16)] * 4, dtype=float)
    query, offer = enc_pair(knn64, q, p, np.random.default_rng(seed))
    assert abs(support.match_similarity(query, offer) - q @ p) <= TOL


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-8, 8, allow_nan=False), min_size=4, max_size=32),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["driver", "rider"]),
)
def test_split_vector_halves_sum_back(values, seed, role):
    vec = np.array(values)
    rng = np.random.default_rng(seed)
    pattern = rng.integers(0, 2, vec.shape[0]).astype(np.uint8)
    first, second = oracles.split_vector(vec, pattern, role, np.random.default_rng(seed + 1))
    split_here = pattern.astype(bool) if role == "driver" else ~pattern.astype(bool)
    # split positions reconstruct the value; copy positions carry it in both halves
    np.testing.assert_allclose((first + second)[split_here], vec[split_here], atol=1e-12)
    np.testing.assert_allclose(first[~split_here], vec[~split_here])
    np.testing.assert_allclose(second[~split_here], vec[~split_here])


def test_roles_split_complementary_positions(knn64):
    """Drivers copy where the pattern is 0 and split where it is 1; riders the opposite."""
    pattern = knn64.deriver.split_pattern.astype(bool)
    np.testing.assert_array_equal(knn64.driver.copied, ~pattern)
    np.testing.assert_array_equal(knn64.rider.copied, pattern)
    # A copied position's key rows enter parts 0-3 and 4-7 alike; a split
    # one's enter parts 4-7 only, and parts 0-3 through the mask alone.
    ones, zeros = np.flatnonzero(pattern)[0], np.flatnonzero(~pattern)[0]
    for keys, copied, split in ((knn64.driver, zeros, ones), (knn64.rider, ones, zeros)):
        for pos, first_half in ((copied, 1.0), (split, 0.0)):
            vec = np.zeros(knn64.dim)
            zero = support.encrypt_index(vec, keys, np.random.default_rng(9)).parts
            vec[pos] = 1.0
            one = support.encrypt_index(vec, keys, np.random.default_rng(9)).parts
            row = keys.operand[pos].reshape(crypto.PART_COUNT, keys.dim)
            np.testing.assert_allclose(one[:4] - zero[:4], first_half * row[:4], atol=1e-12)
            np.testing.assert_allclose(one[4:] - zero[4:], row[4:], atol=1e-12)


def test_key_share_sums_rebuild_blend_inverses(knn64):
    """White box: with the deriver's bases peeled off, the key shares sum to the blends
    (riders) and to their inverses (drivers)."""
    deriver = knn64.deriver
    d, bases = knn64.driver.parts, deriver.driver_bases
    for i, j, expected in ((0, 1, deriver.blend_a_inv), (4, 5, deriver.blend_b_inv)):
        total = np.linalg.solve(bases[i], d[i]) + np.linalg.solve(bases[j], d[j])
        np.testing.assert_allclose(total, expected, atol=1e-6)
    r, bases = knn64.rider.parts, deriver.rider_bases
    for i, j, expected in ((0, 2, deriver.blend_a), (4, 6, deriver.blend_b)):
        total = r[i] @ np.linalg.inv(bases[i]) + r[j] @ np.linalg.inv(bases[j])
        np.testing.assert_allclose(total, expected, atol=1e-6)


def test_ciphertexts_fresh_but_outcomes_stable(knn64):
    rng = np.random.default_rng(12)
    vec = rng.integers(0, 2, knn64.dim).astype(float)
    probe = rng.integers(0, 2, knn64.dim).astype(float)
    offer1 = support.encrypt_index(vec, knn64.driver, rng)
    offer2 = support.encrypt_index(vec, knn64.driver, rng)
    assert not np.array_equal(offer1.parts, offer2.parts)
    query = support.unmask_index(support.encrypt_index(probe, knn64.rider, rng), knn64.secrets, "rider")
    s1 = support.match_similarity(query, support.unmask_index(offer1, knn64.secrets, "driver"))
    s2 = support.match_similarity(query, support.unmask_index(offer2, knn64.secrets, "driver"))
    assert abs(s1 - s2) <= 2 * TOL


def test_encryption_deterministic_given_rng(knn64):
    vec = np.ones(knn64.dim)
    a = support.encrypt_index(vec, knn64.driver, np.random.default_rng(42))
    b = support.encrypt_index(vec, knn64.driver, np.random.default_rng(42))
    np.testing.assert_array_equal(a.parts, b.parts)


def test_cross_user_key_sets_interchangeable(knn64):
    """Any rider key set must rank the same drivers on top."""
    rng = np.random.default_rng(21)
    rider2 = knn64.deriver.derive("rider", rng)
    driver2 = knn64.deriver.derive("driver", rng)
    assert not np.array_equal(rider2.parts[0], knn64.rider.parts[0])
    q = rng.integers(0, 2, knn64.dim).astype(float)
    vecs = [rng.integers(0, 2, knn64.dim).astype(float) for _ in range(6)]
    offers = [
        support.unmask_index(support.encrypt_index(v, keys, rng), knn64.secrets, "driver")
        for v in vecs
        for keys in (knn64.driver, driver2)
    ]
    sims = []
    for rider in (knn64.rider, rider2):
        query = support.unmask_index(support.encrypt_index(q, rider, rng), knn64.secrets, "rider")
        sims.append([support.match_similarity(query, o) for o in offers])
    np.testing.assert_allclose(sims[0], sims[1], atol=2 * TOL)
    expected = [float(q @ v) for v in vecs for _ in range(2)]
    np.testing.assert_allclose(sims[0], expected, atol=TOL)


def test_masking_necessary_for_matching(knn64):
    """Raw part dot products must not leak the plaintext inner product."""
    from ridecloak import kernels

    rng = np.random.default_rng(33)
    agree = 0
    for _ in range(100):
        q = rng.integers(0, 2, knn64.dim).astype(float)
        p = rng.integers(0, 2, knn64.dim).astype(float)
        query = support.encrypt_index(q, knn64.rider, rng)
        offer = support.encrypt_index(p, knn64.driver, rng)
        raw = float(kernels.paired_dots(query.parts, offer.parts).sum())
        agree += abs(raw - q @ p) <= TOL
    assert agree == 0


def test_dimension_mismatch_rejected(knn64):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="width"):
        support.encrypt_index(np.ones(knn64.dim + 1), knn64.rider, rng)
    other = crypto.TosSecrets(32, np.eye(32), np.eye(32))
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    with pytest.raises(ValueError, match="dim"):
        support.unmask_index(idx, other, "rider")


def test_non_binary_plaintext_rejected(knn64):
    with pytest.raises(ValueError, match="binary"):
        support.encrypt_index(np.full(knn64.dim, 0.5), knn64.rider, np.random.default_rng(0))


def test_encrypted_index_byte_round_trip(knn64):
    """On the wire an index is its bare parts: no form, mask flag or width beside them."""
    rng = np.random.default_rng(7)
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.driver, rng)
    blob = idx.to_bytes()
    assert len(blob) == crypto.PART_COUNT * knn64.dim * 8
    back = np.frombuffer(blob, dtype="<f8").reshape(crypto.PART_COUNT, knn64.dim)
    np.testing.assert_array_equal(back, idx.parts)


def reloaded(keys):
    """`keys` written to its key file and read back."""
    return crypto.key_material_from_bytes(crypto.key_material_to_bytes(keys), keys.role, keys.dim)


def test_key_material_round_trips(knn64):
    for obj in (knn64.driver, knn64.rider):
        back = reloaded(obj)
        assert type(back) is crypto.UserKeySet and back.role == obj.role
    reload = reloaded(knn64.driver)
    for a, b in zip(reload.parts, knn64.driver.parts):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(reload.split_pattern, knn64.driver.split_pattern)
    assert reload.role == "driver"
    with pytest.raises(ValueError):
        crypto.key_material_from_bytes(b"XXXX" + b"\x00" * 32, "driver", knn64.dim)
    blob = crypto.key_material_to_bytes(knn64.rider)
    for role in ("master", "server"):  # no key file holds master keys or server secrets
        with pytest.raises(ValueError, match="role must be"):
            crypto.key_material_from_bytes(blob, role, knn64.dim)


def test_reloaded_keys_still_match(knn64):
    rng = np.random.default_rng(8)
    rider = reloaded(knn64.rider)
    q = rng.integers(0, 2, knn64.dim).astype(float)
    p = rng.integers(0, 2, knn64.dim).astype(float)
    query = support.unmask_index(support.encrypt_index(q, rider, rng), knn64.secrets, "rider")
    offer = support.unmask_index(support.encrypt_index(p, knn64.driver, rng), knn64.secrets, "driver")
    assert abs(support.match_similarity(query, offer) - q @ p) <= TOL


@pytest.mark.parametrize("dim", [64, 768])
def test_stored_inverses_are_the_inverses_of_their_matrices(dim):
    """The two blend pairs are the only matrix-inverse pairs a deriver stores."""
    derivers, _ = crypto.generate_keys({"scheme": dim}, np.random.default_rng(dim))
    deriver = derivers["scheme"]
    for mat, inv in ((deriver.blend_a, deriver.blend_a_inv), (deriver.blend_b, deriver.blend_b_inv)):
        np.testing.assert_array_equal(inv, np.linalg.inv(mat))


def test_key_generation_rejects_ill_conditioned(monkeypatch):
    monkeypatch.setattr(crypto, "COND_LIMIT", 1e-9)
    with pytest.raises(crypto.KeyGenerationError):
        crypto.generate_keys({"scheme": 8}, np.random.default_rng(0))


class ScriptedDraws:
    """A generator stand-in whose `uniform` returns prepared matrices in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, low, high, size):
        draw = next(self.draws)
        assert (low, high, size) == (-1.0, 1.0, draw.shape)
        return draw


@pytest.mark.parametrize("singular", ["first", "second"])
def test_invertible_shares_redraws_a_singular_share(singular):
    """A singular share costs one redraw; pytest would fail on any RuntimeWarning."""
    total = 2.0 * np.eye(4)
    rank_one = np.ones((4, 4))
    bad = rank_one if singular == "first" else total - rank_one
    good = np.eye(4) + 0.25 * np.triu(np.ones((4, 4)), 1)
    first, second = crypto._invertible_shares(total, ScriptedDraws([bad, good]))
    np.testing.assert_array_equal(first, good)
    np.testing.assert_array_equal(second, total - good)


def test_invertible_shares_gives_up_after_max_draws():
    total = 2.0 * np.eye(4)
    rank_one = np.ones((4, 4))
    draws = [rank_one if i % 2 else total - rank_one for i in range(crypto.MAX_DRAWS)]
    with pytest.raises(crypto.KeyGenerationError):
        crypto._invertible_shares(total, ScriptedDraws(draws))


def with_condition(mat, cond):
    """`mat` with its smallest singular value shrunk to a 2-norm condition number of `cond`."""
    u, s, vt = np.linalg.svd(mat)
    s[-1] = s[0] / cond
    return (u * s) @ vt


def test_similarities_do_not_depend_on_share_conditioning(monkeypatch):
    """Shares with cond_1 >= 1e10 still give similarities within TOL at width 256.

    User shares are never inverted and carry no condition bound; this is
    the evidence that they need none. Successive splits alternate which
    share of the pair is ill-conditioned.
    """
    dim = 256
    honest = crypto._invertible_shares
    conds = []

    def ill_conditioned_shares(total, rng):
        ill = len(conds) % 2
        shares = list(honest(total, rng))
        shares[ill] = with_condition(shares[ill], 1e13)
        shares[1 - ill] = total - shares[ill]
        conds.append(np.linalg.cond(shares[ill], 1))
        return tuple(shares)

    monkeypatch.setattr(crypto, "_invertible_shares", ill_conditioned_shares)
    rng = np.random.default_rng(256)
    derivers, secrets = crypto.generate_keys({"scheme": dim}, rng)
    deriver, secrets = derivers["scheme"], secrets["scheme"]
    driver, rider = deriver.derive("driver", rng), deriver.derive("rider", rng)
    assert len(conds) == 4 and min(conds) >= 1e10

    q = rng.integers(0, 2, (24, dim)).astype(float)
    p = rng.integers(0, 2, (24, dim)).astype(float)
    queries = crypto.unmask_indices(crypto.encrypt_indices(q, rider, rng), secrets, "rider")
    offers = crypto.unmask_indices(crypto.encrypt_indices(p, driver, rng), secrets, "driver")
    error = np.abs(crypto.similarity_matrix(queries, offers) - q @ p.T)
    assert error.max() <= TOL


def test_distinct_user_key_sets(knn64):
    a = knn64.deriver.derive("rider", np.random.default_rng(1))
    b = knn64.deriver.derive("rider", np.random.default_rng(2))
    assert not np.array_equal(a.parts[0], b.parts[0])


def test_role_validation(knn64):
    with pytest.raises(ValueError, match="role"):
        knn64.deriver.derive("server", np.random.default_rng(0))
    with pytest.raises(ValueError, match="role"):
        crypto.UserKeySet("admin", knn64.dim, knn64.rider.parts, knn64.rider.split_pattern)
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.rider, np.random.default_rng(0))
    with pytest.raises(KeyError, match="server"):
        crypto.unmask_indices([idx], knn64.secrets, "server")


def test_batched_and_single_encrypt_agree(knn64):
    vecs = np.eye(knn64.dim)[:5]
    batch = crypto.encrypt_indices(vecs, knn64.rider, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    for j, idx in enumerate(batch):
        assert idx.dim == knn64.dim
    cleared = crypto.unmask_indices(batch, knn64.secrets, "rider")
    offer = support.unmask_index(
        support.encrypt_index(np.ones(knn64.dim), knn64.driver, rng), knn64.secrets, "driver"
    )
    for j, q in enumerate(cleared):
        assert abs(support.match_similarity(q, offer) - 1.0) <= TOL


def test_derive_into_unaligned_key_file_slot(knn64):
    """Deriving into a key-file slot writes the key file of a fresh derive."""
    size = crypto.user_key_file_size(knn64.dim)
    for role in ("driver", "rider"):
        fresh = knn64.deriver.derive(role, np.random.default_rng(9))
        buf = np.zeros(size + 3, dtype=np.uint8)
        slot = buf[3:]
        parts, pattern = crypto.user_key_file(slot, knn64.dim)
        keys = knn64.deriver.derive(role, np.random.default_rng(9), out=parts)
        pattern[:] = keys.split_pattern
        assert not parts[0].flags.aligned
        assert all(np.shares_memory(k, p) for k, p in zip(keys.parts, parts))
        assert slot.tobytes() == crypto.key_material_to_bytes(fresh)
        assert slot.tobytes() == oracles.user_key_file(fresh.parts, fresh.split_pattern)
    with pytest.raises(ValueError, match="output parts"):
        knn64.deriver.derive("rider", np.random.default_rng(0), out=parts[:7])
    with pytest.raises(ValueError, match="bytes"):
        crypto.user_key_file(buf, knn64.dim)


def same_bytes(arrays, expected):
    return [a.tobytes() for a in arrays] == [e.tobytes() for e in expected]


@pytest.mark.parametrize("seed", [5, 6])
def test_key_setup_and_derivation_match_the_reference_bit_for_bit(seed):
    """Same arrays, and the generator left in the same state, as with every
    master held through set-up and both share pairs drawn before any GEMM."""
    dims = {"direct": 96, "transfer": 47, "time": 48}
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    derivers, secrets = crypto.generate_keys(dims, rng)
    reference = oracles.key_setup(dims, ref_rng)
    assert rng.random() == ref_rng.random()
    for scheme, dim in dims.items():
        deriver, ref = derivers[scheme], reference[scheme]
        names = ("split_pattern", "blend_a", "blend_b", "blend_a_inv", "blend_b_inv")
        assert same_bytes([getattr(deriver, n) for n in names], [ref[n] for n in names])
        assert same_bytes(deriver.driver_bases, ref["driver_bases"])
        assert same_bytes(deriver.rider_bases, ref["rider_bases"])
        assert same_bytes(
            [secrets[scheme].index_mask, secrets[scheme].query_mask_inv],
            [ref["index_mask"], ref["query_mask_inv"]],
        )
        for role in ("driver", "rider"):
            assert same_bytes(deriver.derive(role, rng).parts, oracles.derive(ref, role, ref_rng))
            slot = np.zeros(crypto.user_key_file_size(dim) + 3, dtype=np.uint8)[3:]
            parts, _ = crypto.user_key_file(slot, dim)
            deriver.derive(role, rng, out=parts)
            assert same_bytes(parts, oracles.derive(ref, role, ref_rng))
    assert rng.random() == ref_rng.random()


MEMORY_DIM = 256
MATRIX_BYTES = MEMORY_DIM * MEMORY_DIM * 8


def test_key_setup_peaks_within_six_matrices_of_what_it_keeps():
    """Set-up frees each master mask pair once its two bases are built."""
    tracemalloc.start()
    try:
        keys = crypto.generate_keys({"direct": MEMORY_DIM}, np.random.default_rng(1))
        held, peak = tracemalloc.get_traced_memory()  # `keys` is still held
    finally:
        tracemalloc.stop()
    del keys
    assert peak - held <= 6 * MATRIX_BYTES


def test_derivation_holds_one_share_pair_at_a_time():
    """Deriving into a key-file slot peaks at one share pair and an LU factor."""
    derivers, _ = crypto.generate_keys({"direct": MEMORY_DIM}, np.random.default_rng(2))
    slot = np.empty(crypto.user_key_file_size(MEMORY_DIM), dtype=np.uint8)
    for role in ("driver", "rider"):
        parts, _ = crypto.user_key_file(slot, MEMORY_DIM)
        tracemalloc.start()
        try:
            derivers["direct"].derive(role, np.random.default_rng(3), out=parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * MATRIX_BYTES, role


def test_key_blob_must_be_exact_and_patterns_binary(knn64):
    for obj in (knn64.driver, knn64.rider):
        blob = crypto.key_material_to_bytes(obj)
        for bad in (blob + b"garbage", blob + b"\x00", blob[:-1], blob[:9]):
            with pytest.raises(ValueError):
                crypto.key_material_from_bytes(bad, obj.role, obj.dim)
    blob = bytearray(crypto.key_material_to_bytes(knn64.rider))
    blob[-1] = 7
    with pytest.raises(ValueError, match="0/1"):
        crypto.key_material_from_bytes(bytes(blob), "rider", knn64.dim)
    with pytest.raises(ValueError, match="0/1"):
        crypto.UserKeySet("rider", knn64.dim, knn64.rider.parts, np.full(knn64.dim, 7, np.uint8))


def test_loaded_key_set_is_one_stacked_operand(knn64):
    """A key set read from a key file is one C-contiguous (d, 8d) array; its parts are views of it."""
    dim = knn64.dim
    for stored in (knn64.driver, knn64.rider):
        loaded = reloaded(stored)
        operand = loaded.operand
        assert operand.shape == (dim, crypto.PART_COUNT * dim) and operand.flags.c_contiguous
        assert all(np.shares_memory(part, operand) for part in loaded.parts)
        blocks = operand.reshape(dim, crypto.PART_COUNT, dim)
        for i, (part, want) in enumerate(zip(loaded.parts, stored.parts)):
            np.testing.assert_array_equal(part, want)
            # row k of the operand holds row k of every key operand M_i
            key_operand = want.T if stored.role == "driver" else want
            np.testing.assert_array_equal(blocks[:, i, :], key_operand)
        assert crypto.key_material_to_bytes(loaded) == crypto.key_material_to_bytes(stored)


def dense_reference(vectors, keys, seed):
    return oracles.dense_encrypt(
        vectors, keys.parts, keys.split_pattern, keys.role, np.random.default_rng(seed)
    )


def assert_same_parts(got, want):
    got = np.stack([idx.parts for idx in got])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("dim", [16, 47, 48, 320])
@pytest.mark.parametrize("role", ["driver", "rider"])
def test_encryption_equals_the_dense_reference_for_the_same_draws(dim, role):
    """Masks plus gathered key rows give the split halves times the eight parts.

    The batch holds an all-zero row, a repeated vector and a dense one; a
    generator and a fresh MaskStock of the same seed draw the same r.
    """
    rng = np.random.default_rng(dim)
    derivers, _ = crypto.generate_keys({"scheme": dim}, rng)
    keys = reloaded(derivers["scheme"].derive(role, rng))
    vectors = (rng.random((6, dim)) < 0.1).astype(float)
    vectors[1] = 0.0
    vectors[4] = vectors[2]
    vectors[5] = 1.0
    want = dense_reference(vectors, keys, 11)
    assert_same_parts(crypto.encrypt_indices(vectors, keys, np.random.default_rng(11)), want)
    stock = crypto.MaskStock(np.random.default_rng(11))
    assert_same_parts(crypto.encrypt_indices(vectors, keys, stock), want)


def test_encryption_at_768_equals_the_dense_reference_and_gathers_into_one_buffer():
    """A trip's encryption allocates about its output, never a block of key rows.

    Its key rows go through `row_buffer` in several passes; a stack taller
    than that buffer gathers through one as tall as the stack.
    """
    dim = 768
    rng = np.random.default_rng(dim)
    derivers, _ = crypto.generate_keys({"scheme": dim}, rng)
    keys = reloaded(derivers["scheme"].derive("driver", rng))
    del derivers
    vectors = (rng.random((16, dim)) < 0.05).astype(float)
    vectors[3] = vectors[0]
    assert len(keys.row_buffer) < 16
    for rows in (3, 16):
        want = dense_reference(vectors[:rows], keys, 12)
        stock = crypto.MaskStock(np.random.default_rng(12))
        assert_same_parts(crypto.encrypt_indices(vectors[:rows], keys, stock), want)
    trip = vectors[:3]
    output = trip.shape[0] * crypto.PART_COUNT * dim * 8
    tracemalloc.start()
    try:
        crypto.encrypt_indices(trip, keys, stock)  # served from the stock: no refill
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gathered = np.count_nonzero(trip.any(axis=0)) * crypto.PART_COUNT * dim * 8
    assert peak <= 4 * output < gathered / 4


def test_mask_stock_serves_each_mask_once(knn64):
    """A call takes exactly its rows; a refill of max(short, d // 8) happens only when short.

    An all-zero vector's parts 0-3 are its mask, so zero rows show which
    masks were served: in order, each drawn row exactly once.
    """
    keys = knn64.rider
    per_refill = knn64.dim // 8
    stock = crypto.MaskStock(np.random.default_rng(31))
    served, drawn = [], []
    for count in (2, 3, 3, 10, 20, 1):
        held = len(stock.stocks.get(keys, ()))
        state = stock.rng.bit_generator.state
        served += [ix.parts[:4] for ix in crypto.encrypt_indices(np.zeros((count, keys.dim)), keys, stock)]
        left = len(stock.stocks[keys])
        if held >= count:
            assert stock.rng.bit_generator.state == state  # no draw
            assert left == held - count
        else:
            refill = max(count - held, per_refill)
            assert left == held + refill - count < per_refill
            drawn.append(refill)
    assert drawn == [per_refill, 10, 20, per_refill]
    r = np.random.default_rng(31).uniform(-1.0, 1.0, (sum(drawn), keys.dim))
    masks = (r * ~keys.copied) @ keys.operand
    np.testing.assert_allclose(
        np.stack(served).reshape(len(served), -1), masks[: len(served), : 4 * keys.dim], atol=1e-12
    )
    twice = crypto.encrypt_indices(np.ones((2, keys.dim)), keys, stock)
    assert not np.array_equal(twice[0].parts, twice[1].parts)


def test_same_key_file_and_seed_give_the_same_bytes_through_a_stock(knn64):
    blob = crypto.key_material_to_bytes(knn64.driver)
    vectors = np.random.default_rng(3).integers(0, 2, (5, knn64.dim)).astype(float)
    runs = []
    for _ in range(2):
        keys = crypto.key_material_from_bytes(blob, "driver", knn64.dim)
        stock = crypto.MaskStock(np.random.default_rng(42))
        calls = [crypto.encrypt_indices(vectors[:n], keys, stock) for n in (1, 3, 1)]
        runs.append(b"".join(ix.to_bytes() for call in calls for ix in call))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dim", [16, 768])
def test_unmask_bound_inclusive_and_checked_before_writing(dim):
    eye = np.eye(dim)
    secrets = crypto.TosSecrets(dim, eye, eye)  # unmasking leaves the parts as they are
    bound = crypto.unmasked_part_bound(dim)
    assert bound == math.sqrt(np.finfo(np.float64).max / (16 * dim))
    row, column = (
        support.unmask_index(crypto.EncryptedIndex(np.full((8, dim), -bound)), secrets, role)
        for role in ("rider", "driver")
    )
    assert (row.parts == -bound).all() and (column.parts == -bound).all()
    assert np.isfinite(crypto.similarity_matrix([row], [column])).all()
    for bad in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf), np.nan, np.inf):
        parts = np.zeros((8, dim))
        parts[3, dim // 2] = bad
        with pytest.raises(ValueError, match="not finite or exceed the magnitude bound"):
            crypto.unmask_indices([crypto.EncryptedIndex(parts)], secrets, "rider")


@pytest.mark.parametrize("dim", [16, 48])
@pytest.mark.parametrize("role", ["driver", "rider"])
def test_known_plaintext_attack_break_point(dim, role):
    """A key set's ciphertexts are linear in its plaintexts: 2·d known pairs
    recover every fresh vector whole, d/2 recover at most 5 % of them."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        derivers, _ = crypto.generate_keys({"scheme": dim}, rng)
        keys = derivers["scheme"].derive(role, rng)

        def sample(n):
            plain = (rng.random((n, dim)) < 0.3).astype(float)
            parts = np.stack([ix.parts for ix in crypto.encrypt_indices(plain, keys, rng)])
            return parts, plain

        fresh_parts, fresh = sample(200)
        known_parts, known = sample(2 * dim)

        def whole(n):
            guess = oracles.known_plaintext_attack(known_parts[:n], known[:n], fresh_parts)
            return float((guess == fresh).all(axis=1).mean())

        assert whole(2 * dim) == 1.0, seed
        assert whole(dim // 2) <= 0.05, seed

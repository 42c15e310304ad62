import math

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
    query = support.unmask_index(support.encrypt_index(q, env.rider, rng), env.secrets)
    offer = support.unmask_index(support.encrypt_index(p, env.driver, rng), env.secrets)
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
    first, second = crypto.split_vector(vec, pattern, role, np.random.default_rng(seed + 1))
    split_here = pattern.astype(bool) if role == "driver" else ~pattern.astype(bool)
    # split positions reconstruct the value; copy positions carry it in both halves
    np.testing.assert_allclose((first + second)[split_here], vec[split_here], atol=1e-12)
    np.testing.assert_allclose(first[~split_here], vec[~split_here])
    np.testing.assert_allclose(second[~split_here], vec[~split_here])


def test_roles_split_complementary_positions(knn64):
    pattern = knn64.master.split_pattern.astype(bool)
    rng = np.random.default_rng(9)
    vec = rng.integers(0, 2, knn64.dim).astype(float)
    d1, d2 = crypto.split_vector(vec, knn64.master.split_pattern, "driver", rng)
    r1, r2 = crypto.split_vector(vec, knn64.master.split_pattern, "rider", rng)
    np.testing.assert_array_equal(d1[~pattern], vec[~pattern])
    np.testing.assert_array_equal(r1[pattern], vec[pattern])


def test_key_share_sums_rebuild_blend_inverses(knn64):
    """White box: the masked driver parts recombine to the blend inverses."""
    master, secrets = knn64.master, knn64.secrets
    d = knn64.driver.parts
    for i, j, expected in ((0, 1, master.blend_a_inv), (4, 5, master.blend_b_inv)):
        total = (
            master.mask_parts[i] @ secrets.index_mask @ d[i]
            + master.mask_parts[j] @ secrets.index_mask @ d[j]
        )
        np.testing.assert_allclose(total, expected, atol=1e-6)
    r = knn64.rider.parts
    inv = secrets.query_mask_inv
    for i, j, expected in ((0, 2, master.blend_a), (4, 6, master.blend_b)):
        total = (
            r[i] @ inv @ master.mask_part_invs[i]
            + r[j] @ inv @ master.mask_part_invs[j]
        )
        np.testing.assert_allclose(total, expected, atol=1e-6)


def test_ciphertexts_fresh_but_outcomes_stable(knn64):
    rng = np.random.default_rng(12)
    vec = rng.integers(0, 2, knn64.dim).astype(float)
    probe = rng.integers(0, 2, knn64.dim).astype(float)
    offer1 = support.encrypt_index(vec, knn64.driver, rng)
    offer2 = support.encrypt_index(vec, knn64.driver, rng)
    assert not np.array_equal(offer1.parts, offer2.parts)
    query = support.unmask_index(support.encrypt_index(probe, knn64.rider, rng), knn64.secrets)
    s1 = support.match_similarity(query, support.unmask_index(offer1, knn64.secrets))
    s2 = support.match_similarity(query, support.unmask_index(offer2, knn64.secrets))
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
        support.unmask_index(support.encrypt_index(v, keys, rng), knn64.secrets)
        for v in vecs
        for keys in (knn64.driver, driver2)
    ]
    sims = []
    for rider in (knn64.rider, rider2):
        query = support.unmask_index(support.encrypt_index(q, rider, rng), knn64.secrets)
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


def test_unmask_twice_rejected(knn64):
    rng = np.random.default_rng(3)
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    cleared = support.unmask_index(idx, knn64.secrets)
    with pytest.raises(ValueError, match="already unmasked"):
        support.unmask_index(cleared, knn64.secrets)


def test_match_requires_unmasked_and_oriented(knn64):
    rng = np.random.default_rng(4)
    query = support.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    offer = support.encrypt_index(np.ones(knn64.dim), knn64.driver, rng)
    with pytest.raises(ValueError, match="unmasked"):
        support.match_similarity(query, offer)
    uq = support.unmask_index(query, knn64.secrets)
    uo = support.unmask_index(offer, knn64.secrets)
    with pytest.raises(ValueError, match="row query"):
        support.match_similarity(uo, uq)


def test_dimension_mismatch_rejected(knn64):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="width"):
        support.encrypt_index(np.ones(knn64.dim + 1), knn64.rider, rng)
    other = crypto.generate_tos_secrets(32, rng)
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    with pytest.raises(ValueError, match="dim"):
        support.unmask_index(idx, other)


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


def test_key_material_round_trips(knn64):
    for obj in (knn64.driver, knn64.rider):
        back = crypto.key_material_from_bytes(crypto.key_material_to_bytes(obj))
        assert type(back) is crypto.UserKeySet and back.role == obj.role
    reload = crypto.key_material_from_bytes(crypto.key_material_to_bytes(knn64.driver))
    for a, b in zip(reload.parts, knn64.driver.parts):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(reload.split_pattern, knn64.driver.split_pattern)
    assert reload.role == "driver"
    with pytest.raises(ValueError):
        crypto.key_material_from_bytes(b"XXXX" + b"\x00" * 32)
    for role_byte in (b"M", b"T"):  # no key file holds master keys or server secrets
        blob = bytearray(crypto.key_material_to_bytes(knn64.rider))
        blob[4:5] = role_byte
        with pytest.raises(ValueError, match="role byte"):
            crypto.key_material_from_bytes(bytes(blob))


def test_reloaded_keys_still_match(knn64):
    rng = np.random.default_rng(8)
    rider = crypto.key_material_from_bytes(crypto.key_material_to_bytes(knn64.rider))
    q = rng.integers(0, 2, knn64.dim).astype(float)
    p = rng.integers(0, 2, knn64.dim).astype(float)
    query = support.unmask_index(support.encrypt_index(q, rider, rng), knn64.secrets)
    offer = support.unmask_index(support.encrypt_index(p, knn64.driver, rng), knn64.secrets)
    assert abs(support.match_similarity(query, offer) - q @ p) <= TOL


@pytest.mark.parametrize("dim", [64, 768])
def test_stored_inverses_are_the_inverses_of_their_matrices(dim):
    rng = np.random.default_rng(dim)
    master = crypto.generate_master_key(dim, rng)
    secrets = crypto.generate_tos_secrets(dim, rng)
    pairs = [
        (master.blend_a, master.blend_a_inv),
        (master.blend_b, master.blend_b_inv),
        *zip(master.mask_parts, master.mask_part_invs, strict=True),
        (secrets.query_mask, secrets.query_mask_inv),
        (secrets.index_mask, secrets.index_mask_inv),
    ]
    assert len(pairs) == 2 + crypto.PART_COUNT + 2
    for mat, inv in pairs:
        np.testing.assert_array_equal(inv, np.linalg.inv(mat))


def test_key_generation_rejects_ill_conditioned(monkeypatch):
    monkeypatch.setattr(crypto, "COND_LIMIT", 1e-9)
    with pytest.raises(crypto.KeyGenerationError):
        crypto.generate_master_key(8, np.random.default_rng(0))


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
    master = crypto.generate_master_key(dim, rng)
    secrets = crypto.generate_tos_secrets(dim, rng)
    deriver = crypto.KeyDeriver(master, secrets)
    driver, rider = deriver.derive("driver", rng), deriver.derive("rider", rng)
    assert len(conds) == 4 and min(conds) >= 1e10

    q = rng.integers(0, 2, (24, dim)).astype(float)
    p = rng.integers(0, 2, (24, dim)).astype(float)
    queries = crypto.unmask_indices(crypto.encrypt_indices(q, rider, rng), secrets)
    offers = crypto.unmask_indices(crypto.encrypt_indices(p, driver, rng), secrets)
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
        crypto.split_vector(np.ones(4), np.zeros(4, dtype=np.uint8), "admin", np.random.default_rng(0))


def test_batched_and_single_encrypt_agree(knn64):
    vecs = np.eye(knn64.dim)[:5]
    batch = crypto.encrypt_indices(vecs, knn64.rider, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    for j, idx in enumerate(batch):
        assert idx.orientation == "row"
        assert idx.dim == knn64.dim
    cleared = crypto.unmask_indices(batch, knn64.secrets)
    offer = support.unmask_index(
        support.encrypt_index(np.ones(knn64.dim), knn64.driver, rng), knn64.secrets
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
        parts, pattern = crypto.user_key_file(slot, role, knn64.dim)
        keys = knn64.deriver.derive(role, np.random.default_rng(9), out=parts)
        pattern[:] = keys.split_pattern
        assert not parts[0].flags.aligned
        assert all(np.shares_memory(k, p) for k, p in zip(keys.parts, parts))
        assert slot.tobytes() == crypto.key_material_to_bytes(fresh)
        assert slot.tobytes() == oracles.user_key_file(role, fresh.parts, fresh.split_pattern)
    with pytest.raises(ValueError, match="output parts"):
        knn64.deriver.derive("rider", np.random.default_rng(0), out=parts[:7])
    with pytest.raises(ValueError, match="bytes"):
        crypto.user_key_file(buf, "rider", knn64.dim)


def test_key_blob_must_be_exact_and_patterns_binary(knn64):
    for obj in (knn64.driver, knn64.rider):
        blob = crypto.key_material_to_bytes(obj)
        for bad in (blob + b"garbage", blob + b"\x00", blob[:-1], blob[:9]):
            with pytest.raises(ValueError):
                crypto.key_material_from_bytes(bad)
    blob = bytearray(crypto.key_material_to_bytes(knn64.rider))
    blob[-1] = 7
    with pytest.raises(ValueError, match="0/1"):
        crypto.key_material_from_bytes(bytes(blob))
    with pytest.raises(ValueError, match="0/1"):
        crypto.UserKeySet("rider", knn64.dim, knn64.rider.parts, np.full(knn64.dim, 7, np.uint8))


def test_loaded_driver_parts_multiply_as_contiguous_transposes(knn64):
    """Loaded driver parts have C-contiguous transposes and give the same ciphertexts."""
    driver = crypto.key_material_from_bytes(crypto.key_material_to_bytes(knn64.driver))
    rider = crypto.key_material_from_bytes(crypto.key_material_to_bytes(knn64.rider))
    assert all(p.T.flags.c_contiguous for p in driver.parts)
    assert all(p.flags.c_contiguous for p in rider.parts)
    vecs = np.random.default_rng(3).integers(0, 2, (6, knn64.dim)).astype(float)
    got = np.stack([idx.parts for idx in crypto.encrypt_indices(vecs, driver, np.random.default_rng(4))])
    first, second = crypto.split_vector(
        vecs, knn64.driver.split_pattern, "driver", np.random.default_rng(4)
    )
    want = np.stack(
        [(first if i < 4 else second) @ k.T for i, k in enumerate(knn64.driver.parts)], axis=1
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("dim", [16, 768])
def test_unmask_bound_inclusive_and_checked_before_writing(dim):
    eye = np.eye(dim)
    secrets = crypto.TosSecrets(dim, eye, eye, eye, eye)  # unmasking leaves the parts as they are
    bound = crypto.unmasked_part_bound(dim)
    assert bound == math.sqrt(np.finfo(np.float64).max / (16 * dim))
    row, column = (
        support.unmask_index(crypto.EncryptedIndex(o, np.full((8, dim), -bound)), secrets)
        for o in ("row", "column")
    )
    assert (row.parts == -bound).all() and (column.parts == -bound).all()
    assert np.isfinite(crypto.similarity_matrix([row], [column])).all()
    for bad in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf), np.nan, np.inf):
        parts = np.zeros((8, dim))
        parts[3, dim // 2] = bad
        with pytest.raises(ValueError, match="bound"):
            crypto.unmask_indices([crypto.EncryptedIndex("row", parts)], secrets)

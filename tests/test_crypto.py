import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ridecloak import crypto

TOL = 1e-3


def enc_pair(env, q, p, rng):
    """Encrypt, unmask, and return (row query, column offer) indexes."""
    query = crypto.unmask_index(crypto.encrypt_index(q, env.rider, rng), env.secrets)
    offer = crypto.unmask_index(crypto.encrypt_index(p, env.driver, rng), env.secrets)
    return query, offer


def test_inner_product_exact_small(knn64):
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.integers(0, 2, knn64.dim).astype(float)
        p = rng.integers(0, 2, knn64.dim).astype(float)
        query, offer = enc_pair(knn64, q, p, rng)
        assert abs(crypto.match_similarity(query, offer) - q @ p) <= TOL


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**31 - 1))
def test_inner_product_property(knn64, q_bits, p_bits, seed):
    q = np.array([(q_bits >> i) & 1 for i in range(16)] * 4, dtype=float)
    p = np.array([(p_bits >> i) & 1 for i in range(16)] * 4, dtype=float)
    query, offer = enc_pair(knn64, q, p, np.random.default_rng(seed))
    assert abs(crypto.match_similarity(query, offer) - q @ p) <= TOL


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
    offer1 = crypto.encrypt_index(vec, knn64.driver, rng)
    offer2 = crypto.encrypt_index(vec, knn64.driver, rng)
    assert not np.array_equal(offer1.parts, offer2.parts)
    query = crypto.unmask_index(crypto.encrypt_index(probe, knn64.rider, rng), knn64.secrets)
    s1 = crypto.match_similarity(query, crypto.unmask_index(offer1, knn64.secrets))
    s2 = crypto.match_similarity(query, crypto.unmask_index(offer2, knn64.secrets))
    assert abs(s1 - s2) <= 2 * TOL


def test_encryption_deterministic_given_rng(knn64):
    vec = np.ones(knn64.dim)
    a = crypto.encrypt_index(vec, knn64.driver, np.random.default_rng(42))
    b = crypto.encrypt_index(vec, knn64.driver, np.random.default_rng(42))
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
        crypto.unmask_index(crypto.encrypt_index(v, keys, rng), knn64.secrets)
        for v in vecs
        for keys in (knn64.driver, driver2)
    ]
    sims = []
    for rider in (knn64.rider, rider2):
        query = crypto.unmask_index(crypto.encrypt_index(q, rider, rng), knn64.secrets)
        sims.append([crypto.match_similarity(query, o) for o in offers])
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
        query = crypto.encrypt_index(q, knn64.rider, rng)
        offer = crypto.encrypt_index(p, knn64.driver, rng)
        raw = float(kernels.paired_dots(query.parts, offer.parts).sum())
        agree += abs(raw - q @ p) <= TOL
    assert agree == 0


def test_unmask_twice_rejected(knn64):
    rng = np.random.default_rng(3)
    idx = crypto.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    cleared = crypto.unmask_index(idx, knn64.secrets)
    with pytest.raises(ValueError, match="already unmasked"):
        crypto.unmask_index(cleared, knn64.secrets)


def test_match_requires_unmasked_and_oriented(knn64):
    rng = np.random.default_rng(4)
    query = crypto.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    offer = crypto.encrypt_index(np.ones(knn64.dim), knn64.driver, rng)
    with pytest.raises(ValueError, match="unmasked"):
        crypto.match_similarity(query, offer)
    uq = crypto.unmask_index(query, knn64.secrets)
    uo = crypto.unmask_index(offer, knn64.secrets)
    with pytest.raises(ValueError, match="row query"):
        crypto.match_similarity(uo, uq)


def test_dimension_mismatch_rejected(knn64):
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="width"):
        crypto.encrypt_index(np.ones(knn64.dim + 1), knn64.rider, rng)
    other = crypto.generate_tos_secrets(32, rng)
    idx = crypto.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    with pytest.raises(ValueError, match="dim"):
        crypto.unmask_index(idx, other)


def test_non_binary_plaintext_rejected(knn64):
    with pytest.raises(ValueError, match="binary"):
        crypto.encrypt_index(np.full(knn64.dim, 0.5), knn64.rider, np.random.default_rng(0))


def test_encrypted_index_byte_round_trip(knn64):
    rng = np.random.default_rng(7)
    idx = crypto.encrypt_index(np.ones(knn64.dim), knn64.driver, rng)
    back = crypto.EncryptedIndex.from_bytes(idx.to_bytes())
    assert back.orientation == idx.orientation
    assert back.unmasked == idx.unmasked
    np.testing.assert_array_equal(back.parts, idx.parts)
    with pytest.raises(ValueError):
        crypto.EncryptedIndex.from_bytes(idx.to_bytes()[:-1])
    for head in (b"\x02\x00", b"\x07\x00", b"\x00\x02"):
        with pytest.raises(ValueError, match="byte must be 0 or 1"):
            crypto.EncryptedIndex.from_bytes(head + idx.to_bytes()[2:])


def test_key_material_round_trips(tmp_path, knn64):
    for obj in (knn64.master, knn64.secrets, knn64.driver, knn64.rider):
        blob = crypto.key_material_to_bytes(obj)
        back = crypto.key_material_from_bytes(blob)
        assert type(back) is type(obj)
        path = tmp_path / f"{type(obj).__name__}.key"
        crypto.save_key_material(path, obj)
        again = crypto.load_key_material(path)
        assert type(again) is type(obj)
    reload = crypto.key_material_from_bytes(crypto.key_material_to_bytes(knn64.driver))
    for a, b in zip(reload.parts, knn64.driver.parts):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(reload.split_pattern, knn64.driver.split_pattern)
    assert reload.role == "driver"
    with pytest.raises(ValueError):
        crypto.key_material_from_bytes(b"XXXX" + b"\x00" * 32)


def test_reloaded_keys_still_match(tmp_path, knn64):
    rng = np.random.default_rng(8)
    crypto.save_key_material(tmp_path / "r.key", knn64.rider)
    crypto.save_key_material(tmp_path / "s.key", knn64.secrets)
    rider = crypto.load_key_material(tmp_path / "r.key")
    secrets = crypto.load_key_material(tmp_path / "s.key")
    q = rng.integers(0, 2, knn64.dim).astype(float)
    p = rng.integers(0, 2, knn64.dim).astype(float)
    query = crypto.unmask_index(crypto.encrypt_index(q, rider, rng), secrets)
    offer = crypto.unmask_index(crypto.encrypt_index(p, knn64.driver, rng), knn64.secrets)
    assert abs(crypto.match_similarity(query, offer) - q @ p) <= TOL


def test_key_generation_rejects_ill_conditioned(monkeypatch):
    monkeypatch.setattr(crypto, "COND_LIMIT", 1e-9)
    with pytest.raises(crypto.KeyGenerationError):
        crypto.generate_master_key(8, np.random.default_rng(0))


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
    offer = crypto.unmask_index(
        crypto.encrypt_index(np.ones(knn64.dim), knn64.driver, rng), knn64.secrets
    )
    for j, q in enumerate(cleared):
        assert abs(crypto.match_similarity(q, offer) - 1.0) <= TOL


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
        knn64.deriver.derive("rider", 0, out=parts[:7])
    with pytest.raises(ValueError, match="bytes"):
        crypto.user_key_file(buf, "rider", knn64.dim)


def test_key_blob_must_be_exact_and_patterns_binary(knn64):
    for obj in (knn64.master, knn64.secrets, knn64.driver, knn64.rider):
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
    secrets = crypto.TosSecrets(dim, eye, eye)  # unmasking leaves the parts as they are
    bound = crypto.unmasked_part_bound(dim)
    assert bound == math.sqrt(np.finfo(np.float64).max / (16 * dim))
    row, column = (
        crypto.unmask_index(crypto.EncryptedIndex(o, np.full((8, dim), -bound)), secrets)
        for o in ("row", "column")
    )
    assert (row.parts == -bound).all() and (column.parts == -bound).all()
    assert np.isfinite(crypto.similarity_matrix([row], [column])).all()
    out = [np.zeros((8, dim))]
    for bad in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf), np.nan, np.inf):
        parts = np.zeros((8, dim))
        parts[3, dim // 2] = bad
        with pytest.raises(ValueError, match="bound"):
            crypto.unmask_indices([crypto.EncryptedIndex("row", parts)], secrets, out=out)
        assert not out[0].any()

"""Matrix-masked inner-product encryption for trip vectors.

Offers are encrypted as column-form indexes, requests as row-form query
indexes. Each index carries eight masked parts; after the matching server
applies its unmasking secrets, the sum of the eight part-wise dot products
telescopes to the exact inner product of the two plaintext binary vectors,
and nothing else about the plaintexts is revealed. Indexes produced under
different user key sets derived from the same master keys remain mutually
comparable, which is what lets the server match strangers' trips.

All matrices are double precision with entries drawn uniformly from
[-1, 1]. Master keys and server secrets are redrawn (at most 8 attempts)
while their 1-norm condition number exceeds 1e6, and the inverse the
accepting check computes is the one used, so no secret matrix is
inverted twice. A user's additive key shares are never inverted: a share
pair is redrawn only when one LU factorization shows a share singular,
with no condition bound, because the similarity error does not depend on
how well a share is conditioned. `generate_keys`, the one set-up call,
gives the authority a KeyDeriver and the server a TosSecrets per scheme,
and the two share no array. Master keys and server secrets exist only in
memory; the one key file format holds a user key set. Fixed-seed key
bytes are reproducible under one BLAS thread count only; match records
do not depend on it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels

# Rejection threshold for ill-conditioned master and server matrices.
COND_LIMIT = 1.0e6
MAX_DRAWS = 8
PART_COUNT = 8

KEYFILE_MAGIC = b"KNN1"
_ROLE_BYTES = {"driver": b"D", "rider": b"R"}
_BYTE_ROLES = {byte: role for role, byte in _ROLE_BYTES.items()}

# Which additive share multiplies each of the eight mask parts.
# Drivers alternate the two shares of each blend inverse; riders pair them.
_DRIVER_SHARE_ORDER = (0, 1, 0, 1, 2, 3, 2, 3)
_RIDER_SHARE_ORDER = (0, 0, 1, 1, 2, 2, 3, 3)


class KeyGenerationError(RuntimeError):
    """Raised when no acceptable matrix or share pair is drawn within MAX_DRAWS."""


def _well_conditioned(mat: np.ndarray) -> np.ndarray | None:
    """The inverse of `mat` if its 1-norm condition number is within COND_LIMIT, else None."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)
    return inv if np.isfinite(cond) and cond <= COND_LIMIT else None


def _random_invertible(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a well-conditioned uniform [-1, 1] matrix; returns (matrix, inverse)."""
    for _ in range(MAX_DRAWS):
        cand = rng.uniform(-1.0, 1.0, (dim, dim))
        inv = _well_conditioned(cand)
        if inv is not None:
            return cand, inv
    raise KeyGenerationError(f"no invertible {dim}x{dim} draw within {MAX_DRAWS} attempts")


def _invertible(mat: np.ndarray) -> bool:
    """Whether one LU factorization of `mat` shows it invertible."""
    sign, logabsdet = np.linalg.slogdet(mat)
    return bool(sign != 0 and np.isfinite(logabsdet))


def _invertible_shares(total: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split `total` into two invertible matrices summing to it.

    `first` is uniform on [-1, 1] and `second = total - first`. The pair
    is redrawn (at most MAX_DRAWS times) until an LU factorization shows
    both invertible. There is no condition bound: no share is ever
    inverted, and the similarity error does not depend on how well a
    share is conditioned (tests/test_crypto.py checks this at cond_1 >= 1e10).
    """
    for _ in range(MAX_DRAWS):
        first = rng.uniform(-1.0, 1.0, total.shape)
        second = total - first
        if _invertible(first) and _invertible(second):
            return first, second
    raise KeyGenerationError(f"no invertible additive share pair within {MAX_DRAWS} draws")


def _check_square(name: str, mat: np.ndarray, dim: int) -> None:
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")


@dataclass
class TosSecrets:
    """Matching-server secrets for one vector width: the two matrices it unmasks with.

    index_mask is applied (on the left) to column-form offer parts,
    query_mask_inv (on the right) to row-form query parts; until then,
    indexes from different users are not comparable.
    """

    dim: int
    index_mask: np.ndarray
    query_mask_inv: np.ndarray


@dataclass
class UserKeySet:
    """Per-user encryption keys: eight composed matrices plus the split pattern."""

    role: str  # "driver" or "rider"
    dim: int
    parts: tuple[np.ndarray, ...]
    split_pattern: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in _ROLE_BYTES:
            raise ValueError(f"role must be 'driver' or 'rider', got {self.role!r}")
        if len(self.parts) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} key parts, got {len(self.parts)}")
        for i, part in enumerate(self.parts):
            _check_square(f"parts[{i}]", part, self.dim)
        if self.split_pattern.shape != (self.dim,):
            raise ValueError("split_pattern width mismatch")
        if not np.isin(self.split_pattern, (0, 1)).all():
            raise ValueError("split_pattern must be 0/1")


@dataclass
class EncryptedIndex:
    """One encrypted trip vector.

    orientation is "column" for offer-side indexes and "row" for
    query-side indexes; parts is an (8, dim) float64 array; unmasked
    records whether the matching server has applied its secrets yet.
    Neither flag nor the width travels: on the wire an index is its bare
    parts, and the submission it sits in fixes its form (`protocol`).
    """

    orientation: str
    parts: np.ndarray
    unmasked: bool = False

    def __post_init__(self) -> None:
        if self.orientation not in ("column", "row"):
            raise ValueError(f"orientation must be 'column' or 'row', got {self.orientation!r}")
        self.parts = np.ascontiguousarray(self.parts, dtype=np.float64)
        if self.parts.ndim != 2 or self.parts.shape[0] != PART_COUNT:
            raise ValueError(f"parts must be ({PART_COUNT}, dim), got {self.parts.shape}")

    @property
    def dim(self) -> int:
        return self.parts.shape[1]

    def flat(self) -> np.ndarray:
        """Contiguous (8*dim,) view used by the batched matching kernels."""
        return self.parts.reshape(-1)

    def to_bytes(self) -> bytes:
        """The bare parts, little-endian float64 row-major: an index's form on the wire."""
        return self.parts.astype("<f8").tobytes()


@dataclass
class KeyDeriver:
    """Derives per-user key sets for one vector width.

    It holds only what a derivation reads: the split pattern, the two blend
    matrices with their inverses and the 16 bases `generate_keys` computes,
    (4 + 16) * dim^2 values. A derivation splits each blend matrix (riders)
    or its inverse (drivers) into two additive shares, accepted once an LU
    factorization shows each invertible; unlike the master keys, shares
    carry no condition bound and are never inverted.
    """

    dim: int
    split_pattern: np.ndarray
    blend_a: np.ndarray
    blend_b: np.ndarray
    blend_a_inv: np.ndarray
    blend_b_inv: np.ndarray
    driver_bases: tuple[np.ndarray, ...]
    rider_bases: tuple[np.ndarray, ...]

    def derive(
        self,
        role: str,
        rng: np.random.Generator,
        out: tuple[np.ndarray, ...] | None = None,
    ) -> UserKeySet:
        """A fresh key set for `role`.

        With `out`, eight (dim, dim) float64 arrays, each part is computed
        straight into its array and the key set's parts are those arrays.
        """
        if out is None:
            out = (None,) * PART_COUNT
        elif len(out) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} output parts, got {len(out)}")
        if role == "driver":
            share_a = _invertible_shares(self.blend_a_inv, rng)
            share_b = _invertible_shares(self.blend_b_inv, rng)
            shares = share_a + share_b
            parts = tuple(
                np.matmul(self.driver_bases[i], shares[_DRIVER_SHARE_ORDER[i]], out=out[i])
                for i in range(PART_COUNT)
            )
        elif role == "rider":
            share_a = _invertible_shares(self.blend_a, rng)
            share_b = _invertible_shares(self.blend_b, rng)
            shares = share_a + share_b
            parts = tuple(
                np.matmul(shares[_RIDER_SHARE_ORDER[i]], self.rider_bases[i], out=out[i])
                for i in range(PART_COUNT)
            )
        else:
            raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
        return UserKeySet(role, self.dim, parts, self.split_pattern.copy())


def generate_keys(
    dims: dict[str, int], rng: np.random.Generator
) -> tuple[dict[str, KeyDeriver], dict[str, TosSecrets]]:
    """Authority set-up: each scheme's KeyDeriver and the server's TosSecrets.

    `dims` maps each scheme to its width. All master keys are drawn first,
    scheme by scheme in `dims` order, then all server secrets. The driver
    bases are index_mask^-1 times each mask part inverse, the rider bases
    each mask part times query_mask; the results share no array.
    """
    masters = {
        scheme: (
            [_random_invertible(dim, rng) for _ in range(2 + PART_COUNT)],
            rng.integers(0, 2, dim).astype(np.uint8),
        )
        for scheme, dim in dims.items()
    }
    derivers, secrets = {}, {}
    for scheme, (pairs, split_pattern) in masters.items():
        dim = dims[scheme]
        (blend_a, blend_a_inv), (blend_b, blend_b_inv), *mask_parts = pairs
        query_mask, query_mask_inv = _random_invertible(dim, rng)
        index_mask, index_mask_inv = _random_invertible(dim, rng)
        derivers[scheme] = KeyDeriver(
            dim, split_pattern, blend_a, blend_b, blend_a_inv, blend_b_inv,
            driver_bases=tuple(index_mask_inv @ inv for _, inv in mask_parts),
            rider_bases=tuple(part @ query_mask for part, _ in mask_parts),
        )
        secrets[scheme] = TosSecrets(dim, index_mask, query_mask_inv)
    return derivers, secrets


def split_vector(
    vec: np.ndarray,
    pattern: np.ndarray,
    role: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Split `vec` into two halves directed by the shared 0/1 pattern.

    Drivers copy where the pattern is 0 and randomly split where it is 1;
    riders do the opposite. Split positions carry a uniform [-1, 1] draw
    and its exact complement, so the halves always sum back to `vec`.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape[-1] != pattern.shape[0]:
        raise ValueError(f"vector width {vec.shape[-1]} != pattern width {pattern.shape[0]}")
    if role == "driver":
        split_here = pattern.astype(bool)
    elif role == "rider":
        split_here = ~pattern.astype(bool)
    else:
        raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
    rand = rng.uniform(-1.0, 1.0, vec.shape)
    first = np.where(split_here, rand, vec)
    second = np.where(split_here, vec - rand, vec)
    return first, second


def _validate_plain(vectors: np.ndarray, dim: int) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.shape[1] != dim:
        raise ValueError(f"vector width {vectors.shape[1]} != key dim {dim}")
    if not ((vectors == 0.0) | (vectors == 1.0)).all():
        raise ValueError("plaintext index vectors must be binary")
    return vectors


def encrypt_indices(
    vectors: np.ndarray,
    keys: UserKeySet,
    rng: np.random.Generator,
) -> list[EncryptedIndex]:
    """Encrypt a stack of binary vectors (rows) under one key set.

    The per-part products for the whole stack run as single matrix
    multiplications, which is what keeps large-width workloads fast.
    """
    vectors = _validate_plain(vectors, keys.dim)
    count = vectors.shape[0]
    first, second = split_vector(vectors, keys.split_pattern, keys.role, rng)
    parts = np.empty((count, PART_COUNT, keys.dim), dtype=np.float64)
    if keys.role == "driver":
        # Column form: part_i = K_i @ half; computed row-wise as half @ K_i.T.
        orientation = "column"
        for i, key_part in enumerate(keys.parts):
            half = first if i < 4 else second
            parts[:, i, :] = half @ key_part.T
    else:
        # Row form: part_i = half @ K_i.
        orientation = "row"
        for i, key_part in enumerate(keys.parts):
            half = first if i < 4 else second
            parts[:, i, :] = half @ key_part
    return [EncryptedIndex(orientation, parts[j]) for j in range(count)]


def unmasked_part_bound(dim: int) -> float:
    """Largest magnitude an unmasked part may have at width `dim`.

    A similarity sums the 8*dim products of two indexes' parts; with every
    part within this bound each product is at most finfo.max / (16*dim), so
    every partial sum stays below half the float64 limit. The factor 2 is
    headroom for rounding: with finfo.max / (8*dim), two indexes at the
    bound already overflow at width 768.
    """
    return math.sqrt(np.finfo(np.float64).max / (2 * PART_COUNT * dim))


def unmask_indices(indexes: list[EncryptedIndex], secrets: TosSecrets) -> list[EncryptedIndex]:
    """Apply the server secrets to a batch of same-orientation indexes.

    This is the one finiteness gate: a NaN, an infinity or a cleared part
    beyond `unmasked_part_bound` raises ValueError.
    """
    if not indexes:
        return []
    orientation = indexes[0].orientation
    for idx in indexes:
        if idx.unmasked:
            raise ValueError("index is already unmasked")
        if idx.orientation != orientation:
            raise ValueError("unmask_indices batch must share one orientation")
        if idx.dim != secrets.dim:
            raise ValueError(f"index dim {idx.dim} != secrets dim {secrets.dim}")
    stacked = np.concatenate([idx.parts for idx in indexes], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        if orientation == "column":
            # Parts are stored as rows, so the left-multiplication transposes.
            cleared = stacked @ secrets.index_mask.T
        else:
            cleared = stacked @ secrets.query_mask_inv
    if not (np.abs(cleared) <= unmasked_part_bound(secrets.dim)).all():
        raise ValueError("unmasked index parts are not finite or exceed the magnitude bound")
    blocks = cleared.reshape(len(indexes), PART_COUNT, secrets.dim)
    return [EncryptedIndex(orientation, block, unmasked=True) for block in blocks]


def similarity_matrix(
    queries: list[EncryptedIndex], offers: list[EncryptedIndex]
) -> np.ndarray:
    """All-pairs similarities: out[i, j] = plaintext(q_i) . plaintext(o_j)."""
    if not queries or not offers:
        return np.zeros((len(queries), len(offers)))
    for idx in queries:
        if not idx.unmasked or idx.orientation != "row":
            raise ValueError("queries must be unmasked row-form indexes")
    for idx in offers:
        if not idx.unmasked or idx.orientation != "column":
            raise ValueError("offers must be unmasked column-form indexes")
    q = np.stack([idx.flat() for idx in queries])
    o = np.stack([idx.flat() for idx in offers])
    return kernels.cross_dots(q, o)


# ---------------------------------------------------------------------------
# Key file format (user key sets only): magic "KNN1", role byte, u32 dim,
# u8 part count, then the eight parts as little-endian float64 row-major,
# then the 0/1 split pattern as raw bytes.
# ---------------------------------------------------------------------------

_KEYFILE_HEAD = struct.Struct("<4scIB")


def user_key_file_size(dim: int) -> int:
    """Byte length of the key file of a width-`dim` user key set."""
    return _KEYFILE_HEAD.size + PART_COUNT * dim * dim * 8 + dim


def user_key_file(
    slot: np.ndarray, role: str, dim: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Lay out a user key set's key file in the uint8 buffer `slot`.

    Writes the header and returns writable views of the eight parts, as
    (dim, dim) little-endian float64 arrays, and of the split pattern, for
    the caller to fill. The part views need not be aligned.
    """
    size = user_key_file_size(dim)
    if slot.shape != (size,):
        raise ValueError(f"user key file of width {dim} takes {size} bytes, got {slot.shape}")
    _KEYFILE_HEAD.pack_into(slot, 0, KEYFILE_MAGIC, _ROLE_BYTES[role], dim, PART_COUNT)
    parts = slot[_KEYFILE_HEAD.size : size - dim].view("<f8").reshape(PART_COUNT, dim, dim)
    return tuple(parts), slot[size - dim :]


def key_material_to_bytes(keys: UserKeySet) -> bytes:
    """The key file of a user key set, laid out by `user_key_file`."""
    slot = np.empty(user_key_file_size(keys.dim), dtype=np.uint8)
    parts, pattern = user_key_file(slot, keys.role, keys.dim)
    for view, part in zip(parts, keys.parts):
        view[...] = part
    pattern[:] = keys.split_pattern
    return slot.tobytes()


def key_material_from_bytes(blob: bytes | memoryview) -> UserKeySet:
    """The user key set in a whole key file held in any bytes-like object.

    Each matrix is copied once out of `blob`, into an aligned array (a
    GEMM with an unaligned key operand is several times slower). Driver
    parts are stored so that `part.T`, the operand `encrypt_indices`
    multiplies by, is C-contiguous.
    """
    if len(blob) < _KEYFILE_HEAD.size:
        raise ValueError(f"key file too short: {len(blob)} bytes")
    magic, role_byte, dim, count = _KEYFILE_HEAD.unpack_from(blob)
    if magic != KEYFILE_MAGIC:
        raise ValueError(f"bad key file magic: {magic!r}")
    role = _BYTE_ROLES.get(role_byte)
    if role is None:
        raise ValueError(f"unknown key file role byte {role_byte!r}")
    if count != PART_COUNT:
        raise ValueError(f"user key file must hold {PART_COUNT} parts, got {count}")
    size = user_key_file_size(dim)
    if len(blob) != size:
        raise ValueError(f"user key file of width {dim} must be {size} bytes, got {len(blob)}")
    stored = np.frombuffer(blob, "<f8", count * dim * dim, _KEYFILE_HEAD.size)
    stored = stored.reshape(count, dim, dim)
    pattern = np.frombuffer(blob, np.uint8, dim, size - dim).copy()
    if role == "driver":
        parts = tuple(m.T.copy().T for m in stored)
    else:
        parts = tuple(m.copy() for m in stored)
    return UserKeySet(role, dim, parts, pattern)

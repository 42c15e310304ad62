"""Matrix-masked inner-product encryption for trip vectors.

Offers are encrypted as column-form indexes, requests as row-form query
indexes. Each index carries eight masked parts; after the matching server
applies its unmasking secrets, the sum of the eight part-wise dot products
telescopes to the exact inner product of the two plaintext binary vectors,
and nothing else about the plaintexts is revealed. Indexes produced under
different user key sets derived from the same master keys remain mutually
comparable, which is what lets the server match strangers' trips.

All matrices are double precision with entries drawn uniformly from
[-1, 1]; candidates with a 1-norm condition estimate above 1e6 are
redrawn (at most 8 attempts).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels

# Rejection threshold for ill-conditioned random matrices.
COND_LIMIT = 1.0e6
MAX_DRAWS = 8
PART_COUNT = 8

KEYFILE_MAGIC = b"KNN1"
_ROLE_BYTES = {"driver": b"D", "rider": b"R"}

# Which additive share multiplies each of the eight mask parts.
# Drivers alternate the two shares of each blend inverse; riders pair them.
_DRIVER_SHARE_ORDER = (0, 1, 0, 1, 2, 3, 2, 3)
_RIDER_SHARE_ORDER = (0, 0, 1, 1, 2, 2, 3, 3)


class KeyGenerationError(RuntimeError):
    """Raised when no acceptably conditioned matrix is found."""


def _well_conditioned(mat: np.ndarray) -> bool:
    """Whether `mat` is invertible with a 1-norm condition number within COND_LIMIT."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return False
    cond = np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)
    return bool(np.isfinite(cond) and cond <= COND_LIMIT)


def _random_invertible(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a well-conditioned uniform [-1, 1] matrix."""
    for _ in range(MAX_DRAWS):
        cand = rng.uniform(-1.0, 1.0, (dim, dim))
        if _well_conditioned(cand):
            return cand
    raise KeyGenerationError(f"no invertible {dim}x{dim} draw within {MAX_DRAWS} attempts")


def _invertible_shares(total: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split `total` into two invertible matrices summing to it exactly."""
    for _ in range(MAX_DRAWS):
        first = _random_invertible(total.shape[0], rng)
        second = total - first
        if _well_conditioned(second):
            return first, second
    raise KeyGenerationError("no invertible additive share found")


def _check_square(name: str, mat: np.ndarray, dim: int) -> None:
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")


@dataclass
class MasterKey:
    """Authority-held master key for one vector width.

    blend_a/blend_b are the matrices whose additive shares cancel in the
    matching identity; mask_parts are the eight per-part masking matrices;
    split_pattern is the 0/1 vector all users of this key share when
    splitting plaintexts.
    """

    dim: int
    blend_a: np.ndarray
    blend_b: np.ndarray
    mask_parts: tuple[np.ndarray, ...]
    split_pattern: np.ndarray

    def __post_init__(self) -> None:
        _check_square("blend_a", self.blend_a, self.dim)
        _check_square("blend_b", self.blend_b, self.dim)
        if len(self.mask_parts) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} mask parts, got {len(self.mask_parts)}")
        for i, part in enumerate(self.mask_parts):
            _check_square(f"mask_parts[{i}]", part, self.dim)
        if self.split_pattern.shape != (self.dim,):
            raise ValueError("split_pattern width mismatch")
        if not np.isin(self.split_pattern, (0, 1)).all():
            raise ValueError("split_pattern must be 0/1")

    @cached_property
    def blend_a_inv(self) -> np.ndarray:
        return np.linalg.inv(self.blend_a)

    @cached_property
    def blend_b_inv(self) -> np.ndarray:
        return np.linalg.inv(self.blend_b)

    @cached_property
    def mask_part_invs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linalg.inv(p) for p in self.mask_parts)


@dataclass
class TosSecrets:
    """Matching-server secrets for one vector width.

    index_mask is applied (on the left) to column-form offer parts,
    the inverse of query_mask (on the right) to row-form query parts.
    Until that happens, indexes from different users are not comparable.
    """

    dim: int
    query_mask: np.ndarray
    index_mask: np.ndarray

    def __post_init__(self) -> None:
        _check_square("query_mask", self.query_mask, self.dim)
        _check_square("index_mask", self.index_mask, self.dim)

    @cached_property
    def query_mask_inv(self) -> np.ndarray:
        return np.linalg.inv(self.query_mask)


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
        head = struct.pack(
            "<BBI",
            0 if self.orientation == "column" else 1,
            1 if self.unmasked else 0,
            self.dim,
        )
        return head + self.parts.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes | memoryview) -> "EncryptedIndex":
        if len(blob) < 6:
            raise ValueError("encrypted index blob too short")
        orient_b, unmasked_b, dim = struct.unpack_from("<BBI", blob)
        if orient_b not in (0, 1):
            raise ValueError(f"orientation byte must be 0 or 1, got {orient_b}")
        if unmasked_b not in (0, 1):
            raise ValueError(f"unmasked byte must be 0 or 1, got {unmasked_b}")
        body = blob[6:]
        expect = PART_COUNT * dim * 8
        if len(body) != expect:
            raise ValueError(f"encrypted index body must be {expect} bytes, got {len(body)}")
        parts = np.frombuffer(body, dtype="<f8").reshape(PART_COUNT, dim).copy()
        return cls("column" if orient_b == 0 else "row", parts, bool(unmasked_b))


def generate_master_key(dim: int, rng: np.random.Generator) -> MasterKey:
    blend_a = _random_invertible(dim, rng)
    blend_b = _random_invertible(dim, rng)
    mask_parts = tuple(_random_invertible(dim, rng) for _ in range(PART_COUNT))
    split_pattern = rng.integers(0, 2, dim).astype(np.uint8)
    return MasterKey(dim, blend_a, blend_b, mask_parts, split_pattern)


def generate_tos_secrets(dim: int, rng: np.random.Generator) -> TosSecrets:
    query_mask = _random_invertible(dim, rng)
    index_mask = _random_invertible(dim, rng)
    return TosSecrets(dim, query_mask, index_mask)


class KeyDeriver:
    """Derives per-user key sets, caching the master/secret base products.

    The bases depend only on (master, secrets), so an authority serving
    many registrations computes them once.
    """

    def __init__(self, master: MasterKey, secrets: TosSecrets):
        if master.dim != secrets.dim:
            raise ValueError(f"master dim {master.dim} != secrets dim {secrets.dim}")
        self.master = master
        self.secrets = secrets

    @cached_property
    def _driver_bases(self) -> tuple[np.ndarray, ...]:
        index_mask_inv = np.linalg.inv(self.secrets.index_mask)
        return tuple(index_mask_inv @ inv for inv in self.master.mask_part_invs)

    @cached_property
    def _rider_bases(self) -> tuple[np.ndarray, ...]:
        return tuple(part @ self.secrets.query_mask for part in self.master.mask_parts)

    def derive(
        self,
        role: str,
        rng: np.random.Generator | int,
        out: tuple[np.ndarray, ...] | None = None,
    ) -> UserKeySet:
        """A fresh key set for `role`.

        With `out`, eight (dim, dim) float64 arrays, each part is computed
        straight into its array and the key set's parts are those arrays.
        """
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        if out is None:
            out = (None,) * PART_COUNT
        elif len(out) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} output parts, got {len(out)}")
        master = self.master
        if role == "driver":
            share_a = _invertible_shares(master.blend_a_inv, rng)
            share_b = _invertible_shares(master.blend_b_inv, rng)
            shares = share_a + share_b
            parts = tuple(
                np.matmul(self._driver_bases[i], shares[_DRIVER_SHARE_ORDER[i]], out=out[i])
                for i in range(PART_COUNT)
            )
        elif role == "rider":
            share_a = _invertible_shares(master.blend_a, rng)
            share_b = _invertible_shares(master.blend_b, rng)
            shares = share_a + share_b
            parts = tuple(
                np.matmul(shares[_RIDER_SHARE_ORDER[i]], self._rider_bases[i], out=out[i])
                for i in range(PART_COUNT)
            )
        else:
            raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
        return UserKeySet(role, master.dim, parts, master.split_pattern.copy())


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
    if not np.isin(vectors, (0.0, 1.0)).all():
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


def encrypt_index(vec: np.ndarray, keys: UserKeySet, rng: np.random.Generator) -> EncryptedIndex:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"encrypt_index takes a single vector, got shape {vec.shape}")
    return encrypt_indices(vec[None, :], keys, rng)[0]


def unmasked_part_bound(dim: int) -> float:
    """Largest magnitude an unmasked part may have at width `dim`.

    A similarity sums the 8*dim products of two indexes' parts; with every
    part within this bound each product is at most finfo.max / (16*dim), so
    every partial sum stays below half the float64 limit. The factor 2 is
    headroom for rounding: with finfo.max / (8*dim), two indexes at the
    bound already overflow at width 768.
    """
    return math.sqrt(np.finfo(np.float64).max / (2 * PART_COUNT * dim))


def unmask_indices(
    indexes: list[EncryptedIndex], secrets: TosSecrets, out: list[np.ndarray] | None = None
) -> list[EncryptedIndex]:
    """Apply the server secrets to a batch of same-orientation indexes.

    With `out`, one (8, dim) array per index, the cleared parts are
    written there and the returned indexes are views of them. Cleared
    parts beyond `unmasked_part_bound` (or not finite) raise ValueError
    before anything is written.
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
        raise ValueError("unmasked index parts exceed the magnitude bound")
    blocks = cleared.reshape(len(indexes), PART_COUNT, secrets.dim)
    if out is not None:
        for dst, block in zip(out, blocks, strict=True):
            dst[...] = block
        blocks = out
    return [EncryptedIndex(orientation, block, unmasked=True) for block in blocks]


def unmask_index(index: EncryptedIndex, secrets: TosSecrets) -> EncryptedIndex:
    return unmask_indices([index], secrets)[0]


def match_similarity(query: EncryptedIndex, offer: EncryptedIndex) -> float:
    """Inner product of the two underlying plaintexts.

    Both indexes must be unmasked and of opposite orientations (a row-form
    query against a column-form offer).
    """
    if not (query.unmasked and offer.unmasked):
        raise ValueError("match_similarity requires unmasked indexes")
    if query.orientation != "row" or offer.orientation != "column":
        raise ValueError("match_similarity takes (row query, column offer)")
    if query.dim != offer.dim:
        raise ValueError(f"dim mismatch: {query.dim} vs {offer.dim}")
    return float(kernels.paired_dots(query.parts, offer.parts).sum())


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
# Key file format: magic "KNN1", role byte, u32 dim, u8 part count,
# then the parts as little-endian float64 row-major, then (for key material
# that carries one) the 0/1 split pattern as raw bytes.
# ---------------------------------------------------------------------------

_FILE_DRIVER = b"D"
_FILE_RIDER = b"R"
_FILE_MASTER = b"M"
_FILE_SECRETS = b"T"
_KEYFILE_HEAD = struct.Struct("<4scIB")


def _pack_mats(mats: list[np.ndarray]) -> bytes:
    return b"".join(np.ascontiguousarray(m, dtype="<f8").tobytes() for m in mats)


def key_material_to_bytes(obj: UserKeySet | MasterKey | TosSecrets) -> bytes:
    if isinstance(obj, UserKeySet):
        role = _FILE_DRIVER if obj.role == "driver" else _FILE_RIDER
        mats = list(obj.parts)
        tail = obj.split_pattern.astype(np.uint8).tobytes()
    elif isinstance(obj, MasterKey):
        role = _FILE_MASTER
        mats = [obj.blend_a, obj.blend_b, *obj.mask_parts]
        tail = obj.split_pattern.astype(np.uint8).tobytes()
    elif isinstance(obj, TosSecrets):
        role = _FILE_SECRETS
        mats = [obj.query_mask, obj.index_mask]
        tail = b""
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    header = _KEYFILE_HEAD.pack(KEYFILE_MAGIC, role, obj.dim, len(mats))
    return header + _pack_mats(mats) + tail


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


def save_key_material(path: str, obj: UserKeySet | MasterKey | TosSecrets) -> None:
    with open(path, "wb") as fh:
        fh.write(key_material_to_bytes(obj))


def key_material_from_bytes(blob: bytes | memoryview) -> UserKeySet | MasterKey | TosSecrets:
    """Key material from a whole key file held in any bytes-like object.

    Each matrix is copied once out of `blob`, into an aligned array (a
    GEMM with an unaligned key operand is several times slower). Driver
    parts are stored so that `part.T`, the operand `encrypt_indices`
    multiplies by, is C-contiguous.
    """
    if len(blob) < _KEYFILE_HEAD.size:
        raise ValueError(f"key file too short: {len(blob)} bytes")
    magic, role, dim, count = _KEYFILE_HEAD.unpack_from(blob)
    if magic != KEYFILE_MAGIC:
        raise ValueError(f"bad key file magic: {magic!r}")
    if role in (_FILE_DRIVER, _FILE_RIDER):
        kind, expect = "user key file", PART_COUNT
    elif role == _FILE_MASTER:
        kind, expect = "master key file", PART_COUNT + 2
    elif role == _FILE_SECRETS:
        kind, expect = "secrets file", 2
    else:
        raise ValueError(f"unknown key file role byte {role!r}")
    if count != expect:
        raise ValueError(f"{kind} must hold {expect} parts, got {count}")
    pattern_len = 0 if role == _FILE_SECRETS else dim
    size = _KEYFILE_HEAD.size + count * dim * dim * 8 + pattern_len
    if len(blob) != size:
        raise ValueError(f"{kind} of width {dim} must be {size} bytes, got {len(blob)}")
    stored = np.frombuffer(blob, "<f8", count * dim * dim, _KEYFILE_HEAD.size)
    stored = stored.reshape(count, dim, dim)
    pattern = np.frombuffer(blob, np.uint8, pattern_len, size - pattern_len).copy()
    if role == _FILE_DRIVER:
        return UserKeySet("driver", dim, tuple(m.T.copy().T for m in stored), pattern)
    mats = [m.copy() for m in stored]
    if role == _FILE_RIDER:
        return UserKeySet("rider", dim, tuple(mats), pattern)
    if role == _FILE_MASTER:
        return MasterKey(dim, mats[0], mats[1], tuple(mats[2:]), pattern)
    return TosSecrets(dim, mats[0], mats[1])


def load_key_material(path: str) -> UserKeySet | MasterKey | TosSecrets:
    with open(path, "rb") as fh:
        return key_material_from_bytes(fh.read())

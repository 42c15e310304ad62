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


def _random_invertible(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw a well-conditioned uniform [-1, 1] matrix; return (matrix, inverse)."""
    for _ in range(MAX_DRAWS):
        cand = rng.uniform(-1.0, 1.0, (dim, dim))
        try:
            inv = np.linalg.inv(cand)
        except np.linalg.LinAlgError:
            continue
        cond = np.linalg.norm(cand, 1) * np.linalg.norm(inv, 1)
        if np.isfinite(cond) and cond <= COND_LIMIT:
            return cand, inv
    raise KeyGenerationError(f"no invertible {dim}x{dim} draw within {MAX_DRAWS} attempts")


def _invertible_shares(total: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split `total` into two invertible matrices summing to it exactly."""
    dim = total.shape[0]
    for _ in range(MAX_DRAWS):
        first, _ = _random_invertible(dim, rng)
        second = total - first
        try:
            inv = np.linalg.inv(second)
        except np.linalg.LinAlgError:
            continue
        cond = np.linalg.norm(second, 1) * np.linalg.norm(inv, 1)
        if np.isfinite(cond) and cond <= COND_LIMIT:
            return first, second
    raise KeyGenerationError("no invertible additive share found")


def _check_square(name: str, mat: np.ndarray, dim: int) -> None:
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")


@dataclass
class SchemeParams:
    """Dimensions shared by every party of one deployment.

    filter_bits: width of the direct-service location/time vectors.
    id_bits:     bits of a transfer-service cell identifier.
    time_bits:   width of the transfer-service time interval one-hot block.
    """

    filter_bits: int
    id_bits: int
    time_bits: int
    numeric_field: str = "float64"

    def __post_init__(self) -> None:
        if self.filter_bits < 2:
            raise ValueError(f"filter_bits must be >= 2, got {self.filter_bits}")
        if self.id_bits < 1:
            raise ValueError(f"id_bits must be >= 1, got {self.id_bits}")
        if self.time_bits < 1:
            raise ValueError(f"time_bits must be >= 1, got {self.time_bits}")
        if self.numeric_field != "float64":
            raise ValueError(f"unsupported numeric field {self.numeric_field!r}")

    @property
    def cell_vector_bits(self) -> int:
        """Width of a transfer-service cell vector: id, complement, time block."""
        return 2 * self.id_bits + self.time_bits


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
    def from_bytes(cls, blob: bytes) -> "EncryptedIndex":
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
    blend_a, _ = _random_invertible(dim, rng)
    blend_b, _ = _random_invertible(dim, rng)
    mask_parts = tuple(_random_invertible(dim, rng)[0] for _ in range(PART_COUNT))
    split_pattern = rng.integers(0, 2, dim).astype(np.uint8)
    return MasterKey(dim, blend_a, blend_b, mask_parts, split_pattern)


def generate_tos_secrets(dim: int, rng: np.random.Generator) -> TosSecrets:
    query_mask, _ = _random_invertible(dim, rng)
    index_mask, _ = _random_invertible(dim, rng)
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

    def derive(self, role: str, rng: np.random.Generator | int) -> UserKeySet:
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        master = self.master
        if role == "driver":
            share_a = _invertible_shares(master.blend_a_inv, rng)
            share_b = _invertible_shares(master.blend_b_inv, rng)
            shares = share_a + share_b
            parts = tuple(
                self._driver_bases[i] @ shares[_DRIVER_SHARE_ORDER[i]] for i in range(PART_COUNT)
            )
        elif role == "rider":
            share_a = _invertible_shares(master.blend_a, rng)
            share_b = _invertible_shares(master.blend_b, rng)
            shares = share_a + share_b
            parts = tuple(
                shares[_RIDER_SHARE_ORDER[i]] @ self._rider_bases[i] for i in range(PART_COUNT)
            )
        else:
            raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
        return UserKeySet(role, master.dim, parts, master.split_pattern.copy())


def derive_user_keys(
    master: MasterKey,
    secrets: TosSecrets,
    role: str,
    rng: np.random.Generator | int,
) -> UserKeySet:
    """One-shot derivation; use KeyDeriver directly when deriving many sets."""
    return KeyDeriver(master, secrets).derive(role, rng)


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


def unmask_indices(indexes: list[EncryptedIndex], secrets: TosSecrets) -> list[EncryptedIndex]:
    """Apply the server secrets to a batch of same-orientation indexes."""
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
    if orientation == "column":
        # Parts are stored as rows, so the left-multiplication transposes.
        cleared = stacked @ secrets.index_mask.T
    else:
        cleared = stacked @ secrets.query_mask_inv
    out = []
    for j, idx in enumerate(indexes):
        block = cleared[j * PART_COUNT : (j + 1) * PART_COUNT]
        out.append(EncryptedIndex(orientation, block, unmasked=True))
    return out


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
    header = KEYFILE_MAGIC + role + struct.pack("<IB", obj.dim, len(mats))
    return header + _pack_mats(mats) + tail


def save_key_material(path: str, obj: UserKeySet | MasterKey | TosSecrets) -> None:
    with open(path, "wb") as fh:
        fh.write(key_material_to_bytes(obj))


def key_material_from_bytes(blob: bytes) -> UserKeySet | MasterKey | TosSecrets:
    if blob[:4] != KEYFILE_MAGIC:
        raise ValueError(f"bad key file magic: {blob[:4]!r}")
    role = blob[4:5]
    dim, count = struct.unpack_from("<IB", blob, 5)
    offset = 10
    mats = []
    for _ in range(count):
        end = offset + dim * dim * 8
        mats.append(np.frombuffer(blob[offset:end], dtype="<f8").reshape(dim, dim).copy())
        offset = end
    if role in (_FILE_DRIVER, _FILE_RIDER):
        if count != PART_COUNT:
            raise ValueError(f"user key file must hold {PART_COUNT} parts, got {count}")
        pattern = np.frombuffer(blob[offset : offset + dim], dtype=np.uint8).copy()
        role_name = "driver" if role == _FILE_DRIVER else "rider"
        return UserKeySet(role_name, dim, tuple(mats), pattern)
    if role == _FILE_MASTER:
        if count != PART_COUNT + 2:
            raise ValueError(f"master key file must hold {PART_COUNT + 2} parts, got {count}")
        pattern = np.frombuffer(blob[offset : offset + dim], dtype=np.uint8).copy()
        return MasterKey(dim, mats[0], mats[1], tuple(mats[2:]), pattern)
    if role == _FILE_SECRETS:
        if count != 2:
            raise ValueError(f"secrets file must hold 2 parts, got {count}")
        return TosSecrets(dim, mats[0], mats[1])
    raise ValueError(f"unknown key file role byte {role!r}")


def load_key_material(path: str) -> UserKeySet | MasterKey | TosSecrets:
    with open(path, "rb") as fh:
        return key_material_from_bytes(fh.read())

"""Matrix-masked inner-product encryption for trip vectors.

Offers are encrypted under driver-role key sets, requests under rider-role
ones; an index is its eight masked parts. Once the matching server unmasks
each batch under the role that encrypted it, the sum of the eight part-wise
dot products telescopes to the exact inner product of the two plaintext
binary vectors, and nothing else about them is revealed. Indexes produced under
different user key sets derived from the same master keys remain mutually
comparable, which is what lets the server match strangers' trips.

Encryption costs what the plaintext costs, not what the key does. Part i
of an index is its split half times key operand M_i, and the random share
of that product, the mask, does not depend on the trip; the plaintext
share only sums the key rows its set bits pick. So masks are drawn ahead
in batches (`MaskStock`), and a call adds to each row's mask the key rows
its vectors set, read from one stacked copy of the key (`UserKeySet.operand`).

All matrices are double precision with entries drawn uniformly from
[-1, 1]. Master keys and server secrets are redrawn (at most 8 attempts)
while their 1-norm condition number exceeds 1e6, and the inverse the
accepting check computes is the one used, so no secret matrix is
inverted twice. A user's additive key shares are never inverted: a share
pair is redrawn only when one LU factorization shows a share singular,
with no condition bound, because the similarity error does not depend on
how well a share is conditioned. `generate_keys`, the one set-up call,
gives the authority a KeyDeriver and the server a TosSecrets per scheme,
and the two share no array. Set-up and derivation hold only what their
next step reads: set-up frees each master mask pair once its two bases
are built, and a derivation drops each share pair once its four parts
are computed. Master keys and server secrets exist only in
memory; the one key file format holds a user key set: its eight parts
and split pattern, with no header, since its reader takes the role and
width from the key-set plan (`protocol.ROLE_KEY_SETS`). Fixed-seed key
bytes are reproducible under one BLAS thread count only; match records
do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels

# Rejection threshold for ill-conditioned master and server matrices.
COND_LIMIT = 1.0e6
MAX_DRAWS = 8
PART_COUNT = 8
# Bytes of key rows an encryption gathers at a time: small enough to stay
# in cache for the two products that read them right after.
ROW_BUFFER_BYTES = 512 * 1024

_ROLES = ("driver", "rider")

# Which share of a pair multiplies each of the four mask parts it feeds:
# the shares of blend A feed parts 0-3, those of blend B parts 4-7.
# Drivers alternate the two shares of each blend inverse; riders pair them.
_DRIVER_SHARE_ORDER = (0, 1, 0, 1)
_RIDER_SHARE_ORDER = (0, 0, 1, 1)


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

    index_mask unmasks driver-role (offer) parts from the left,
    query_mask_inv rider-role (query) parts from the right; until then,
    indexes from different users are not comparable.
    """

    dim: int
    index_mask: np.ndarray
    query_mask_inv: np.ndarray


@dataclass(eq=False)
class UserKeySet:
    """Per-user encryption keys: eight composed matrices plus the split pattern.

    A key set compares, and hashes, by identity: a client's `MaskStock`
    keeps one stock per key set it holds.
    """

    role: str  # "driver" or "rider"
    dim: int
    parts: tuple[np.ndarray, ...]
    split_pattern: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"role must be 'driver' or 'rider', got {self.role!r}")
        if len(self.parts) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} key parts, got {len(self.parts)}")
        for i, part in enumerate(self.parts):
            _check_square(f"parts[{i}]", part, self.dim)
        if self.split_pattern.shape != (self.dim,):
            raise ValueError("split_pattern width mismatch")
        if not np.isin(self.split_pattern, (0, 1)).all():
            raise ValueError("split_pattern must be 0/1")

    @cached_property
    def operand(self) -> np.ndarray:
        """The key as encryption reads it: a C-contiguous (dim, 8*dim) matrix.

        Row k holds row k of each key operand M_i in part order, where M_i
        is part i transposed for a driver (part_i @ half is half @ part_i.T)
        and part i itself for a rider. A key set read from a key file is
        built around this matrix, its parts being views of it
        (`key_material_from_bytes`); any other stacks its parts here on
        first use.
        """
        return _stacked_operand(self.role, self.parts)

    @cached_property
    def copied(self) -> np.ndarray:
        """Whether each position is copied into both split halves, not split."""
        pattern = self.split_pattern.astype(bool)
        return ~pattern if self.role == "driver" else pattern

    @cached_property
    def row_buffer(self) -> np.ndarray:
        """Where encryption gathers the operand rows it reads, ROW_BUFFER_BYTES' worth at a time.

        Every call reuses it, so encrypting a trip allocates no temporary of
        key rows; a fresh one per call fragments the heap (on the 768-bit
        benchmark workload, tens of MB more peak resident memory). So one
        thread at a time encrypts under a key set.
        """
        rows = ROW_BUFFER_BYTES // (8 * PART_COUNT * self.dim)
        return np.empty((min(self.dim, max(1, rows)), PART_COUNT * self.dim))


def _stacked_operand(role: str, parts) -> np.ndarray:
    """`UserKeySet.operand` of eight (dim, dim) parts, copied in part by part."""
    dim = parts[0].shape[0]
    stacked = np.empty((dim, PART_COUNT, dim), dtype=np.float64)
    for i, part in enumerate(parts):
        stacked[:, i, :] = part.T if role == "driver" else part
    return stacked.reshape(dim, PART_COUNT * dim)


@dataclass
class EncryptedIndex:
    """One encrypted trip vector: its (8, dim) float64 parts, and nothing else.

    On the wire an index is its bare parts; the submission it sits in fixes
    its scheme and the role of the key set that encrypted it (`protocol`).
    """

    parts: np.ndarray

    def __post_init__(self) -> None:
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
    carry no condition bound and are never inverted. The first pair feeds
    parts 0-3 and the second parts 4-7, so a derivation holds one pair at
    a time: beyond its output, at most 3 * dim^2 values (the pair and one
    LU factor).
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
        if role not in _ROLES:
            raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
        if out is None:
            out = (None,) * PART_COUNT
        elif len(out) != PART_COUNT:
            raise ValueError(f"expected {PART_COUNT} output parts, got {len(out)}")
        driver = role == "driver"
        if driver:
            totals = (self.blend_a_inv, self.blend_b_inv)
            bases, order = self.driver_bases, _DRIVER_SHARE_ORDER
        else:
            totals = (self.blend_a, self.blend_b)
            bases, order = self.rider_bases, _RIDER_SHARE_ORDER
        parts = []
        for total in totals:
            shares = _invertible_shares(total, rng)
            for k in order:
                i = len(parts)
                if driver:
                    parts.append(np.matmul(bases[i], shares[k], out=out[i]))
                else:
                    parts.append(np.matmul(shares[k], bases[i], out=out[i]))
            del shares  # this pair goes before the next is drawn
        return UserKeySet(role, self.dim, tuple(parts), self.split_pattern.copy())


def _scheme_keys(
    dim: int, pairs: list[tuple[np.ndarray, np.ndarray]], split_pattern: np.ndarray,
    rng: np.random.Generator,
) -> tuple[KeyDeriver, TosSecrets]:
    """One scheme's KeyDeriver and TosSecrets from its ten master pairs.

    Draws the query mask, then the index mask. Each mask pair is taken out
    of `pairs` as its driver base (index_mask^-1 times the part's inverse)
    and rider base (the part times query_mask) are built, so it is freed
    once they are.
    """
    (blend_a, blend_a_inv), (blend_b, blend_b_inv) = pairs[:2]
    del pairs[:2]
    query_mask, query_mask_inv = _random_invertible(dim, rng)
    index_mask, index_mask_inv = _random_invertible(dim, rng)
    driver_bases, rider_bases = [], []
    while pairs:
        part, inv = pairs.pop(0)
        driver_bases.append(index_mask_inv @ inv)
        rider_bases.append(part @ query_mask)
    deriver = KeyDeriver(
        dim, split_pattern, blend_a, blend_b, blend_a_inv, blend_b_inv,
        tuple(driver_bases), tuple(rider_bases),
    )
    return deriver, TosSecrets(dim, index_mask, query_mask_inv)


def generate_keys(
    dims: dict[str, int], rng: np.random.Generator
) -> tuple[dict[str, KeyDeriver], dict[str, TosSecrets]]:
    """Authority set-up: each scheme's KeyDeriver and the server's TosSecrets.

    `dims` maps each scheme to its width. All master keys are drawn first,
    scheme by scheme in `dims` order; then, scheme by scheme, the server
    secrets and the bases (`_scheme_keys`), which release each scheme's
    masters as they are consumed. The results share no array.
    """
    masters = {
        scheme: (
            [_random_invertible(dim, rng) for _ in range(2 + PART_COUNT)],
            rng.integers(0, 2, dim).astype(np.uint8),
        )
        for scheme, dim in dims.items()
    }
    derivers, secrets = {}, {}
    for scheme, dim in dims.items():
        derivers[scheme], secrets[scheme] = _scheme_keys(dim, *masters.pop(scheme), rng)
    return derivers, secrets


def _validate_plain(vectors: np.ndarray, dim: int) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.shape[1] != dim:
        raise ValueError(f"vector width {vectors.shape[1]} != key dim {dim}")
    if not ((vectors == 0.0) | (vectors == 1.0)).all():
        raise ValueError("plaintext index vectors must be binary")
    return vectors


def _draw_masks(keys: UserKeySet, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` fresh masks of `keys`, one (8*dim,) row each, from one GEMM.

    A row is (r*s) @ M_i for parts 0-3 and its negation for parts 4-7:
    what splitting a vector adds to its first half and takes from its
    second. r is uniform on [-1, 1], s marks the role's split positions.
    """
    rand = rng.uniform(-1.0, 1.0, (count, keys.dim))
    rand[:, keys.copied] = 0.0
    masks = rand @ keys.operand
    masks[:, PART_COUNT // 2 * keys.dim :] *= -1.0
    return masks


def _plaintext_terms(vectors: np.ndarray, keys: UserKeySet, out: np.ndarray) -> None:
    """Write each row's plaintext share into `out`, a zeroed (count, 8*dim) array.

    Row v gets (v*c) @ M_i for parts 0-3 and v @ M_i for parts 4-7, c
    marking the copied positions. Only the operand rows at positions some
    vector sets are read, a buffer's worth at a time: `keys.row_buffer`,
    or, for a stack of more vectors than that holds rows, one as tall as
    the stack, so adding up the buffers' terms costs no more than
    gathering their rows.
    """
    half, buffer = PART_COUNT // 2 * keys.dim, keys.row_buffer
    if len(buffer) < min(len(vectors), keys.dim):
        buffer = np.empty((min(len(vectors), keys.dim), PART_COUNT * keys.dim))
    cols = np.flatnonzero(vectors.any(axis=0))
    for start in range(0, len(cols), len(buffer)):
        rows = cols[start : start + len(buffer)]
        block = keys.operand.take(rows, axis=0, out=buffer[: len(rows)], mode="clip")
        picked = vectors[:, rows]
        term = out if start == 0 else np.empty_like(out)
        np.matmul(picked * keys.copied[rows], block[:, :half], out=term[:, :half])
        np.matmul(picked, block[:, half:], out=term[:, half:])
        if start:
            out += term


class MaskStock:
    """A client's masks drawn ahead from its generator, one stock per key set.

    `encrypt_indices` takes a call's masks from here, each mask once. A
    call that finds its key set's stock short draws max(short, dim // 8)
    masks in one GEMM (`_draw_masks`): a stock never holds more than that,
    so beyond its call's own output it holds at most dim / 8 masks of
    8 * dim float64, an eighth of the key set's bytes. A client keeps one
    MaskStock per registration; registering again drops it.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.stocks: dict[UserKeySet, np.ndarray] = {}  # each key set's unserved masks

    def take(self, keys: UserKeySet, count: int) -> np.ndarray:
        """`count` masks of `keys`, served from the stock and refilled when short."""
        held = self.stocks.get(keys, np.empty((0, PART_COUNT * keys.dim)))
        if len(held) >= count:
            self.stocks[keys] = held[count:]
            return held[:count]
        short = count - len(held)
        fresh = _draw_masks(keys, max(short, keys.dim // 8), self.rng)
        self.stocks[keys] = fresh[short:]
        return np.concatenate((held, fresh[:short])) if len(held) else fresh[:short]


def encrypt_indices(
    vectors: np.ndarray,
    keys: UserKeySet,
    rng: np.random.Generator | MaskStock,
) -> list[EncryptedIndex]:
    """Encrypt a stack of binary vectors (rows) under one key set.

    Part i of a row v is its mask plus (v*c) @ M_i for parts 0-3 and
    v @ M_i for parts 4-7, c marking the positions the role copies into
    both halves (`UserKeySet.operand` holds the M_i). The masks come from
    `rng`: a client's MaskStock, or a plain generator, from which exactly
    this call's masks are drawn. The plaintext terms of the whole stack
    are small GEMMs that read only the key rows its vectors set
    (`_plaintext_terms`).
    """
    vectors = _validate_plain(vectors, keys.dim)
    count = vectors.shape[0]
    if isinstance(rng, MaskStock):
        masks = rng.take(keys, count)
    else:
        masks = _draw_masks(keys, count, rng)
    parts = np.zeros((count, PART_COUNT, keys.dim), dtype=np.float64)
    flat = parts.reshape(count, PART_COUNT * keys.dim)
    _plaintext_terms(vectors, keys, flat)
    flat += masks
    return [EncryptedIndex(parts[j]) for j in range(count)]


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
    indexes: list[EncryptedIndex], secrets: TosSecrets, role: str
) -> list[EncryptedIndex]:
    """Apply the server secret of `role` (driver: `index_mask`, rider: `query_mask_inv`) to a batch.

    This is the one finiteness gate: a NaN, an infinity or a cleared part
    beyond `unmasked_part_bound` raises ValueError, as does a wrong width;
    a role other than "driver" or "rider" raises KeyError.
    """
    if not indexes:
        return []
    for idx in indexes:
        if idx.dim != secrets.dim:
            raise ValueError(f"index dim {idx.dim} != secrets dim {secrets.dim}")
    stacked = np.concatenate([idx.parts for idx in indexes], axis=0)
    # Parts are stored as rows, so the driver's left-multiplication transposes.
    mask = {"driver": secrets.index_mask.T, "rider": secrets.query_mask_inv}[role]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        cleared = stacked @ mask
    if not (np.abs(cleared) <= unmasked_part_bound(secrets.dim)).all():
        raise ValueError("unmasked index parts are not finite or exceed the magnitude bound")
    return [EncryptedIndex(block) for block in cleared.reshape(len(indexes), PART_COUNT, secrets.dim)]


def similarity_matrix(queries: list[EncryptedIndex], offers: list[EncryptedIndex]) -> np.ndarray:
    """out[i, j] = plaintext(q_i) . plaintext(o_j) of unmasked rider-role q, driver-role o."""
    if not queries or not offers:
        return np.zeros((len(queries), len(offers)))
    q = np.stack([idx.flat() for idx in queries])
    o = np.stack([idx.flat() for idx in offers])
    return kernels.cross_dots(q, o)


# ---------------------------------------------------------------------------
# Key file format (user key sets only): the eight parts as little-endian
# float64 row-major, then the 0/1 split pattern as raw bytes. Nothing else:
# whoever reads a key file knows its role and width from the key-set plan.
# ---------------------------------------------------------------------------


def user_key_file_size(dim: int) -> int:
    """Byte length of the key file of a width-`dim` user key set."""
    return PART_COUNT * dim * dim * 8 + dim


def user_key_file(slot: np.ndarray, dim: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Writable views of a width-`dim` key file laid out in the uint8 buffer `slot`.

    Returns the eight parts, as (dim, dim) little-endian float64 arrays,
    and the split pattern, for the caller to fill. The part views need not
    be aligned.
    """
    size = user_key_file_size(dim)
    if slot.shape != (size,):
        raise ValueError(f"user key file of width {dim} takes {size} bytes, got {slot.shape}")
    parts = slot[: size - dim].view("<f8").reshape(PART_COUNT, dim, dim)
    return tuple(parts), slot[size - dim :]


def key_material_to_bytes(keys: UserKeySet) -> bytes:
    """The key file of a user key set, laid out by `user_key_file`."""
    slot = np.empty(user_key_file_size(keys.dim), dtype=np.uint8)
    parts, pattern = user_key_file(slot, keys.dim)
    for view, part in zip(parts, keys.parts):
        view[...] = part
    pattern[:] = keys.split_pattern
    return slot.tobytes()


def key_material_from_bytes(blob: bytes | memoryview, role: str, dim: int) -> UserKeySet:
    """The `role` user key set of width `dim` in a whole key file held in any bytes-like object.

    The key is copied once out of `blob`, part by part into its stacked
    operand (`UserKeySet.operand`), and the key set's parts are views of
    that one array.
    """
    size = user_key_file_size(dim)
    if len(blob) != size:
        raise ValueError(f"user key file of width {dim} must be {size} bytes, got {len(blob)}")
    stored = np.frombuffer(blob, "<f8", PART_COUNT * dim * dim).reshape(PART_COUNT, dim, dim)
    pattern = np.frombuffer(blob, np.uint8, dim, size - dim).copy()
    operand = _stacked_operand(role, stored)
    blocks = operand.reshape(dim, PART_COUNT, dim)
    parts = tuple(blocks[:, i, :].T if role == "driver" else blocks[:, i, :] for i in range(PART_COUNT))
    keys = UserKeySet(role, dim, parts, pattern)
    keys.operand = operand
    return keys

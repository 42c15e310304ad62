"""Direct (single-driver, non-transfer) ride matching.

An offer carries four encrypted indexes built from the driver's trip:
pick-up area filter, drop-off area filter, route filter, and a day-slot
time vector. A request carries the rider's pick-up cell, drop-off cell,
intended route filter, and time vector, encoded by the `protocol.Params`
of the user's registration. The three filters are `filter_bits` wide and
encrypt under the "direct" key sets; the time vector is one-hot over
`time_slots` positions and encrypts under the "time" key sets, so no
index carries padding. The server matches a pair by checking, on unmasked
indexes only:

  gate 1: time similarity == 1        (same day slot)
  gate 2: pick-up similarity == n_hashes  (rider pick-up in driver area)
  gate 3: one of the drop-off cases the driver accepts:
    area:     rider drop-off cell in the driver drop-off area
    route:    rider drop-off cell on the driver route
    extended: driver drop-off cell on the rider's route

Integer-valued gates are tested within +-0.5, which absorbs the numeric
noise of the encryption round trip. The server keeps its offers and pending
requests in two columnar pools (`OfferPool`, `RequestPool`): each masked
submission enters through the pool's `admit`, which unmasks it straight
into a row, and `match_all` reads the pools in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import crypto, kernels
from .bloom import BloomFilter, slot_vector
from .crypto import EncryptedIndex, MaskStock, TosSecrets, UserKeySet

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import Params


class MatchCase(enum.Enum):
    """Drop-off arrangements a driver may accept."""

    AREA = "area"
    ROUTE = "route"
    EXTENDED = "extended"


DEFAULT_CASES = (MatchCase.AREA, MatchCase.ROUTE, MatchCase.EXTENDED)


@dataclass
class OfferSpec:
    """Plaintext driver trip, as known only to the driver."""

    offer_id: str
    pickup_cells: tuple[int, ...]
    dropoff_cells: tuple[int, ...]
    route_cells: tuple[int, ...]
    depart_seconds: float
    capacity: int
    cases: tuple[MatchCase, ...] = DEFAULT_CASES
    contact: bytes = b""


@dataclass
class RequestSpec:
    """Plaintext rider trip, as known only to the rider."""

    request_id: str
    pickup_cell: int
    dropoff_cell: int
    route_cells: tuple[int, ...]
    pickup_seconds: float
    contact: bytes = b""


@dataclass
class DirectOffer:
    offer_id: str
    capacity: int
    cases: tuple[MatchCase, ...]
    pickup: EncryptedIndex
    dropoff: EncryptedIndex
    route: EncryptedIndex
    time: EncryptedIndex
    contact: bytes = b""

    def indexes(self) -> list[EncryptedIndex]:
        return [self.pickup, self.dropoff, self.route, self.time]


@dataclass
class DirectRequest:
    request_id: str
    pickup: EncryptedIndex
    dropoff: EncryptedIndex
    route: EncryptedIndex
    time: EncryptedIndex
    contact: bytes = b""

    def indexes(self) -> list[EncryptedIndex]:
        return [self.pickup, self.dropoff, self.route, self.time]


@dataclass(frozen=True)
class DirectMatch:
    request_id: str
    offer_id: str
    case: MatchCase


def _filter(cells, params: Params, epoch: int, salt: int) -> np.ndarray:
    """The Bloom filter vector of one nonempty set of at most `max_items` cells."""
    cells = list(cells)
    if not cells:
        raise ValueError("cell set must be nonempty")
    if len(cells) > params.max_items:
        raise ValueError(f"cell set size {len(cells)} exceeds max_items {params.max_items}")
    return BloomFilter.of_cells(cells, params.filter_bits, params.n_hashes, epoch, salt).vector()


def _encrypt_trips(
    filters: list[np.ndarray],
    slots: list[np.ndarray],
    keys: UserKeySet,
    time_keys: UserKeySet,
    rng: np.random.Generator | MaskStock,
) -> list[list[EncryptedIndex]]:
    """Each trip's (pick-up, drop-off, route, time) indexes.

    All of a call's filters go through one batched encryption under `keys`,
    and all its slot vectors through one under `time_keys`; `rng` is where
    their masks come from (`crypto.encrypt_indices`).
    """
    if time_keys.role != keys.role:
        raise ValueError(f"time keys are {time_keys.role} keys, expected {keys.role}")
    places = crypto.encrypt_indices(np.stack(filters), keys, rng)
    times = crypto.encrypt_indices(np.stack(slots), time_keys, rng)
    return [[*places[3 * j : 3 * j + 3], time] for j, time in enumerate(times)]


def build_offers(
    specs: list[OfferSpec],
    keys: UserKeySet,
    time_keys: UserKeySet,
    params: Params,
    epoch: int,
    salt: int,
    rng: np.random.Generator | MaskStock,
) -> list[DirectOffer]:
    """Encrypt many offers in one batched pass: one encryption call per key set."""
    if keys.role != "driver":
        raise ValueError("offers must be encrypted with driver keys")
    if not specs:
        return []
    for s in specs:
        if not s.cases:
            raise ValueError("offer must accept at least one drop-off case")
        if s.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {s.capacity}")
    cells = [c for s in specs for c in (s.pickup_cells, s.dropoff_cells, s.route_cells)]
    filters = [_filter(c, params, epoch, salt) for c in cells]
    slots = [slot_vector(s.depart_seconds, params.time_slots) for s in specs]
    return [
        DirectOffer(s.offer_id, s.capacity, tuple(s.cases), *indexes, s.contact)
        for s, indexes in zip(specs, _encrypt_trips(filters, slots, keys, time_keys, rng))
    ]


def build_requests(
    specs: list[RequestSpec],
    keys: UserKeySet,
    time_keys: UserKeySet,
    params: Params,
    epoch: int,
    salt: int,
    rng: np.random.Generator | MaskStock,
) -> list[DirectRequest]:
    if keys.role != "rider":
        raise ValueError("requests must be encrypted with rider keys")
    if not specs:
        return []
    cells = [c for s in specs for c in ([s.pickup_cell], [s.dropoff_cell], s.route_cells)]
    filters = [_filter(c, params, epoch, salt) for c in cells]
    slots = [slot_vector(s.pickup_seconds, params.time_slots) for s in specs]
    return [
        DirectRequest(s.request_id, *indexes, s.contact)
        for s, indexes in zip(specs, _encrypt_trips(filters, slots, keys, time_keys, rng))
    ]


# Index kinds, in the order of DirectOffer.indexes() / DirectRequest.indexes().
PICKUP, DROPOFF, ROUTE, TIME = range(4)
CASES = tuple(MatchCase)  # a case's code, in the pools and on the wire, is its position here
POOL_ROWS = 16  # rows a new pool allocates; it doubles whenever it fills up


class _Pool:
    """Unmasked ciphertexts of stored submissions, one row per submission.

    `dims` is each index kind's width, as `protocol.layout_dims` gives it
    for a direct trip, and `role` that of the key sets its submissions are
    encrypted under. `kinds[kind]` is one contiguous (rows, 8*dims[kind])
    float64 matrix per index kind, so a matching round's GEMMs read the
    used prefix in place. `live` marks the rows that hold a current
    submission and `seq` their arrival order. A freed row keeps its stale
    ciphertext, masked out by `live`, until the next submission overwrites
    it or the pool is cleared.
    """

    _row_arrays = ("live", "seq")  # per-row arrays that grow and clear with `kinds`

    def __init__(self, dims: tuple[int, ...], rows: int = POOL_ROWS):
        self.dims = tuple(dims)
        self.kinds = [np.zeros((rows, crypto.PART_COUNT * dim)) for dim in self.dims]
        self.live = np.zeros(rows, dtype=bool)
        self.seq = np.zeros(rows, dtype=np.int64)
        self.ids: list[str | None] = [None] * rows
        self.used = 0  # rows [0, used) were written since the last clear
        self._free: list[int] = []
        self._arrivals = 0

    def __len__(self) -> int:
        return int(self.open_rows().sum())

    def open_rows(self) -> np.ndarray:
        """Mask over the used prefix of the rows a matching round may pair."""
        return self.live[: self.used]

    def row_parts(self, row: int) -> list[np.ndarray]:
        """(8, dim) views of one row's pick-up, drop-off, route and time parts."""
        return [m[row].reshape(crypto.PART_COUNT, -1) for m in self.kinds]

    def _fill(
        self, indexes: list[EncryptedIndex], secrets: dict[str, TosSecrets], item_id: str
    ) -> int:
        """Unmask one submission's four masked indexes into a row made the newest live row.

        `secrets` holds the server's "direct" secrets, which unmask the
        three filters, and its "time" secrets, which unmask the time index
        (first, for the reason `_encrypt_trips` gives). Unmasking checks
        the widths and magnitudes before anything is written, so a rejected
        submission leaves the pool as it was. A row freed by `release` is
        reused before the pool grows.
        """
        if len(indexes) != len(self.kinds):
            raise ValueError(f"a submission carries {len(self.kinds)} indexes, got {len(indexes)}")
        time = crypto.unmask_indices(indexes[TIME:], secrets["time"], self.role)
        cleared = crypto.unmask_indices(indexes[:TIME], secrets["direct"], self.role) + time
        row = self._free[-1] if self._free else self.used
        if row == len(self.live):
            self._grow()
        for dst, idx in zip(self.row_parts(row), cleared):
            dst[...] = idx.parts
        if self._free:
            self._free.pop()
        else:
            self.used += 1
        self.live[row] = True
        self.seq[row] = self._arrivals
        self._arrivals += 1
        self.ids[row] = item_id
        return row

    def _grow(self) -> None:
        rows = 2 * len(self.live)
        for k, old in enumerate(self.kinds):  # one kind at a time keeps the copy peak small
            self.kinds[k] = np.zeros((rows, old.shape[1]))
            self.kinds[k][: self.used] = old[: self.used]
            del old
        for name in self._row_arrays:
            old = getattr(self, name)
            new = np.zeros((rows, *old.shape[1:]), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        self.ids.extend([None] * (rows - len(self.ids)))

    def clear(self) -> None:
        """Empty the pool in place, zeroing every row used since the last clear."""
        for m in self.kinds:
            m[: self.used] = 0.0
        for name in self._row_arrays:
            getattr(self, name)[: self.used] = 0
        self.ids = [None] * len(self.ids)
        self.used = 0
        self._free.clear()
        self._arrivals = 0


class OfferPool(_Pool):
    """Stored offers, with each row's seats left and accepted cases.

    `cases[row]` lists the codes of the accepted drop-off cases in the
    driver's order, padded with -1.
    """

    role = "driver"
    _row_arrays = ("live", "seq", "remaining", "cases")

    def __init__(self, dims: tuple[int, ...], rows: int = POOL_ROWS):
        super().__init__(dims, rows)
        self.remaining = np.zeros(rows, dtype=np.int64)
        self.cases = np.zeros((rows, len(CASES)), dtype=np.int8)

    def admit(
        self,
        indexes: list[EncryptedIndex],
        secrets: dict[str, TosSecrets],
        offer_id: str,
        capacity: int,
        cases,
    ) -> int:
        """Store one masked offer (pick-up, drop-off, route, time); returns its row."""
        # a repeated case can never decide a match, so only first mentions count
        codes = list(dict.fromkeys(CASES.index(c) for c in cases))
        row = self._fill(indexes, secrets, offer_id)
        self.remaining[row] = capacity
        self.cases[row] = codes + [-1] * (len(CASES) - len(codes))
        return row

    def open_rows(self) -> np.ndarray:
        return self.live[: self.used] & (self.remaining[: self.used] > 0)


class RequestPool(_Pool):
    """Pending requests; a row freed by a match takes the next request."""

    role = "rider"

    def admit(
        self, indexes: list[EncryptedIndex], secrets: dict[str, TosSecrets], request_id: str
    ) -> int:
        """Store one masked request (pick-up, drop-off, route, time); returns its row."""
        return self._fill(indexes, secrets, request_id)

    def release(self, row: int) -> None:
        self.live[row] = False
        self.ids[row] = None
        self._free.append(row)


@dataclass(eq=False)
class PoolEntry:
    """A stored submission: its contact blob and the pool row of its indexes."""

    pool: _Pool
    row: int
    contact: bytes = b""

    def indexes(self) -> list[EncryptedIndex]:
        """Views of the pool row, so no ciphertext is held twice."""
        return [EncryptedIndex(p) for p in self.pool.row_parts(self.row)]


def gated_pairs(
    offers: OfferPool, requests: RequestPool, n_hashes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(request row, offer row, case code) of every open pair that passes all gates.

    Time and pick-up are two GEMMs over the used prefixes; the drop-off
    cases are row-wise dots on the pairs that survive them, so the server
    learns no case similarity of a pair that fails a gate.
    """
    q, o = requests.kinds, offers.kinds
    nr, no = requests.used, offers.used
    ok = requests.open_rows()[:, None] & offers.open_rows()[None, :]
    ok &= kernels.hits(kernels.cross_dots(q[TIME][:nr], o[TIME][:no]), 1.0)
    ok &= kernels.hits(kernels.cross_dots(q[PICKUP][:nr], o[PICKUP][:no]), n_hashes)
    ri, oj = np.nonzero(ok)
    hit = np.stack([  # (case code, pair)
        kernels.hits(kernels.paired_dots(q[DROPOFF][ri], o[DROPOFF][oj]), n_hashes),
        kernels.hits(kernels.paired_dots(q[DROPOFF][ri], o[ROUTE][oj]), n_hashes),
        kernels.hits(kernels.paired_dots(q[ROUTE][ri], o[DROPOFF][oj]), n_hashes),
    ])
    order = offers.cases[oj]  # (pair, rank) -> case code, -1 past the last
    accept = (order >= 0) & hit[order, np.arange(len(oj))[:, None]]
    found = accept.any(axis=1)
    codes = order[np.arange(len(oj)), accept.argmax(axis=1)]
    return ri[found], oj[found], codes[found]


def match_all(offers: OfferPool, requests: RequestPool, n_hashes: int) -> list[DirectMatch]:
    """Greedy assignment: requests in arrival order, first feasible offer.

    Offers are tried in arrival order and each serves at most its seats
    left. The pools are only read.
    """
    if not isinstance(offers, OfferPool) or not isinstance(requests, RequestPool):
        raise TypeError("match_all takes an OfferPool and a RequestPool")
    if not offers or not requests:
        return []
    if offers.dims != requests.dims:
        raise ValueError(f"dims mismatch: offers {offers.dims}, requests {requests.dims}")
    ri, oj, codes = gated_pairs(offers, requests, n_hashes)
    order = np.lexsort((offers.seq[oj], requests.seq[ri]))
    seats: dict[int, int] = {}
    served: set[int] = set()
    matches = []
    for r, o, code in zip(ri[order].tolist(), oj[order].tolist(), codes[order].tolist()):
        left = seats.get(o, int(offers.remaining[o]))
        if r in served or left <= 0:
            continue
        seats[o] = left - 1
        served.add(r)
        matches.append(DirectMatch(requests.ids[r], offers.ids[o], CASES[code]))
    return matches

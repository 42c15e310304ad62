"""Direct (single-driver, non-transfer) ride matching.

An offer carries four encrypted indexes built from the driver's trip:
pick-up area filter, drop-off area filter, route filter, and a day-slot
time vector. A request carries the rider's pick-up cell, drop-off cell,
intended route filter, and time vector, encoded by the `protocol.Params`
of the user's registration. The three filters are `filter_bits` wide and
encrypt under the "direct" key set of the user's role; the time vector is
one-hot over `time_slots` positions and encrypts under the "time" key set,
so no index carries padding. `DIRECT_OFFER` and `DIRECT_REQUEST` name these
(scheme, role) key sets once each, with three and one indexes, and encryption
and the pools' unmasking take the filters as one stack and the time as another.
The server matches a pair by checking, on indexes in stored form only
(request parts times the match mask, offer parts as sent):

  gate 1: time similarity == 1        (same day slot)
  gate 2: pick-up similarity == n_hashes  (rider pick-up in driver area)
  gate 3: one of the drop-off cases the driver accepts:
    area:     rider drop-off cell in the driver drop-off area
    route:    rider drop-off cell on the driver route
    extended: driver drop-off cell on the rider's route

Integer-valued gates are tested within +-0.5, which absorbs the numeric
noise of the encryption round trip. The server keeps its offers and pending
requests in two columnar pools (`OfferPool`, `RequestPool`): each masked
submission enters through the pool's `admit`, which writes it in stored
form straight into a row, and `match_all` reads the pools in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import crypto, kernels
from .bloom import BloomFilter, slot_vector
from .crypto import EncryptedIndex, KeySetId, Layout, MaskStock, TosSecrets, UserKeySet

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import Params


class MatchCase(enum.Enum):
    """Drop-off arrangements a driver may accept."""

    AREA = "area"
    ROUTE = "route"
    EXTENDED = "extended"


DEFAULT_CASES = (MatchCase.AREA, MatchCase.ROUTE, MatchCase.EXTENDED)

# The key sets of a direct trip's block: its pick-up, drop-off and route
# filters, then its time index.
DIRECT_OFFER: Layout = ((("direct", "driver"), 3), (("time", "driver"), 1))
DIRECT_REQUEST: Layout = ((("direct", "rider"), 3), (("time", "rider"), 1))


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


def _encrypt(
    trips: list[tuple],
    layout: Layout,
    keysets: dict[KeySetId, UserKeySet],
    params: Params,
    epoch: int,
    salt: int,
    rng: np.random.Generator | MaskStock,
) -> list[tuple[EncryptedIndex, ...]]:
    """Each trip's indexes, laid out by `layout`, from one `crypto.encrypt_layout` call: a
    trip's pick-up, drop-off and route cell sets as filters, then its time as a day slot."""
    if not trips:
        return []
    filters = [_filter(c, params, epoch, salt) for *cell_sets, _ in trips for c in cell_sets]
    slots = [slot_vector(seconds, params.time_slots) for *_, seconds in trips]
    stacks = [iter(s) for s in crypto.encrypt_layout([filters, slots], layout, keysets, rng)]
    return [tuple(next(s) for s, (_, n) in zip(stacks, layout) for _ in range(n)) for _ in trips]


def build_offers(
    specs: list[OfferSpec],
    keysets: dict[KeySetId, UserKeySet],
    params: Params,
    epoch: int,
    salt: int,
    rng: np.random.Generator | MaskStock,
) -> list[DirectOffer]:
    """Encrypt many offers in one batched pass: one encryption call per key
    set of `DIRECT_OFFER`."""
    for s in specs:
        if not s.cases:
            raise ValueError("offer must accept at least one drop-off case")
        if s.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {s.capacity}")
    trips = [(s.pickup_cells, s.dropoff_cells, s.route_cells, s.depart_seconds) for s in specs]
    encrypted = _encrypt(trips, DIRECT_OFFER, keysets, params, epoch, salt, rng)
    return [
        DirectOffer(s.offer_id, s.capacity, tuple(s.cases), *indexes, s.contact)
        for s, indexes in zip(specs, encrypted)
    ]


def build_requests(
    specs: list[RequestSpec],
    keysets: dict[KeySetId, UserKeySet],
    params: Params,
    epoch: int,
    salt: int,
    rng: np.random.Generator | MaskStock,
) -> list[DirectRequest]:
    """Encrypt many requests in one batched pass: one encryption call per key
    set of `DIRECT_REQUEST`."""
    trips = [([s.pickup_cell], [s.dropoff_cell], s.route_cells, s.pickup_seconds) for s in specs]
    encrypted = _encrypt(trips, DIRECT_REQUEST, keysets, params, epoch, salt, rng)
    return [
        DirectRequest(s.request_id, *indexes, s.contact) for s, indexes in zip(specs, encrypted)
    ]


# Index kinds, in the order of DirectOffer.indexes() / DirectRequest.indexes().
PICKUP, DROPOFF, ROUTE, TIME = range(4)
CASES = tuple(MatchCase)  # a case's code, in the pools and on the wire, is its position here
POOL_ROWS = 16  # rows a new pool allocates; it doubles whenever it fills up


class _Pool:
    """Stored ciphertexts of submissions, one row per submission.

    `dims` is each index kind's width, as `protocol.layout_dims` gives it
    for a direct trip, and `layout` names the key sets, with their counts,
    a stored submission is unmasked by. `kinds[kind]` is one contiguous
    (rows, 8*dims[kind]) float64 matrix per index kind, so a matching
    round's GEMMs read the used prefix in place. `live` marks the rows that hold a current
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
        """Write one submission's four masked indexes, in stored form, into a row made the
        newest live row.

        `secrets` maps each scheme to the server's secrets; the pool's
        `layout` picks the scheme and role of each index. Unmasking checks
        the count, widths and magnitudes of the whole submission before
        anything is written, so a rejected submission leaves the pool as it
        was. A row freed by `release` is reused before the pool grows.
        """
        filters = self.layout[0][1]
        cleared = crypto.unmask_layout([indexes[:filters], indexes[filters:]], self.layout, secrets)
        row = self._free[-1] if self._free else self.used
        if row == len(self.live):
            self._grow()
        for dst, idx in zip(self.row_parts(row), [idx for stack in cleared for idx in stack]):
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

    layout = DIRECT_OFFER
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

    layout = DIRECT_REQUEST

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

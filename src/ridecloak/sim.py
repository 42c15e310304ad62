"""Synthetic grid city, workload generation, and the experiment harness.

The harness reproduces the evaluation setup at desk scale: a rows x cols
grid of cells, drivers with self-avoiding walk routes, and riders whose
trips are anchored to driver routes with a configurable hit rate so that
matchability is controlled rather than left to chance. Experiments drive
the real client/server stack over the loopback transport and report
metrics as CSV rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import direct
from .bloom import BloomFilter, slot_index
from .client import LoopbackTransport, ServiceClient
from .direct import MatchCase, OfferSpec, RequestSpec, SummaryConfig
from .service import RideService, ServiceConfig
from .transfer import Preference

DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class GridCity:
    """Rectangular service area; cells are numbered row-major from 0."""

    rows: int
    cols: int
    cell_meters: float = 400.0

    def __post_init__(self) -> None:
        if self.rows * self.cols < 4:
            raise ValueError(f"city needs at least 4 cells, got {self.rows}x{self.cols}")

    @property
    def cell_count(self) -> int:
        return self.rows * self.cols

    @property
    def diameter(self) -> int:
        """Longest shortest-path between cells, in cells."""
        return self.rows + self.cols - 1

    def cell_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    def coords(self, cell: int) -> tuple[int, int]:
        return divmod(cell, self.cols)

    def neighbors(self, cell: int) -> list[int]:
        row, col = self.coords(cell)
        out = []
        if row > 0:
            out.append(cell - self.cols)
        if row < self.rows - 1:
            out.append(cell + self.cols)
        if col > 0:
            out.append(cell - 1)
        if col < self.cols - 1:
            out.append(cell + 1)
        return out

    def manhattan(self, a: int, b: int) -> int:
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return abs(ra - rb) + abs(ca - cb)

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """A shortest grid path from a to b: rows first, then columns."""
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        cells = [a]
        step = 1 if rb > ra else -1
        for row in range(ra + step, rb + step, step) if rb != ra else ():
            cells.append(self.cell_at(row, ca))
        step = 1 if cb > ca else -1
        for col in range(ca + step, cb + step, step) if cb != ca else ():
            cells.append(self.cell_at(rb, col))
        return tuple(cells)


def identifier_permutation(cell_count: int, epoch: int, salt: int) -> np.ndarray:
    """Epoch-rotating cell identifiers: a keyed permutation of 0..cell_count-1.

    Everyone holding the epoch salt derives the same mapping, so matching
    works within an epoch while identifiers are unlinkable across epochs.
    """
    digest = hashlib.blake2b(
        struct.pack("<QQ", salt & 0xFFFFFFFFFFFFFFFF, epoch), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return rng.permutation(cell_count)


def random_route(
    city: GridCity, length: int, rng: np.random.Generator,
    start: int | None = None, avoid: set[int] | None = None, tries: int = 200,
) -> tuple[int, ...]:
    """Uniform-ish self-avoiding walk of exactly `length` cells."""
    if length < 1 or length > city.cell_count:
        raise ValueError(f"route length {length} infeasible on {city.cell_count} cells")
    if length > city.diameter:
        raise ValueError(f"route length {length} exceeds city diameter {city.diameter}")
    avoid = avoid or set()
    for _ in range(tries):
        head = int(rng.integers(city.cell_count)) if start is None else start
        if head in avoid:
            continue
        path = [head]
        seen = set(avoid)
        seen.add(head)
        while len(path) < length:
            choices = [c for c in city.neighbors(path[-1]) if c not in seen]
            if not choices:
                break
            nxt = choices[int(rng.integers(len(choices)))]
            path.append(nxt)
            seen.add(nxt)
        if len(path) == length:
            return tuple(path)
    raise ValueError(f"could not build a {length}-cell route after {tries} tries")


@dataclass
class PlainOffer:
    """A driver trip in the clear, as the generator (not the server) sees it."""

    offer_id: str
    route: tuple[int, ...]
    depart_seconds: float
    cell_seconds: float
    capacity: int
    cases: tuple[MatchCase, ...] = direct.DEFAULT_CASES
    pickup_span: int = 2

    def time_at(self, position: int) -> float:
        return self.depart_seconds + position * self.cell_seconds

    @property
    def pickup_cells(self) -> tuple[int, ...]:
        return self.route[: self.pickup_span]

    @property
    def dropoff_cells(self) -> tuple[int, ...]:
        return (self.route[-1],)


@dataclass
class PlainRequest:
    """A rider trip in the clear."""

    request_id: str
    pickup: int
    dropoff: int
    route: tuple[int, ...]
    pickup_seconds: float
    dropoff_seconds: float
    preference: Preference = field(default_factory=lambda: Preference.parse("min-cells"))


@dataclass
class Workload:
    city: GridCity
    seed: int
    offers: list[PlainOffer]
    requests: list[PlainRequest]

    def prefix(self, n_requests: int) -> "Workload":
        """Same offers, first n requests; used for request-count sweeps."""
        return Workload(self.city, self.seed, self.offers, self.requests[:n_requests])


def workload_to_text(wl: Workload) -> str:
    lines = [f"grid {wl.city.rows} {wl.city.cols} seed={wl.seed}"]
    for o in wl.offers:
        cases = ",".join(c.value for c in o.cases)
        lines.append(
            f"offer {o.offer_id} cells={','.join(map(str, o.route))}"
            f" depart={o.depart_seconds!r} dwell={o.cell_seconds!r}"
            f" capacity={o.capacity} cases={cases} span={o.pickup_span}"
        )
    for r in wl.requests:
        lines.append(
            f"request {r.request_id} pickup={r.pickup} dropoff={r.dropoff}"
            f" route={','.join(map(str, r.route))}"
            f" t_pick={r.pickup_seconds!r} t_drop={r.dropoff_seconds!r}"
            f" pref={r.preference.render()}"
        )
    return "\n".join(lines) + "\n"


def workload_from_text(text: str) -> Workload:
    city = None
    seed = 0
    offers: list[PlainOffer] = []
    requests: list[PlainRequest] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, _, rest = line.partition(" ")
            if kind == "grid":
                rows, cols, seed_kv = rest.split()
                city = GridCity(int(rows), int(cols))
                seed = int(seed_kv.split("=", 1)[1])
                continue
            ident, _, rest = rest.partition(" ")
            kv = dict(item.split("=", 1) for item in rest.split())
            if kind == "offer":
                offers.append(
                    PlainOffer(
                        ident,
                        tuple(int(c) for c in kv["cells"].split(",")),
                        float(kv["depart"]),
                        float(kv["dwell"]),
                        int(kv["capacity"]),
                        tuple(MatchCase(c) for c in kv["cases"].split(",")),
                        int(kv["span"]),
                    )
                )
            elif kind == "request":
                requests.append(
                    PlainRequest(
                        ident,
                        int(kv["pickup"]),
                        int(kv["dropoff"]),
                        tuple(int(c) for c in kv["route"].split(",")),
                        float(kv["t_pick"]),
                        float(kv["t_drop"]),
                        Preference.parse(kv["pref"]),
                    )
                )
            else:
                raise ValueError(f"unknown record {kind!r}")
        except KeyError as exc:
            raise ValueError(f"workload line {lineno}: missing field {exc}") from None
        except (IndexError, ValueError) as exc:
            raise ValueError(f"workload line {lineno}: {exc}") from None
    if city is None:
        raise ValueError("workload text has no grid line")
    return Workload(city, seed, offers, requests)


def save_workload(path: str, wl: Workload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload_to_text(wl))


def load_workload(path: str) -> Workload:
    with open(path, "r", encoding="utf-8") as fh:
        return workload_from_text(fh.read())


def _jitter_aligned(
    base: float, jitter: float, rng: np.random.Generator, slot_counts: tuple[int, ...]
) -> float:
    """base plus noise, falling back to base when noise crosses a slot edge.

    Keeping the jittered time inside the same slot(s) as the base preserves
    the matchability the anchor was built for, while finer slottings (larger
    counts applied later) still split the jittered population naturally.
    """
    t = base + float(rng.uniform(-jitter, jitter))
    if t < 0 or t >= DAY_SECONDS:
        return base
    for slots in slot_counts:
        if slot_index(t, slots) != slot_index(base, slots):
            return base
    return t


def _colocations(
    offers: list[PlainOffer], align_slots: int, window_seconds: float
) -> list[tuple[int, int, int, int]]:
    """(i, pi, j, pj) tuples where rider can ride offer i then transfer to j."""
    by_cell: dict[int, list[tuple[int, int]]] = {}
    for i, offer in enumerate(offers):
        for pos, cell in enumerate(offer.route):
            by_cell.setdefault(cell, []).append((i, pos))
    pairs = []
    for entries in by_cell.values():
        for i, pi in entries:
            for j, pj in entries:
                if i == j:
                    continue
                if pi < 1 or pj > len(offers[j].route) - 2:
                    continue
                ti = offers[i].time_at(pi)
                tj = offers[j].time_at(pj)
                if abs(ti - tj) > window_seconds:
                    continue
                if slot_index(ti, align_slots) != slot_index(tj, align_slots):
                    continue
                pairs.append((i, pi, j, pj))
    return pairs


def generate_workload(
    city: GridCity,
    n_offers: int,
    n_requests: int,
    seed: int,
    route_len_range: tuple[int, int] = (6, 12),
    time_slots: int = 48,
    *,
    hit_rate: float = 0.85,
    transfer_rate: float = 0.5,
    capacity: int = 5,
    cell_seconds: float = 300.0,
    depart_window: tuple[float, float] = (6 * 3600.0, 10 * 3600.0),
    time_jitter: float = 600.0,
    align_slots: int = 25,
    pickup_span: int = 2,
    offer_cases: tuple[MatchCase, ...] = direct.DEFAULT_CASES,
    case_mix: tuple[float, float, float] = (0.55, 0.45, 0.0),
    colocation_window: float = 600.0,
    preference: str = "min-cells",
) -> Workload:
    """Build a deterministic workload with controlled matchability.

    A hit_rate fraction of requests is anchored to driver routes so the
    plaintext gates pass by construction; of those, a transfer_rate
    fraction needs a driver-to-driver transfer and is therefore only
    servable by the transfer scheme. The rest are random trips.
    """
    lo, hi = route_len_range
    if not (2 <= lo <= hi):
        raise ValueError(f"bad route length range {route_len_range}")
    if hi > city.diameter:
        raise ValueError(f"route length {hi} exceeds city diameter {city.diameter}")
    if not (0.0 <= hit_rate <= 1.0 and 0.0 <= transfer_rate <= 1.0):
        raise ValueError("rates must be within [0, 1]")
    rng = np.random.default_rng(seed)
    pref = Preference.parse(preference)

    offers = []
    for i in range(n_offers):
        length = int(rng.integers(lo, hi + 1))
        route = random_route(city, length, rng)
        depart = float(rng.integers(int(depart_window[0]), int(depart_window[1])))
        offers.append(
            PlainOffer(
                f"offer-{i}", route, depart, cell_seconds, capacity,
                tuple(offer_cases), min(pickup_span, length - 1),
            )
        )

    transfer_pairs = _colocations(offers, align_slots, colocation_window) if offers else []
    case_names = (MatchCase.AREA, MatchCase.ROUTE, MatchCase.EXTENDED)
    mix = np.asarray(case_mix, dtype=float)
    mix = mix / mix.sum()

    requests = []
    for i in range(n_requests):
        rid = f"request-{i}"
        anchored = bool(offers) and rng.random() < hit_rate
        wants_transfer = bool(transfer_pairs) and rng.random() < transfer_rate
        if anchored and wants_transfer:
            a, pa, b, pb = transfer_pairs[int(rng.integers(len(transfer_pairs)))]
            first, second = offers[a], offers[b]
            pick_pos = int(rng.integers(0, pa))
            drop_pos = int(rng.integers(pb + 1, len(second.route)))
            pickup, dropoff = first.route[pick_pos], second.route[drop_pos]
            t_pick = _jitter_aligned(first.time_at(pick_pos), time_jitter, rng, (align_slots,))
            t_drop = _jitter_aligned(second.time_at(drop_pos), time_jitter, rng, (align_slots,))
            # ride A to the shared cell, continue on B: a connected path
            route = first.route[pick_pos : pa + 1] + second.route[pb + 1 : drop_pos + 1]
        elif anchored:
            offer = offers[int(rng.integers(len(offers)))]
            case_pool = [c for c in case_names if c in offer.cases] or [MatchCase.AREA]
            weights = np.array([mix[case_names.index(c)] for c in case_pool])
            if weights.sum() <= 0:
                weights = np.ones(len(case_pool))
            case = case_pool[int(rng.choice(len(case_pool), p=weights / weights.sum()))]
            pick_pos = int(rng.integers(0, offer.pickup_span))
            if case is MatchCase.AREA:
                drop_pos = len(offer.route) - 1
                route = offer.route[pick_pos:]
            elif case is MatchCase.ROUTE:
                drop_pos = int(rng.integers(pick_pos + 1, len(offer.route)))
                route = offer.route[pick_pos : drop_pos + 1]
            else:  # extended: ride to the end, walk on past it
                drop_pos = len(offer.route) - 1
                try:
                    ext = random_route(
                        city, int(rng.integers(2, 5)), rng,
                        start=offer.route[-1], avoid=set(offer.route[:-1]),
                    )
                except ValueError:
                    ext = (offer.route[-1],)
                route = offer.route[pick_pos:] + ext[1:]
            pickup = offer.route[pick_pos]
            dropoff = route[-1]
            base_pick = offer.time_at(pick_pos)
            slots = (align_slots, time_slots) if slot_index(base_pick, time_slots) == slot_index(
                offer.depart_seconds, time_slots
            ) else (align_slots,)
            t_pick = _jitter_aligned(base_pick, time_jitter, rng, slots)
            extra = (len(route) - 1 - (drop_pos - pick_pos)) * cell_seconds
            t_drop = _jitter_aligned(
                offer.time_at(drop_pos) + extra, time_jitter, rng, (align_slots,)
            )
        else:
            pickup = int(rng.integers(city.cell_count))
            reach = [
                c for c in range(city.cell_count) if 2 <= city.manhattan(pickup, c) <= 15
            ]
            dropoff = reach[int(rng.integers(len(reach)))]
            route = city.path(pickup, dropoff)
            t_pick = float(rng.integers(int(depart_window[0]), int(depart_window[1])))
            t_drop = t_pick + city.manhattan(pickup, dropoff) * cell_seconds
        requests.append(PlainRequest(rid, pickup, dropoff, route, t_pick, t_drop, pref))
    return Workload(city, seed, offers, requests)


# --- plaintext pair gates (metrics only; matching itself stays encrypted) -----


def cell_truth_case(offer: PlainOffer, request: PlainRequest, time_slots: int) -> MatchCase | None:
    """Exact set-membership outcome of the gate chain for one pair."""
    if slot_index(request.pickup_seconds, time_slots) != slot_index(offer.depart_seconds, time_slots):
        return None
    if request.pickup not in offer.pickup_cells:
        return None
    for case in offer.cases:
        if case is MatchCase.AREA and request.dropoff in offer.dropoff_cells:
            return case
        if case is MatchCase.ROUTE and request.dropoff in offer.route:
            return case
        if case is MatchCase.EXTENDED and all(
            c in request.route for c in offer.dropoff_cells
        ):
            return case
    return None


def bloom_gate_case(
    offer_filters: dict, request_filters: dict, offer: PlainOffer, request: PlainRequest,
    n_hashes: int,
) -> MatchCase | None:
    """Gate chain computed on real Bloom vectors (false positives included)."""

    def dot(a: BloomFilter, b: BloomFilter) -> int:
        return int(np.dot(a.vector(), b.vector()))

    if slot_index(request.pickup_seconds, offer_filters["slots"]) != slot_index(
        offer.depart_seconds, offer_filters["slots"]
    ):
        return None
    if dot(request_filters["pickup"], offer_filters["pickup"]) != n_hashes:
        return None
    for case in offer.cases:
        if case is MatchCase.AREA and dot(request_filters["dropoff"], offer_filters["dropoff"]) == n_hashes:
            return case
        if case is MatchCase.ROUTE and dot(request_filters["dropoff"], offer_filters["route"]) == n_hashes:
            return case
        if case is MatchCase.EXTENDED and dot(request_filters["route"], offer_filters["dropoff"]) == n_hashes:
            return case
    return None


def _pair_filters(wl: Workload, cfg: SummaryConfig, perm: np.ndarray):
    offer_filters = []
    for o in wl.offers:
        offer_filters.append(
            {
                "slots": cfg.time_slots,
                "pickup": cfg.filter_of(perm[list(o.pickup_cells)]),
                "dropoff": cfg.filter_of(perm[list(o.dropoff_cells)]),
                "route": cfg.filter_of(perm[list(o.route)]),
            }
        )
    request_filters = []
    for r in wl.requests:
        request_filters.append(
            {
                "pickup": cfg.filter_of([int(perm[r.pickup])]),
                "dropoff": cfg.filter_of([int(perm[r.dropoff])]),
                "route": cfg.filter_of(perm[list(r.route)]),
            }
        )
    return offer_filters, request_filters


def count_fpp_events(wl: Workload, cfg: SummaryConfig, perm: np.ndarray) -> int:
    """Pairs whose Bloom-gate outcome differs from exact cell membership."""
    offer_filters, request_filters = _pair_filters(wl, cfg, perm)
    events = 0
    for i, r in enumerate(wl.requests):
        for j, o in enumerate(wl.offers):
            truth = cell_truth_case(o, r, cfg.time_slots)
            gate = bloom_gate_case(offer_filters[j], request_filters[i], o, r, cfg.n_hashes)
            if truth is not gate:
                events += 1
    return events


def ccrs_size_model(cell_count: int) -> int:
    """Offer size (bytes) if every vector spanned the whole city.

    Three location vectors plus a time vector, each cell_count wide, each
    encrypted into 8 parts of 8-byte elements. Grows linearly with city
    size, which is the comparison point for the fixed-size trip summaries.
    """
    if cell_count < 1:
        raise ValueError(f"cell_count must be >= 1, got {cell_count}")
    return 4 * cell_count * 8 * 8


# --- experiments ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    scheme: str = "direct"  # "direct" or "transfer"
    rows: int = 40
    cols: int = 40
    n_offers: int = 30
    n_requests: int = 50
    seed: int = 0
    hit_rate: float = 0.85
    transfer_rate: float = 0.5
    capacity: int = 5
    route_len_range: tuple[int, int] = (6, 12)
    preference: str = "min-cells"
    filter_bits: int = 2048
    n_hashes: int = 24
    id_bits: int = 11
    time_bits: int = 25
    time_slots: int = 48
    max_items: int = 60
    path_limit: int = 10_000
    align_slots: int = 25

    def __post_init__(self) -> None:
        if self.scheme not in ("direct", "transfer"):
            raise ValueError(f"scheme must be 'direct' or 'transfer', got {self.scheme!r}")
        if self.scheme == "transfer" and self.rows * self.cols > 2**self.id_bits:
            raise ValueError(
                f"{self.rows * self.cols} cells do not fit in {self.id_bits} identifier bits"
            )

    def workload(self) -> Workload:
        """The seeded synthetic workload this configuration describes."""
        return generate_workload(
            GridCity(self.rows, self.cols), self.n_offers, self.n_requests, self.seed,
            self.route_len_range, self.time_slots,
            hit_rate=self.hit_rate, transfer_rate=self.transfer_rate,
            capacity=self.capacity, align_slots=self.align_slots,
            preference=self.preference,
        )

    def service_config(self, tokens_per_bundle: int = 4096) -> ServiceConfig:
        return ServiceConfig(
            filter_bits=self.filter_bits,
            n_hashes=self.n_hashes,
            id_bits=self.id_bits,
            time_bits=self.time_bits,
            time_slots=self.time_slots,
            max_items=self.max_items,
            path_limit=self.path_limit,
            tokens_per_bundle=tokens_per_bundle,
        )


@dataclass
class MetricsReport:
    scheme: str
    rows: int
    cols: int
    cell_count: int
    n_offers: int
    n_requests: int
    seed: int
    filter_bits: int
    n_hashes: int
    time_bits: int
    preference: str
    search_time_ms: float
    bytes_per_offer: float
    bytes_per_request: float
    success_rate: float
    vehicle_service_rate: float
    fpp_events: int

    def row(self) -> dict:
        return {name: getattr(self, name) for name in CSV_FIELDS}


CSV_FIELDS = [f.name for f in fields(MetricsReport)]


def write_metrics_csv(stream, reports: list[MetricsReport]) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for report in reports:
        writer.writerow(report.row())


def metrics_csv_text(reports: list[MetricsReport]) -> str:
    out = io.StringIO()
    write_metrics_csv(out, reports)
    return out.getvalue()


class ServicePool:
    """Reuses services and registered clients across runs with equal crypto.

    Key generation at full vector width is by far the slowest step of an
    experiment and is explicitly a one-time cost, so sweeps share one
    service per (crypto parameters, seed) and purge trip state between
    runs with an epoch rotation.
    """

    def __init__(self, tokens_per_bundle: int = 4096, max_entries: int = 2):
        self.tokens_per_bundle = tokens_per_bundle
        self.max_entries = max_entries
        self._cache: dict[tuple, tuple[RideService, ServiceClient, ServiceClient]] = {}

    def acquire(self, config: ExperimentConfig):
        key = (
            config.filter_bits, config.n_hashes, config.id_bits, config.time_bits,
            config.time_slots, config.max_items, config.seed,
        )
        trio = self._cache.get(key)
        if trio is None:
            while len(self._cache) >= self.max_entries:
                # full-width services hold large matrices; evict oldest first
                self._cache.pop(next(iter(self._cache)))
            service = RideService(
                config.service_config(self.tokens_per_bundle),
                seed=np.random.SeedSequence([config.seed, 1]).generate_state(1)[0],
            )
            driver = ServiceClient(LoopbackTransport(service), rng=np.random.default_rng((config.seed, 2)))
            rider = ServiceClient(LoopbackTransport(service), rng=np.random.default_rng((config.seed, 3)))
            driver.register("driver")
            rider.register("rider")
            self._cache[key] = trio = (service, driver, rider)
        else:
            self._cache.pop(key)
            self._cache[key] = trio  # refresh recency
            service, driver, rider = trio
            service.rotate_epoch()
            driver.sync_epoch()
            rider.sync_epoch()
        return trio


def submit_offers(
    wl: Workload, scheme: str, driver: ServiceClient, perm: np.ndarray, time_bits: int
) -> list[str]:
    """Submit every offer of a workload, cells translated through perm; returns ids."""
    if scheme == "direct":
        return driver.submit_direct_offers([
            OfferSpec(
                o.offer_id,
                tuple(int(perm[c]) for c in o.pickup_cells),
                tuple(int(perm[c]) for c in o.dropoff_cells),
                tuple(int(perm[c]) for c in o.route),
                o.depart_seconds, o.capacity, o.cases,
            )
            for o in wl.offers
        ])
    return [
        driver.submit_transfer_offer(
            [
                (int(perm[cell]), slot_index(o.time_at(pos), time_bits))
                for pos, cell in enumerate(o.route)
            ],
            o.capacity,
        )
        for o in wl.offers
    ]


def submit_requests(
    wl: Workload, scheme: str, rider: ServiceClient, perm: np.ndarray, time_bits: int
) -> list[str]:
    """Submit every request of a workload, cells translated through perm; returns ids."""
    if scheme == "direct":
        return rider.submit_direct_requests([
            RequestSpec(
                r.request_id,
                int(perm[r.pickup]),
                int(perm[r.dropoff]),
                tuple(int(perm[c]) for c in r.route),
                r.pickup_seconds,
            )
            for r in wl.requests
        ])
    return [
        rider.submit_transfer_request(
            (int(perm[r.pickup]), slot_index(r.pickup_seconds, time_bits)),
            (int(perm[r.dropoff]), slot_index(r.dropoff_seconds, time_bits)),
            r.preference,
        )
        for r in wl.requests
    ]


def _ensure_tokens(client: ServiceClient, needed: int) -> None:
    if len(client.registration.tokens) < needed:
        client.register(client.registration.role)


def run_experiment(
    config: ExperimentConfig,
    *,
    workload: Workload | None = None,
    pool: ServicePool | None = None,
) -> MetricsReport:
    """Full pipeline for one configuration: submit, match, measure."""
    city = GridCity(config.rows, config.cols)
    if workload is None:
        workload = config.workload()
    service, driver, rider = (pool or ServicePool()).acquire(config)
    _ensure_tokens(driver, len(workload.offers))
    _ensure_tokens(rider, len(workload.requests))
    epoch, salt = service.server.epoch, service.server.salt
    perm = identifier_permutation(city.cell_count, epoch, salt)

    sent0 = driver.transport.sent_bytes
    submit_offers(workload, config.scheme, driver, perm, config.time_bits)
    offer_bytes = driver.transport.sent_bytes - sent0

    sent0 = rider.transport.sent_bytes
    submit_requests(workload, config.scheme, rider, perm, config.time_bits)
    request_bytes = rider.transport.sent_bytes - sent0

    start = time.perf_counter()
    records = service.run_matching()
    search_time_ms = (time.perf_counter() - start) * 1000.0

    matched = len(records)
    n_req = len(workload.requests)
    n_off = len(workload.offers)

    fpp_events = 0
    if config.scheme == "direct" and n_req and n_off:
        cfg = SummaryConfig(
            bits=config.filter_bits, n_hashes=config.n_hashes,
            time_slots=config.time_slots, max_items=config.max_items,
            epoch=epoch, salt=salt,
        )
        fpp_events = count_fpp_events(workload, cfg, perm)

    return MetricsReport(
        scheme=config.scheme,
        rows=config.rows,
        cols=config.cols,
        cell_count=city.cell_count,
        n_offers=n_off,
        n_requests=n_req,
        seed=config.seed,
        filter_bits=config.filter_bits,
        n_hashes=config.n_hashes,
        time_bits=config.time_bits,
        preference=config.preference,
        search_time_ms=search_time_ms,
        bytes_per_offer=offer_bytes / n_off if n_off else 0.0,
        bytes_per_request=request_bytes / n_req if n_req else 0.0,
        success_rate=matched / n_req if n_req else 0.0,
        vehicle_service_rate=matched / n_off if n_off else 0.0,
        fpp_events=fpp_events,
    )


# --- sweeps ---------------------------------------------------------------------


def sweep_matrix(
    base: ExperimentConfig,
    offers_list: tuple[int, ...],
    requests_list: tuple[int, ...],
    seeds: tuple[int, ...],
    schemes: tuple[str, ...] = ("direct", "transfer"),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Success-rate comparison grid; both schemes see the same workloads."""
    pool = pool or ServicePool()
    reports = []
    for seed in seeds:
        for n_offers in offers_list:
            for n_requests in requests_list:
                wl = None
                for scheme in schemes:
                    config = replace(
                        base, scheme=scheme, n_offers=n_offers,
                        n_requests=n_requests, seed=seed,
                    )
                    if wl is None:
                        wl = config.workload()
                    reports.append(run_experiment(config, workload=wl, pool=pool))
    return reports


def sweep_cell_count(
    base: ExperimentConfig,
    cell_counts: tuple[int, ...] = (400, 1600, 6400),
    seeds: tuple[int, ...] = (0, 1, 2),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """City-size sweep for the communication-overhead comparison."""
    pool = pool or ServicePool()
    reports = []
    for seed in seeds:
        for count in cell_counts:
            side = int(round(count ** 0.5))
            if side * side != count:
                raise ValueError(f"cell_count {count} is not a square grid")
            config = replace(base, scheme="direct", rows=side, cols=side, seed=seed)
            reports.append(run_experiment(config, pool=pool))
    return reports


def sweep_time_bits(
    base: ExperimentConfig,
    values: tuple[int, ...] = (25, 50, 100, 200),
    seeds: tuple[int, ...] = (0, 1, 2),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Time-resolution sweep on a fixed workload per seed (transfer scheme)."""
    pool = pool or ServicePool()
    reports = []
    for seed in seeds:
        config0 = replace(base, scheme="transfer", seed=seed)
        wl = config0.workload()
        for bits in values:
            config = replace(config0, time_bits=bits)
            reports.append(run_experiment(config, workload=wl, pool=pool))
    return reports


def sweep_request_prefixes(
    base: ExperimentConfig,
    counts: tuple[int, ...],
    seeds: tuple[int, ...] = (0,),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Request-count sweep on prefixes of one request stream per seed."""
    pool = pool or ServicePool()
    reports = []
    for seed in seeds:
        config0 = replace(base, seed=seed, n_requests=max(counts))
        wl = config0.workload()
        for count in counts:
            config = replace(config0, n_requests=count)
            reports.append(run_experiment(config, workload=wl.prefix(count), pool=pool))
    return reports


def mean_success(reports: list[MetricsReport], **filters) -> float:
    """Mean success rate over reports matching the given field values."""
    rows = [
        r for r in reports
        if all(getattr(r, name) == value for name, value in filters.items())
    ]
    if not rows:
        raise ValueError(f"no reports match {filters}")
    return float(np.mean([r.success_rate for r in rows]))

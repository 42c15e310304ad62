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
import struct
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import direct
from .bloom import SECONDS_PER_DAY, slot_index
from .client import LoopbackTransport, ServiceClient, TokenError
from .direct import MatchCase, OfferSpec, RequestSpec
from .service import RideService, ServiceConfig, TosServer
from .transfer import Preference

SCHEMES = ("direct", "transfer")

# Fixed shape of a generated workload: seconds a driver spends per cell,
# the departure window, the jitter on rider times and the window within
# which two drivers meet in a cell for a transfer.
CELL_SECONDS = 300.0
DEPART_WINDOW = (6 * 3600, 10 * 3600)
TIME_JITTER = 600.0
COLOCATION_WINDOW = 600.0
ROUTE_TRIES = 200  # random_route gives up after this many walks


@dataclass(frozen=True)
class GridCity:
    """Rectangular service area; cells are numbered row-major from 0."""

    rows: int
    cols: int

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
    start: int | None = None, avoid: set[int] | None = None,
) -> tuple[int, ...]:
    """Uniform-ish self-avoiding walk of exactly `length` cells."""
    if length < 1 or length > city.cell_count:
        raise ValueError(f"route length {length} infeasible on {city.cell_count} cells")
    if length > city.diameter:
        raise ValueError(f"route length {length} exceeds city diameter {city.diameter}")
    avoid = avoid or set()
    for _ in range(ROUTE_TRIES):
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
    raise ValueError(f"could not build a {length}-cell route after {ROUTE_TRIES} tries")


@dataclass
class PlainOffer:
    """A driver trip in the clear, as the generator (not the server) sees it."""

    offer_id: str
    route: tuple[int, ...]
    depart_seconds: float
    cell_seconds: float
    capacity: int
    cases: tuple[MatchCase, ...]
    pickup_span: int

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
    preference: Preference


@dataclass
class Workload:
    city: GridCity
    seed: int
    offers: list[PlainOffer]
    requests: list[PlainRequest]


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


def parse_workload(text: str) -> Workload:
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
        return parse_workload(fh.read())


def _jitter_aligned(
    base: float, jitter: float, rng: np.random.Generator, slot_counts: tuple[int, ...]
) -> float:
    """base plus noise, falling back to base when noise crosses a slot edge.

    Keeping the jittered time inside the same slot(s) as the base preserves
    the matchability the anchor was built for, while finer slottings (larger
    counts applied later) still split the jittered population naturally.
    """
    t = base + float(rng.uniform(-jitter, jitter))
    if t < 0 or t >= SECONDS_PER_DAY:
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


# Tokens per registration of an experiment client; submission registers
# again whenever they run out.
TOKENS_PER_BUNDLE = 4096


@dataclass
class ExperimentConfig:
    """One experiment: a workload shape and the service it runs on.

    Its field defaults are the workload defaults; `generate_workload` and
    the CLI's workload flags read them from here.
    """

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
    # the service parameters an experiment sets; service_config() passes them on
    filter_bits: int = ServiceConfig.filter_bits
    n_hashes: int = ServiceConfig.n_hashes
    id_bits: int = ServiceConfig.id_bits
    time_bits: int = ServiceConfig.time_bits
    time_slots: int = ServiceConfig.time_slots
    max_items: int = ServiceConfig.max_items
    align_slots: int = 25

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be 'direct' or 'transfer', got {self.scheme!r}")
        if self.scheme == "transfer" and self.rows * self.cols > 2**self.id_bits:
            raise ValueError(
                f"{self.rows * self.cols} cells do not fit in {self.id_bits} identifier bits"
            )
        self.service_config()  # raises for parameters the service refuses

    def workload(self) -> Workload:
        """The seeded synthetic workload this configuration describes."""
        return generate_workload(
            GridCity(self.rows, self.cols), self.n_offers, self.n_requests, self.seed,
            self.route_len_range, self.time_slots,
            hit_rate=self.hit_rate, transfer_rate=self.transfer_rate,
            capacity=self.capacity, align_slots=self.align_slots,
            preference=self.preference,
        )

    def service_config(self) -> ServiceConfig:
        """The service this experiment runs on; raises ValueError if it is invalid."""
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(ServiceConfig) if f.name in own}
        return ServiceConfig(**shared, tokens_per_bundle=TOKENS_PER_BUNDLE)


def generate_workload(
    city: GridCity,
    n_offers: int,
    n_requests: int,
    seed: int,
    route_len_range: tuple[int, int] = ExperimentConfig.route_len_range,
    time_slots: int = ExperimentConfig.time_slots,
    *,
    hit_rate: float = ExperimentConfig.hit_rate,
    transfer_rate: float = ExperimentConfig.transfer_rate,
    capacity: int = ExperimentConfig.capacity,
    align_slots: int = ExperimentConfig.align_slots,
    pickup_span: int = 2,
    case_mix: tuple[float, float, float] = (0.55, 0.45, 0.0),
    preference: str = ExperimentConfig.preference,
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
        depart = float(rng.integers(*DEPART_WINDOW))
        offers.append(
            PlainOffer(
                f"offer-{i}", route, depart, CELL_SECONDS, capacity,
                direct.DEFAULT_CASES, min(pickup_span, length - 1),
            )
        )

    transfer_pairs = _colocations(offers, align_slots, COLOCATION_WINDOW) if offers else []
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
            t_pick = _jitter_aligned(first.time_at(pick_pos), TIME_JITTER, rng, (align_slots,))
            t_drop = _jitter_aligned(second.time_at(drop_pos), TIME_JITTER, rng, (align_slots,))
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
            t_pick = _jitter_aligned(base_pick, TIME_JITTER, rng, slots)
            extra = (len(route) - 1 - (drop_pos - pick_pos)) * CELL_SECONDS
            t_drop = _jitter_aligned(
                offer.time_at(drop_pos) + extra, TIME_JITTER, rng, (align_slots,)
            )
        else:
            pickup = int(rng.integers(city.cell_count))
            reach = [
                c for c in range(city.cell_count) if 2 <= city.manhattan(pickup, c) <= 15
            ]
            dropoff = reach[int(rng.integers(len(reach)))]
            route = city.path(pickup, dropoff)
            t_pick = float(rng.integers(*DEPART_WINDOW))
            t_drop = t_pick + city.manhattan(pickup, dropoff) * CELL_SECONDS
        requests.append(PlainRequest(rid, pickup, dropoff, route, t_pick, t_drop, pref))
    return Workload(city, seed, offers, requests)


# --- plaintext pair gate (metrics only; matching itself stays encrypted) ------


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


class ServicePool:
    """Reuses the last service and its registered clients for an equal config.

    Key generation at full vector width is by far the slowest step of an
    experiment and is explicitly a one-time cost, so consecutive runs with
    an equal service config and seed share one service and purge trip
    state between runs with an epoch rotation. Any other config replaces
    the service; a full-width one with two clients takes ~1.5 GB, so only one is kept.
    """

    def __init__(self):
        self.key: tuple[ServiceConfig, int] | None = None
        self.trio: tuple[RideService, ServiceClient, ServiceClient] | None = None

    def acquire(self, config: ExperimentConfig) -> tuple[RideService, ServiceClient, ServiceClient]:
        service_config = config.service_config()
        key = (service_config, config.seed)
        if key == self.key:
            service, driver, rider = self.trio
            service.rotate_epoch()
            driver.sync_epoch()
            rider.sync_epoch()
            return self.trio
        self.key = self.trio = None  # drop the old service before building the next
        service = RideService(
            service_config,
            seed=np.random.SeedSequence([config.seed, 1]).generate_state(1)[0],
        )
        driver = ServiceClient(LoopbackTransport(service), rng=np.random.default_rng((config.seed, 2)))
        rider = ServiceClient(LoopbackTransport(service), rng=np.random.default_rng((config.seed, 3)))
        driver.register("driver")
        rider.register("rider")
        self.key, self.trio = key, (service, driver, rider)
        return self.trio


def _submit_all(client: ServiceClient, role: str, trips: list, cell_count: int, submit) -> list[str]:
    """Submit trips in chunks of the tokens the client holds; returns the server's ids.

    A client with no registration or no tokens left registers first. Each
    chunk's cells go through the permutation of the client's registration,
    `submit(chunk, perm, time_bits)`; any key set of a service matches any
    other, so a chunk may be encrypted under keys of a later registration.
    """
    ids: list[str] = []
    while len(ids) < len(trips):
        reg = client.registration
        if reg is None or not reg.tokens:
            reg = client.register(role)
            if not reg.tokens:
                raise TokenError("registration gave no submission tokens")
        perm = identifier_permutation(cell_count, reg.epoch, reg.salt)
        ids += submit(trips[len(ids) : len(ids) + len(reg.tokens)], perm, reg.bundle.time_bits)
    return ids


def submit_offers(wl: Workload, scheme: str, driver: ServiceClient) -> list[str]:
    """Submit every offer of a workload as `driver`; returns the server's ids."""

    def submit(offers: list[PlainOffer], perm: np.ndarray, time_bits: int) -> list[str]:
        if scheme == "direct":
            return driver.submit_direct_offers([
                OfferSpec(
                    o.offer_id,
                    tuple(int(perm[c]) for c in o.pickup_cells),
                    tuple(int(perm[c]) for c in o.dropoff_cells),
                    tuple(int(perm[c]) for c in o.route),
                    o.depart_seconds, o.capacity, o.cases,
                )
                for o in offers
            ])
        return [
            driver.submit_transfer_offer(
                [
                    (int(perm[cell]), slot_index(o.time_at(pos), time_bits))
                    for pos, cell in enumerate(o.route)
                ],
                o.capacity,
            )
            for o in offers
        ]

    return _submit_all(driver, "driver", wl.offers, wl.city.cell_count, submit)


def submit_requests(wl: Workload, scheme: str, rider: ServiceClient) -> list[str]:
    """Submit every request of a workload as `rider`; returns the server's ids."""

    def submit(requests: list[PlainRequest], perm: np.ndarray, time_bits: int) -> list[str]:
        if scheme == "direct":
            return rider.submit_direct_requests([
                RequestSpec(
                    r.request_id,
                    int(perm[r.pickup]),
                    int(perm[r.dropoff]),
                    tuple(int(perm[c]) for c in r.route),
                    r.pickup_seconds,
                )
                for r in requests
            ])
        return [
            rider.submit_transfer_request(
                (int(perm[r.pickup]), slot_index(r.pickup_seconds, time_bits)),
                (int(perm[r.dropoff]), slot_index(r.dropoff_seconds, time_bits)),
                r.preference,
            )
            for r in requests
        ]

    return _submit_all(rider, "rider", wl.requests, wl.city.cell_count, submit)


def count_fpp_events(
    wl: Workload, server: TosServer, offer_ids: list[str], request_ids: list[str],
    config: ExperimentConfig,
) -> int:
    """Stored pairs whose direct-gate outcome differs from exact cell membership.

    The gate is the server's own, run over its pools before matching
    changes them; rows map back to the workload through the returned ids.
    """
    offer_at = {server.direct_offers[oid].row: j for j, oid in enumerate(offer_ids)}
    request_at = {server.direct_requests[rid].row: i for i, rid in enumerate(request_ids)}
    ri, oj, codes = direct.gated_pairs(server.offer_pool, server.request_pool, config.n_hashes)
    gate = {
        (request_at[r], offer_at[o]): direct.CASES[code]
        for r, o, code in zip(ri.tolist(), oj.tolist(), codes.tolist())
    }
    return sum(
        cell_truth_case(o, r, config.time_slots) is not gate.get((i, j))
        for i, r in enumerate(wl.requests)
        for j, o in enumerate(wl.offers)
    )


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

    sent0 = driver.submitted_bytes
    offer_ids = submit_offers(workload, config.scheme, driver)
    offer_bytes = driver.submitted_bytes - sent0

    sent0 = rider.submitted_bytes
    request_ids = submit_requests(workload, config.scheme, rider)
    request_bytes = rider.submitted_bytes - sent0

    n_req = len(workload.requests)
    n_off = len(workload.offers)
    fpp_events = 0
    if config.scheme == "direct" and n_req and n_off:
        fpp_events = count_fpp_events(
            workload, service.server, offer_ids, request_ids, config
        )

    start = time.perf_counter()
    records = service.run_matching()
    search_time_ms = (time.perf_counter() - start) * 1000.0
    matched = len(records)

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
# A sweep runs its configs in order through one pool; each run generates
# its own seeded workload. A workload depends on neither `scheme` nor
# `time_bits`, and requests are drawn after every offer, so
# `n_requests=k` gives the first k requests of any larger run.


def sweep_matrix(
    base: ExperimentConfig,
    offers_list: tuple[int, ...],
    requests_list: tuple[int, ...],
    seeds: tuple[int, ...],
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Success-rate comparison grid; both schemes see the same workloads."""
    pool = pool or ServicePool()
    return [
        run_experiment(
            replace(base, scheme=scheme, n_offers=n_offers, n_requests=n_requests, seed=seed),
            pool=pool,
        )
        for seed in seeds
        for n_offers in offers_list
        for n_requests in requests_list
        for scheme in SCHEMES
    ]


def sweep_cell_count(
    base: ExperimentConfig,
    cell_counts: tuple[int, ...] = (400, 1600, 6400),
    seeds: tuple[int, ...] = (0, 1, 2),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """City-size sweep for the communication-overhead comparison."""
    sides = []
    for count in cell_counts:
        side = int(round(count ** 0.5))
        if side * side != count:
            raise ValueError(f"cell_count {count} is not a square grid")
        sides.append(side)
    pool = pool or ServicePool()
    return [
        run_experiment(replace(base, scheme="direct", rows=side, cols=side, seed=seed), pool=pool)
        for seed in seeds
        for side in sides
    ]


def sweep_time_bits(
    base: ExperimentConfig,
    values: tuple[int, ...] = (25, 50, 100, 200),
    seeds: tuple[int, ...] = (0, 1, 2),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Time-resolution sweep on a fixed workload per seed (transfer scheme)."""
    pool = pool or ServicePool()
    return [
        run_experiment(replace(base, scheme="transfer", seed=seed, time_bits=bits), pool=pool)
        for seed in seeds
        for bits in values
    ]


def sweep_request_prefixes(
    base: ExperimentConfig,
    counts: tuple[int, ...],
    seeds: tuple[int, ...] = (0,),
    pool: ServicePool | None = None,
) -> list[MetricsReport]:
    """Request-count sweep on prefixes of one request stream per seed."""
    pool = pool or ServicePool()
    return [
        run_experiment(replace(base, seed=seed, n_requests=count), pool=pool)
        for seed in seeds
        for count in counts
    ]

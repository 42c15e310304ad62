import csv
import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

import oracles
import support
from ridecloak import sim
from ridecloak.client import LoopbackTransport, ServiceClient, TokenError
from ridecloak.sim import ExperimentConfig, GridCity, ServicePool

SMALL_EXPERIMENT = ExperimentConfig(
    rows=8, cols=8, n_offers=6, n_requests=10, seed=0,
    filter_bits=320, n_hashes=4, id_bits=6, time_bits=4,
    route_len_range=(4, 8), align_slots=4,
)


@pytest.fixture(scope="module")
def pool():
    return ServicePool()


def test_grid_city_geometry():
    city = GridCity(4, 5)
    assert city.cell_count == 20
    assert city.diameter == 8
    assert city.cell_at(2, 3) == 13
    assert city.coords(13) == (2, 3)
    assert sorted(city.neighbors(0)) == [1, 5]
    assert sorted(city.neighbors(7)) == [2, 6, 8, 12]
    assert city.manhattan(0, 13) == 5
    path = city.path(0, 13)
    assert path[0] == 0 and path[-1] == 13
    assert len(path) == city.manhattan(0, 13) + 1
    assert all(city.manhattan(a, b) == 1 for a, b in zip(path, path[1:]))
    with pytest.raises(ValueError, match="4 cells"):
        GridCity(1, 2)


def test_random_route_properties():
    city = GridCity(6, 6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        route = sim.random_route(city, 7, rng)
        assert len(route) == 7
        assert len(set(route)) == 7
        assert all(city.manhattan(a, b) == 1 for a, b in zip(route, route[1:]))
    pinned = sim.random_route(city, 5, rng, start=14)
    assert pinned[0] == 14
    avoid = {c for c in range(36) if c % 6 == 0}
    dodged = sim.random_route(city, 4, rng, start=1, avoid=avoid)
    assert dodged[0] == 1
    assert not set(dodged) & avoid
    with pytest.raises(ValueError, match="diameter"):
        sim.random_route(city, 12, rng)
    with pytest.raises(ValueError, match="infeasible"):
        sim.random_route(city, 0, rng)


def test_identifier_permutation_properties():
    perm = sim.identifier_permutation(64, epoch=1, salt=9)
    assert sorted(perm.tolist()) == list(range(64))
    again = sim.identifier_permutation(64, epoch=1, salt=9)
    assert perm.tolist() == again.tolist()
    other_epoch = sim.identifier_permutation(64, epoch=2, salt=9)
    other_salt = sim.identifier_permutation(64, epoch=1, salt=10)
    assert perm.tolist() != other_epoch.tolist()
    assert perm.tolist() != other_salt.tolist()


def small_workload(seed=0, **kw):
    base = dict(hit_rate=0.8, transfer_rate=0.4, capacity=5, align_slots=4)
    base.update(kw)
    return sim.generate_workload(
        GridCity(8, 8), 6, 10, seed, (4, 8), 48, **base
    )


@pytest.mark.parametrize("n_offers, n_requests, digest", [
    (120, 200, "8fa9142147e2c4e427a5dd8f6d1d4c3730d71a5e790e51c5e72f30a1c7d6733f"),
    (400, 800, "c3895738a238b6c086f169c93a849b4c81f0926bb91869884cbe8af87fe5e3a7"),
    (150, 250, "8bfeb87b21ce9e45b9cc0257b9b650b23e81bce0d0b4a40c335d2fd6de99d4c3"),
], ids=["120x200", "400x800", "150x250"])
def test_generator_output_is_pinned(n_offers, n_requests, digest):
    """The trip counts of the benchmark workloads: a drifted default or constant shows here."""
    wl = sim.generate_workload(GridCity(40, 40), n_offers, n_requests, 701)
    assert hashlib.sha256(sim.workload_to_text(wl).encode()).hexdigest() == digest


def test_workload_generation_deterministic():
    a = sim.workload_to_text(small_workload(seed=4))
    b = sim.workload_to_text(small_workload(seed=4))
    c = sim.workload_to_text(small_workload(seed=5))
    assert a == b
    assert a != c


def test_workload_file_round_trip(tmp_path):
    wl = small_workload(seed=6)
    path = tmp_path / "wl.txt"
    sim.save_workload(str(path), wl)
    back = sim.load_workload(str(path))
    assert sim.workload_to_text(back) == sim.workload_to_text(wl)
    assert back.city == wl.city and back.seed == wl.seed
    assert len(back.offers) == 6 and len(back.requests) == 10


def test_fewer_requests_are_a_prefix_of_more():
    # request sweeps rely on it: each run regenerates its workload
    wl = small_workload(seed=7)
    cut = sim.generate_workload(
        GridCity(8, 8), 6, 3, 7, (4, 8), 48,
        hit_rate=0.8, transfer_rate=0.4, capacity=5, align_slots=4,
    )
    assert cut.offers == wl.offers
    assert cut.requests == wl.requests[:3]


def test_workload_text_errors():
    with pytest.raises(ValueError, match="unknown record"):
        sim.parse_workload("grid 4 4 seed=1\nbogus x y=1\n")
    with pytest.raises(ValueError, match="no grid line"):
        sim.parse_workload("# empty\n")


GRID_4 = "grid 4 4 seed=1\n"
OFFER_LINE = (
    "offer o1 cells=1,5,9,13 depart=33138.0 dwell=300.0 capacity=5 cases=area,route span=2\n"
)
REQUEST_LINE = (
    "request r1 pickup=1 dropoff=13 route=1,5,9,13 t_pick=33112.0 t_drop=33629.0 pref=min-cells\n"
)


@pytest.mark.parametrize("text, message", [
    ("grid 8 8 seed=1\noffer o1 cells=1,2,3 depart=100.0\n", "line 2: missing field 'dwell'"),
    ("grid 8 8 seed=1\nrequest r1 pickup=1 dropoff=2\n", "line 2: missing field 'route'"),
    ("grid 8 8\n", "line 1: not enough values"),
    ("# header\ngrid 8 8 seed\n", "line 2: list index out of range"),
    ("grid 8 8 seed=1\noffer o1 cells\n", "line 2: dictionary update sequence"),
    ("grid 8 8 seed=1\n\nrequest r1 pickup=one\n", "line 3: invalid literal"),
    (GRID_4 + OFFER_LINE.replace("cells=1,", "cells=16,"), "line 2: cell 16 is outside the 4x4 grid"),
    (GRID_4 + REQUEST_LINE.replace("pickup=1", "pickup=-3"), "line 2: cell -3 is outside"),
    (GRID_4 + REQUEST_LINE.replace("dropoff=13", "dropoff=99"), "line 2: cell 99 is outside"),
    (GRID_4 + REQUEST_LINE.replace("dropoff=13", "dropoff=-1"), "line 2: cell -1 is outside"),
    (GRID_4 + REQUEST_LINE.replace(",13 ", ",16 "), "line 2: cell 16 is outside"),
    (OFFER_LINE + GRID_4, "line 1: offer before the grid line"),
    ("# header\n" + REQUEST_LINE + GRID_4, "line 2: request before the grid line"),
    ("grid 8 8 seed=1\n" + GRID_4, "line 2: a second grid line"),
], ids=[
    "offer-field", "request-field", "grid-arity", "grid-seed", "bare-word", "bad-int",
    "offer-cell", "pickup-cell", "dropoff-cell", "negative-dropoff-cell", "route-cell",
    "offer-before-grid", "request-before-grid", "second-grid",
])
def test_workload_text_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=f"^workload {message}"):
        sim.parse_workload(text)


def test_truth_gate_matches_independent_oracle():
    wl = small_workload(seed=8)
    for o in wl.offers:
        ofacts = (
            o.pickup_cells, o.dropoff_cells, o.route, o.depart_seconds,
            o.capacity, tuple(c.value for c in o.cases),
        )
        for r in wl.requests:
            rfacts = (r.pickup, r.dropoff, r.route, r.pickup_seconds)
            got = sim.cell_truth_case(o, r, 48)
            want = oracles.truth_case(ofacts, rfacts, 48)
            assert (got.value if got else None) == want


def test_full_hit_rate_fills_every_request(pool):
    wl = small_workload(seed=9, hit_rate=1.0, transfer_rate=0.0, capacity=10, pickup_span=1)
    report = sim.run_experiment(SMALL_EXPERIMENT, workload=wl, pool=pool)
    assert report.success_rate == 1.0
    assert report.n_requests == 10


def test_zero_hit_rate_matches_nothing():
    wl = small_workload(seed=10, hit_rate=0.0)
    assert all(
        sim.cell_truth_case(o, r, 48) is None for o in wl.offers for r in wl.requests
    )
    report = sim.run_experiment(SMALL_EXPERIMENT, workload=wl, pool=ServicePool())
    assert report.fpp_events == 0
    assert report.success_rate == 0.0


def test_fpp_events_match_an_independent_summary_count():
    # narrow filters so the gate really does disagree with cell membership
    base = ExperimentConfig(
        rows=12, cols=12, n_offers=40, n_requests=150,
        filter_bits=48, n_hashes=1, id_bits=8, time_bits=4,
    )
    for seed in (0, 1):
        config = replace(base, seed=seed)
        pool = ServicePool()
        report = sim.run_experiment(config, pool=pool)
        server = pool.trio[0].server
        perm = sim.identifier_permutation(144, server.epoch, server.salt)
        wl = config.workload()
        want = 0
        for o in wl.offers:
            ofacts = (
                tuple(perm[list(o.pickup_cells)]), tuple(perm[list(o.dropoff_cells)]),
                tuple(perm[list(o.route)]), o.depart_seconds, o.capacity,
                tuple(c.value for c in o.cases),
            )
            for r in wl.requests:
                rfacts = (perm[r.pickup], perm[r.dropoff], tuple(perm[list(r.route)]), r.pickup_seconds)
                truth = oracles.truth_case(ofacts, rfacts, 48)
                gate = oracles.summary_case(
                    ofacts, rfacts, 48, 48, 1, server.epoch, server.salt
                )
                want += truth != gate
        assert want > 0
        assert report.fpp_events == want


def test_service_pool_keeps_the_last_service_only():
    pool = ServicePool()
    small = replace(SMALL_EXPERIMENT, n_offers=2, n_requests=2)
    service, driver, rider = pool.acquire(small)
    epoch = service.server.epoch
    again = pool.acquire(replace(small, scheme="transfer", n_requests=5))
    assert again[0] is service and again[1] is driver and again[2] is rider
    assert service.server.epoch == epoch + 1
    assert driver.registration.epoch == rider.registration.epoch == epoch + 1
    other = pool.acquire(replace(small, seed=1))[0]
    assert other is not service
    assert pool.trio[0] is other
    back = pool.acquire(small)[0]
    assert back is not service and back is not other
    assert back.server.epoch == epoch


def test_reports_deterministic_across_fresh_pools():
    for scheme in ("direct", "transfer"):
        config = replace(SMALL_EXPERIMENT, scheme=scheme, n_offers=4, n_requests=6)
        a = sim.run_experiment(config, pool=ServicePool())
        b = sim.run_experiment(config, pool=ServicePool())
        row_a, row_b = a.row(), b.row()
        row_a.pop("search_time_ms")
        row_b.pop("search_time_ms")
        assert row_a == row_b


PINNED_ROW = dict(
    rows=8, cols=8, cell_count=64, n_offers=6, n_requests=10, seed=0, filter_bits=320,
    n_hashes=4, time_bits=4, preference="min-cells", success_rate=0.9,
    vehicle_service_rate=1.5, fpp_events=0,
)


@pytest.mark.parametrize("scheme, bytes_per_offer, bytes_per_request", [
    ("direct", 64568.0, 64562.0),
    ("transfer", 13707.333333333334, 2107.0),
])
def test_experiment_csv_is_pinned(scheme, bytes_per_offer, bytes_per_request):
    """Every CSV column but the timing: a drifted submission path or byte count shows here."""
    row = sim.run_experiment(replace(SMALL_EXPERIMENT, scheme=scheme), pool=ServicePool()).row()
    row.pop("search_time_ms")
    assert row == dict(
        PINNED_ROW, scheme=scheme,
        bytes_per_offer=bytes_per_offer, bytes_per_request=bytes_per_request,
    )


@pytest.mark.parametrize("scheme, widths", [
    ("direct", dict(filter_bits=320)),
    ("direct", dict(filter_bits=128)),
    ("direct", dict(filter_bits=32, time_slots=96)),
    ("transfer", dict(id_bits=6, time_bits=4)),
    ("transfer", dict(id_bits=8, time_bits=9)),
], ids=["direct-320", "direct-128", "direct-32-slots-96", "transfer-w16", "transfer-w25"])
def test_submission_bytes_follow_the_size_formulas(pool, scheme, widths):
    """The sizes README "File formats" gives, with no contact (c = 0): a direct
    offer is 45 + 8 + k + 192*filter_bits + 64*time_slots B for k cases, a
    direct request 45 + 5 + 192*filter_bits + 64*time_slots B; with w =
    2*id_bits + time_bits, a transfer offer is 45 + 9 + 128*w*cells B and a
    transfer request 45 + 14 + 128*w B."""
    config = replace(SMALL_EXPERIMENT, scheme=scheme, **widths)
    wl = config.workload()
    report = sim.run_experiment(config, workload=wl, pool=pool)
    if scheme == "direct":
        blocks = 192 * config.filter_bits + 64 * config.time_slots
        offers = [45 + 8 + len(o.cases) + blocks for o in wl.offers]
        request = 45 + 5 + blocks
    else:
        w = 2 * config.id_bits + config.time_bits
        offers = [45 + 9 + 128 * w * len(o.route) for o in wl.offers]
        request = 45 + 14 + 128 * w
    assert report.bytes_per_offer == sum(offers) / len(offers)
    assert report.bytes_per_request == request


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_a_token_top_up_is_not_counted_as_submission_bytes(scheme):
    config = replace(SMALL_EXPERIMENT, scheme=scheme)
    fresh = sim.run_experiment(config, pool=ServicePool())
    pool = ServicePool()
    for client in pool.acquire(config)[1:]:
        del client.registration.tokens[1:]  # runs out after one trip
    drained = sim.run_experiment(config, pool=pool)
    assert drained.bytes_per_offer == fresh.bytes_per_offer
    assert drained.bytes_per_request == fresh.bytes_per_request


def test_submission_refuses_a_registration_without_tokens(small_service, monkeypatch):
    monkeypatch.setattr(small_service.config, "tokens_per_bundle", 0)
    driver = ServiceClient(LoopbackTransport(small_service))
    with pytest.raises(TokenError, match="registration gave no submission tokens"):
        sim.submit_offers(small_workload(), "direct", driver)


def test_summary_bytes_flat_while_full_vectors_grow(pool):
    base = replace(SMALL_EXPERIMENT, route_len_range=(3, 5), n_offers=4, n_requests=4)
    reports = [  # 16, 64 and 256 cells
        sim.run_experiment(replace(base, rows=side, cols=side), pool=pool) for side in (4, 8, 16)
    ]
    sizes = [r.bytes_per_offer for r in reports]
    assert max(sizes) - min(sizes) <= 0.01 * min(sizes)
    assert sim.ccrs_size_model(256) / sim.ccrs_size_model(16) == 16.0


def test_ccrs_size_model_values():
    assert sim.ccrs_size_model(1) == 256
    assert sim.ccrs_size_model(2) == 2 * sim.ccrs_size_model(1)
    assert sim.ccrs_size_model(6400) == 4 * 6400 * 64
    with pytest.raises(ValueError, match="cell_count"):
        sim.ccrs_size_model(0)


def test_transfer_service_rate_grows_with_requests(pool):
    base = replace(SMALL_EXPERIMENT, scheme="transfer", n_offers=5)
    reports = [
        sim.run_experiment(replace(base, n_requests=count), pool=pool) for count in (3, 6, 9, 12)
    ]
    rates = [r.vehicle_service_rate for r in reports]
    assert rates == sorted(rates)
    assert [r.n_requests for r in reports] == [3, 6, 9, 12]


def test_transfer_service_rate_falls_with_finer_time_slots(pool):
    base = replace(SMALL_EXPERIMENT, scheme="transfer", n_offers=6, n_requests=12)
    reports = [
        sim.run_experiment(replace(base, time_bits=bits), pool=pool) for bits in (4, 8, 16)
    ]
    rates = [r.vehicle_service_rate for r in reports]
    assert rates == sorted(rates, reverse=True)


def test_metrics_csv_round_trip(pool):
    report = sim.run_experiment(
        replace(SMALL_EXPERIMENT, n_offers=2, n_requests=2), pool=pool
    )
    text = support.metrics_csv_text([report])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "direct"
    assert int(rows[0]["cell_count"]) == 64
    assert set(rows[0]) == set(sim.CSV_FIELDS)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="scheme"):
        ExperimentConfig(scheme="carpool")
    with pytest.raises(ValueError, match="identifier bits"):
        ExperimentConfig(scheme="transfer", rows=40, cols=40, id_bits=6)
    # refused when built, before any run of a sweep starts
    with pytest.raises(ValueError, match="filter_bits must be in"):
        ExperimentConfig(filter_bits=1)
    with pytest.raises(ValueError, match="n_hashes 400 must be <= filter_bits 320"):
        replace(SMALL_EXPERIMENT, n_hashes=400)


def test_mean_success_filters(pool):
    reports = [
        sim.run_experiment(replace(SMALL_EXPERIMENT, n_offers=2, n_requests=2), pool=pool),
        sim.run_experiment(
            replace(SMALL_EXPERIMENT, scheme="transfer", n_offers=2, n_requests=2), pool=pool
        ),
    ]
    assert 0.0 <= support.mean_success(reports, scheme="direct") <= 1.0
    with pytest.raises(ValueError, match="no reports"):
        support.mean_success(reports, scheme="direct", n_offers=99)


def test_generate_workload_validation():
    city = GridCity(8, 8)
    with pytest.raises(ValueError, match="diameter"):
        sim.generate_workload(city, 2, 2, 0, (4, 30), 48)
    with pytest.raises(ValueError, match="route length range"):
        sim.generate_workload(city, 2, 2, 0, (5, 4), 48)
    with pytest.raises(ValueError, match="rates"):
        sim.generate_workload(city, 2, 2, 0, (4, 6), 48, hit_rate=1.5)

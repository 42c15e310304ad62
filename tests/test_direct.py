import numpy as np
import pytest

import oracles
import support
from support import admit_pools
from ridecloak import bloom, direct
from ridecloak.direct import MatchCase, OfferSpec, RequestSpec


def slot_time(slot: int) -> float:
    """Center of a day slot under the 48-slot default."""
    return slot * 1800.0 + 900.0


def offer_spec(**kw) -> OfferSpec:
    base = dict(
        offer_id="o1",
        pickup_cells=(1, 2, 3),
        dropoff_cells=(9,),
        route_cells=(3, 4, 5, 6, 9),
        depart_seconds=slot_time(10),
        capacity=2,
    )
    base.update(kw)
    return OfferSpec(**base)


def request_spec(**kw) -> RequestSpec:
    base = dict(
        request_id="r1",
        pickup_cell=2,
        dropoff_cell=9,
        route_cells=(2, 5, 9),
        pickup_seconds=slot_time(10),
    )
    base.update(kw)
    return RequestSpec(**base)


def admitted_case(env, offer, request):
    """Case of a one-pair round over pools that admitted one masked offer and request."""
    matches = direct.match_all(*admit_pools(env, [offer], [request]), env.cfg.n_hashes)
    return matches[0].case if matches else None


def pair_case(env, ospec, rspec):
    rng = np.random.default_rng(1234)
    offer = direct.build_offers([ospec], *env.driver, env.cfg, rng)[0]
    request = direct.build_requests([rspec], *env.rider, env.cfg, rng)[0]
    return admitted_case(env, offer, request)


def test_matching_pair_selects_area_case(direct_env):
    assert pair_case(direct_env, offer_spec(), request_spec()) is MatchCase.AREA


def test_time_gate_blocks_other_slots(direct_env):
    late = request_spec(pickup_seconds=slot_time(11))
    assert pair_case(direct_env, offer_spec(), late) is None


def test_pickup_gate_requires_area_hit(direct_env):
    outside = request_spec(pickup_cell=30)
    assert pair_case(direct_env, offer_spec(), outside) is None


def test_route_case_when_dropoff_on_route(direct_env):
    rspec = request_spec(dropoff_cell=5, route_cells=(2, 4, 5))
    assert pair_case(direct_env, offer_spec(), rspec) is MatchCase.ROUTE


def test_extended_case_when_driver_dropoff_on_rider_route(direct_env):
    rspec = request_spec(dropoff_cell=22, route_cells=(2, 9, 22))
    assert pair_case(direct_env, offer_spec(), rspec) is MatchCase.EXTENDED


def test_cases_checked_in_declared_order(direct_env):
    rspec = request_spec(dropoff_cell=9, route_cells=(2, 9))
    both = offer_spec(dropoff_cells=(9,), route_cells=(3, 9, 5))
    ordered = offer_spec(
        dropoff_cells=(9,), route_cells=(3, 9, 5), cases=(MatchCase.ROUTE, MatchCase.AREA)
    )
    assert pair_case(direct_env, both, rspec) is MatchCase.AREA
    assert pair_case(direct_env, ordered, rspec) is MatchCase.ROUTE


def test_unaccepted_cases_do_not_match(direct_env):
    rspec = request_spec(dropoff_cell=5, route_cells=(2, 5))
    area_only = offer_spec(cases=(MatchCase.AREA,))
    assert pair_case(direct_env, area_only, rspec) is None


def test_degenerate_same_pickup_and_dropoff(direct_env):
    rspec = request_spec(pickup_cell=3, dropoff_cell=3, route_cells=(3,))
    onto_route = offer_spec(cases=(MatchCase.ROUTE,))
    assert pair_case(direct_env, onto_route, rspec) is MatchCase.ROUTE


def test_fresh_ciphertexts_same_outcome(direct_env):
    env = direct_env
    rng = np.random.default_rng(5)
    a = direct.build_offers([offer_spec()], *env.driver, env.cfg, rng)[0]
    b = direct.build_offers([offer_spec()], *env.driver, env.cfg, rng)[0]
    assert not np.array_equal(a.pickup.parts, b.pickup.parts)
    request = direct.build_requests([request_spec()], *env.rider, env.cfg, rng)[0]
    for offer in (a, b):
        assert admitted_case(env, offer, request) is MatchCase.AREA


def test_match_all_respects_capacity_and_order(direct_env):
    env = direct_env
    rng = np.random.default_rng(6)
    offers = direct.build_offers(
        [
            offer_spec(offer_id="first", capacity=1),
            offer_spec(offer_id="second", capacity=2),
        ],
        *env.driver, env.cfg, rng,
    )
    requests = direct.build_requests(
        [request_spec(request_id=f"r{i}") for i in range(4)],
        *env.rider, env.cfg, rng,
    )
    got = direct.match_all(*admit_pools(env, offers, requests), env.cfg.n_hashes)
    assert [(m.request_id, m.offer_id) for m in got] == [
        ("r0", "first"),
        ("r1", "second"),
        ("r2", "second"),
    ]
    assert all(m.case is MatchCase.AREA for m in got)


def test_match_all_empty_inputs(direct_env):
    assert direct.match_all(*admit_pools(direct_env, [], []), 4) == []
    with pytest.raises(TypeError, match="OfferPool"):
        direct.match_all([], [], 4)


def test_build_validation(direct_env):
    env = direct_env
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="case"):
        direct.build_offers([offer_spec(cases=())], *env.driver, env.cfg, rng)
    with pytest.raises(ValueError, match="capacity"):
        direct.build_offers([offer_spec(capacity=0)], *env.driver, env.cfg, rng)
    with pytest.raises(ValueError, match="max_items"):
        direct.build_offers(
            [offer_spec(route_cells=tuple(range(100, 200)))], *env.driver, env.cfg, rng
        )
    with pytest.raises(ValueError, match="nonempty"):
        direct.build_offers([offer_spec(pickup_cells=())], *env.driver, env.cfg, rng)
    with pytest.raises(ValueError, match="driver"):
        direct.build_offers([offer_spec()], *env.rider, env.cfg, rng)
    with pytest.raises(ValueError, match="rider"):
        direct.build_requests([request_spec()], *env.driver, env.cfg, rng)


def random_scenario(seed, n_offers=6, n_requests=14, universe=40):
    rng = np.random.default_rng(seed)
    offers = []
    for i in range(n_offers):
        route = tuple(int(c) for c in rng.choice(universe, size=rng.integers(4, 9), replace=False))
        pickup = tuple(sorted(set(route[:2]) | {int(c) for c in rng.choice(universe, 2)}))
        facts = (
            pickup,
            (route[-1],),
            route,
            slot_time(int(rng.integers(8, 12))),
            int(rng.integers(1, 4)),
            ("area", "route", "extended"),
        )
        offers.append((f"o{i}", facts))
    requests = []
    for i in range(n_requests):
        route = tuple(int(c) for c in rng.choice(universe, size=rng.integers(3, 7), replace=False))
        if i % 2 == 0:
            # echo a driver's trip so every scenario has genuine hits
            _, target = offers[int(rng.integers(0, n_offers))]
            facts = (
                int(rng.choice(target[0])),
                target[1][0],
                route + target[1],
                target[3],
            )
        else:
            facts = (
                int(rng.choice(universe)),
                route[-1],
                route,
                slot_time(int(rng.integers(8, 12))),
            )
        requests.append((f"r{i}", facts))
    return offers, requests


def encrypt_scenario(env, offers, requests):
    rng = np.random.default_rng(99)
    ospecs = [
        OfferSpec(oid, f[0], f[1], f[2], f[3], f[4], tuple(MatchCase(c) for c in f[5]))
        for oid, f in offers
    ]
    rspecs = [RequestSpec(rid, f[0], f[1], f[2], f[3]) for rid, f in requests]
    built_o = direct.build_offers(ospecs, *env.driver, env.cfg, rng)
    built_r = direct.build_requests(rspecs, *env.rider, env.cfg, rng)
    return built_o, built_r


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_match_all_agrees_with_plain_oracle(direct_env, seed):
    """End-to-end equality against the plain-set greedy oracle."""
    env = direct_env
    offers, requests = random_scenario(seed)
    built_o, built_r = encrypt_scenario(env, offers, requests)
    got = [
        (m.request_id, m.offer_id, m.case.value)
        for m in direct.match_all(*admit_pools(env, built_o, built_r), env.cfg.n_hashes)
    ]
    gate = lambda o, r: oracles.summary_case(
        o, r, env.cfg.time_slots, env.cfg.bits, env.cfg.n_hashes, env.cfg.epoch, env.cfg.salt
    )
    assert got == oracles.greedy_assign(offers, requests, gate)
    assert got, "scenario should produce at least one match"


def test_pair_gate_agrees_with_summary_oracle(direct_env):
    """Per-pair case equality, including pairs the greedy pass never reaches."""
    env = direct_env
    offers, requests = random_scenario(7, n_offers=4, n_requests=8)
    built_o, built_r = encrypt_scenario(env, offers, requests)
    for (oid, ofacts), built_offer in zip(offers, built_o):
        for (rid, rfacts), built_request in zip(requests, built_r):
            got = admitted_case(env, built_offer, built_request)
            want = oracles.summary_case(
                ofacts, rfacts, env.cfg.time_slots, env.cfg.bits,
                env.cfg.n_hashes, env.cfg.epoch, env.cfg.salt,
            )
            assert (got.value if got else None) == want


def test_time_index_reveals_only_slot_equality_at_the_slot_width():
    """The time index at its own 48-wide key sets, one fresh set-up per case: a
    driver's and a rider's masked slot vectors multiply to nothing like the slot
    equality (as criterion 8(c) checks filters at width 64), and unmasked they
    give exactly it."""
    slots, agreements, exact = 48, 0, 0
    for i in range(100):
        env = support.make_crypto_env(slots, 7000 + i)
        rng = np.random.default_rng(i)
        depart = float(rng.uniform(0, 86400))
        pickup = depart if i % 2 else float(rng.uniform(0, 86400))
        equal = float(bloom.slot_index(depart, slots) == bloom.slot_index(pickup, slots))
        offer = support.encrypt_index(bloom.slot_vector(depart, slots), env.driver, rng)
        request = support.encrypt_index(bloom.slot_vector(pickup, slots), env.rider, rng)
        raw = float(np.sum(request.parts * offer.parts))
        agreements += abs(raw - equal) <= 1e-3
        unmasked = support.match_similarity(
            support.unmask_index(request, env.secrets, "rider"),
            support.unmask_index(offer, env.secrets, "driver"),
        )
        exact += abs(unmasked - equal) <= 1e-3
    assert agreements == 0
    assert exact == 100

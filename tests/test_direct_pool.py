"""The columnar direct-offer/request pools against the object-list matcher."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from support import SMALL_CONFIG, admit_pools, unmask_direct
from ridecloak import direct, kernels, protocol
from ridecloak.client import LoopbackTransport, ServiceClient
from ridecloak.direct import MatchCase, OfferSpec, RequestSpec
from ridecloak.protocol import DirectNotification, MsgType
from ridecloak.service import DirectMatchRecord, RideService, ServiceConfig

from test_direct import encrypt_scenario, random_scenario, slot_time


class RecordingTransport(LoopbackTransport):
    """Loopback transport that logs every accepted submission, in arrival order."""

    def __init__(self, service, log):
        super().__init__(service)
        self.log = log

    def request(self, data):
        answer = super().request(data)
        sent, _ = protocol.decode_frame(data)
        if sent.msg_type in (MsgType.SUBMIT_OFFER, MsgType.SUBMIT_REQUEST) \
                and answer.msg_type is sent.msg_type:
            self.log.append((sent.msg_type, protocol.decode_ack(answer.payload), sent.payload))
        return answer


class ReferenceServer:
    """Direct-scheme server state as objects, matched by the reference greedy."""

    def __init__(self, secrets, config):
        self.secrets = secrets
        self.n_hashes = config.n_hashes
        self.widths = config.widths
        self.rotate()

    def rotate(self):
        self.offers = {}  # id -> unmasked DirectOffer, arrival order
        self.seats = {}
        self.requests = {}  # pending id -> unmasked DirectRequest, arrival order

    def unmask(self, indexes, role):
        return unmask_direct(indexes, self.secrets, role)

    def ingest(self, log):
        for msg_type, item_id, payload in log:
            if msg_type is MsgType.SUBMIT_OFFER:
                p = protocol.decode_submit_offer(payload, self.widths)
                self.offers[item_id] = direct.DirectOffer(
                    item_id, p.capacity, p.cases, *self.unmask(p.indexes(), "driver"), p.contact
                )
                self.seats[item_id] = p.capacity
            else:
                p = protocol.decode_submit_request(payload, self.widths)
                self.requests[item_id] = direct.DirectRequest(
                    item_id, *self.unmask(p.indexes(), "rider"), p.contact
                )
        log.clear()

    def round(self):
        """(records, notifications) the old server produced for this round."""
        offers = [
            replace(o, capacity=self.seats[oid])
            for oid, o in self.offers.items() if self.seats[oid] > 0
        ]
        matches = oracles.direct_greedy_reference(
            offers, list(self.requests.values()), self.n_hashes
        )
        records, notes = [], {}
        for rid, oid, case in matches:
            request = self.requests.pop(rid)
            self.seats[oid] -= 1
            notes.setdefault(rid, []).append(
                DirectNotification(rid, oid, case, self.offers[oid].contact))
            notes.setdefault(oid, []).append(
                DirectNotification(oid, rid, case, request.contact))
            records.append(DirectMatchRecord(rid, oid, case))
        return records, notes


def offer_batch(rng, tag, n=8, universe=40):
    """Offers with one or two seats and shuffled case orders."""
    offers = []
    for i in range(n):
        route = tuple(int(c) for c in rng.choice(universe, size=rng.integers(4, 8), replace=False))
        pickup = tuple(sorted(set(route[:2]) | {int(rng.integers(universe))}))
        cases = tuple(rng.permutation(list(MatchCase))[: rng.integers(1, 4)])
        offers.append(OfferSpec(
            "", pickup, (route[-1],), route, slot_time(int(rng.integers(8, 11))),
            int(rng.integers(1, 3)), cases, contact=f"o{tag}.{i}".encode(),
        ))
    return offers


def request_batch(rng, targets, tag, n=14, universe=40):
    """Half the requests echo one of `targets`, which may not have arrived yet."""
    requests = []
    for i in range(n):
        route = tuple(int(c) for c in rng.choice(universe, size=rng.integers(3, 6), replace=False))
        if i % 2 == 0:
            target = targets[int(rng.integers(len(targets)))]
            drop = int(rng.choice(target.dropoff_cells + target.route_cells))
            spec = RequestSpec(
                "", int(rng.choice(target.pickup_cells)), drop, route + target.dropoff_cells,
                target.depart_seconds,
            )
        else:
            spec = RequestSpec(
                "", int(rng.integers(universe)), route[-1], route,
                slot_time(int(rng.integers(8, 11))),
            )
        requests.append(replace(spec, contact=f"r{tag}.{i}".encode()))
    return requests


def rows_out_of_arrival_order(pool):
    live = np.flatnonzero(pool.live)
    return bool(np.any(np.diff(pool.seq[live]) < 0))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_pooled_rounds_equal_object_list_reference(seed):
    """Round by round: same records and notifications as the old object-list server."""
    svc = RideService(ServiceConfig(**SMALL_CONFIG, tokens_per_bundle=512), seed=seed)
    log = []
    driver = ServiceClient(RecordingTransport(svc, log), rng=10 + seed)
    rider = ServiceClient(RecordingTransport(svc, log), rng=20 + seed)
    driver.register("driver")
    rider.register("rider")
    srv = svc.server
    ref = ReferenceServer(svc.server.secrets, svc.config)
    rng = np.random.default_rng(seed)
    seen = dict(carried=False, exhausted=False, reused=False, grown=False)
    for round_no in range(6):
        if round_no % 3 == 0:  # a new epoch every three rounds
            if round_no:
                svc.rotate_epoch()
                for client in (driver, rider):
                    client.sync_epoch()
                ref.rotate()
            batches = [offer_batch(rng, f"{round_no + k}") for k in range(3)]
        carried = set(ref.requests)
        driver.submit_direct_offers(batches[round_no % 3])
        rider.submit_direct_requests(request_batch(rng, sum(batches, []), round_no))
        ref.ingest(log)
        seen["reused"] |= rows_out_of_arrival_order(srv.request_pool)

        want_records, want_notes = ref.round()
        assert svc.run_matching() == want_records
        assert srv.notifications == want_notes
        for rid in want_notes:
            (driver if rid in ref.offers else rider).poll([rid])
        assert srv.notifications == {}
        assert set(srv.direct_requests) == set(ref.requests)
        assert srv.direct_remaining == ref.seats

        seen["carried"] |= any(r.request_id in carried for r in want_records)
        seen["exhausted"] |= 0 in ref.seats.values()
        seen["grown"] |= min(len(srv.offer_pool.live), len(srv.request_pool.live)) > direct.POOL_ROWS
    assert seen == dict(carried=True, exhausted=True, reused=True, grown=True)


def test_case_similarities_only_for_gated_open_pairs(direct_env, monkeypatch):
    """Drop-off cases are scored only for live requests, offers with seats, and
    pairs that pass the time and pick-up gates."""
    env = direct_env
    offers, requests = random_scenario(11, n_offers=8, n_requests=16)
    built_o, built_r = encrypt_scenario(env, offers, requests)
    offer_pool, request_pool = admit_pools(env, built_o, built_r)
    open_o, open_r = set(range(len(offers))), set(range(len(requests)))
    gated = [
        (i, j) for i, (_, rf) in enumerate(requests) for j, (_, of) in enumerate(offers)
        if oracles.summary_gates(of, rf, env.params.time_slots, env.params.filter_bits,
                                 env.params.n_hashes, env.epoch, env.salt)
    ]
    # close one offer that passes some gates and free one request row that does
    i0, j0 = gated[0]
    offer_pool.remaining[j0] = 0
    open_o.discard(j0)
    i1 = next(i for i, j in gated if j != j0)
    request_pool.release(i1)
    open_r.discard(i1)

    scored = []
    real = kernels.paired_dots
    monkeypatch.setattr(kernels, "paired_dots", lambda a, b: scored.append(len(a)) or real(a, b))
    direct.match_all(offer_pool, request_pool, env.params.n_hashes)
    want = sum(1 for i, j in gated if i in open_r and j in open_o)
    assert want < len(gated)
    assert scored == [want] * 3


def test_pool_growth_and_row_reuse(direct_env):
    env = direct_env
    _, requests = random_scenario(3, n_offers=2, n_requests=5)
    _, built_r = encrypt_scenario(env, [], requests)
    pool = direct.RequestPool(env.dims, rows=2)
    for k, request in enumerate(built_r):
        assert pool.admit(request.indexes(), env.secrets, request.request_id) == k
    assert len(pool.live) == 8 and pool.used == 5 and len(pool) == 5
    for k, request in enumerate(built_r):
        got = pool.row_parts(k)
        want = unmask_direct(request.indexes(), env.secrets, "rider")
        assert all(np.array_equal(a, b.parts) for a, b in zip(got, want))
    pool.release(1)
    assert len(pool) == 4 and pool.admit(built_r[0].indexes(), env.secrets, "late") == 1
    assert pool.ids[1] == "late" and pool.seq[1] > pool.seq[4] and pool.used == 5


def pool_state(pool):
    return (
        pool.used, pool.live.tobytes(), list(pool.ids), list(pool._free),
        [m.tobytes() for m in pool.kinds],
    )


def test_pool_rejects_bad_submissions_without_state_change(direct_env):
    """A rejected submission neither writes a row, nor takes a free one, nor grows the pool."""
    env = direct_env
    offers, requests = random_scenario(5, n_offers=3, n_requests=3)
    built_o, built_r = encrypt_scenario(env, offers, requests)
    offer_pool = direct.OfferPool(env.dims, rows=2)
    request_pool = direct.RequestPool(env.dims, rows=2)
    for o, r in zip(built_o[:2], built_r[:2]):  # both pools full: one more row would grow them
        offer_pool.admit(o.indexes(), env.secrets, o.offer_id, o.capacity, o.cases)
        request_pool.admit(r.indexes(), env.secrets, r.request_id)
    admits = [
        (offer_pool, built_o[2].indexes(),
         lambda ix: offer_pool.admit(ix, env.secrets, "bad", 1, direct.DEFAULT_CASES)),
        (request_pool, built_r[2].indexes(),
         lambda ix: request_pool.admit(ix, env.secrets, "bad")),
    ]
    for free_row in (False, True):
        if free_row:
            request_pool.release(0)
        for pool, good, admit in admits:
            bad = {
                "wrong width": [replace(ix, parts=ix.parts[:, :-1]) for ix in good],
                "filter-width time index": [*good[:3], good[0]],
                "three indexes": good[:3],
                "overflowing parts": [replace(ix, parts=np.full_like(ix.parts, 1e308)) for ix in good],
            }
            for name, indexes in bad.items():
                before = pool_state(pool)
                with pytest.raises(ValueError):
                    admit(indexes)
                assert pool_state(pool) == before, name
    assert request_pool.admit(built_r[2].indexes(), env.secrets, "late") == 0


def test_rotation_zeroes_both_pools(small_service):
    from test_service import OFFER, REQUEST, make_clients

    driver, rider = make_clients(small_service)
    driver.submit_direct_offers([OFFER] * 3)
    rider.submit_direct_requests([REQUEST] * 5)
    assert len(small_service.run_matching()) == 5  # frees request rows, stale data kept
    rider.submit_direct_requests([REQUEST] * 2)
    srv = small_service.server
    used = {name: getattr(srv, name).used for name in ("offer_pool", "request_pool")}
    assert used == {"offer_pool": 3, "request_pool": 5}
    assert srv.request_pool.kinds[0][: used["request_pool"]].any()

    small_service.rotate_epoch()
    for name, n in used.items():
        pool = getattr(srv, name)
        assert not pool.live.any() and len(pool) == 0 and pool.used == 0
        assert not any(m[:n].any() for m in pool.kinds)
    assert not srv.offer_pool.remaining.any()

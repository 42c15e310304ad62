import dataclasses
import math
import socket
import struct
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import support
from support import SMALL_CONFIG
from ridecloak import crypto, direct, protocol, service, transfer
from ridecloak.client import (
    LoopbackTransport,
    ServerError,
    ServiceClient,
    SocketTransport,
    TokenError,
)
from ridecloak.direct import DirectOffer, DirectRequest, MatchCase, OfferSpec, RequestSpec
from ridecloak.protocol import ErrorCode, MsgType, ProtocolError
from ridecloak.service import RideService, ServiceConfig, SocketServer
from ridecloak.sim import ExperimentConfig


def slot_time(slot: int) -> float:
    return slot * 1800.0 + 900.0


def make_clients(svc, roles=("driver", "rider")):
    out = []
    for i, role in enumerate(roles):
        client = ServiceClient(LoopbackTransport(svc), rng=100 + i)
        client.register(role)
        out.append(client)
    return out


OFFER = OfferSpec(
    offer_id="", pickup_cells=(1, 2, 3), dropoff_cells=(9,),
    route_cells=(3, 4, 5, 9), depart_seconds=slot_time(10),
    capacity=2, contact=b"driver-box",
)
REQUEST = RequestSpec(
    request_id="", pickup_cell=2, dropoff_cell=9,
    route_cells=(2, 5, 9), pickup_seconds=slot_time(10), contact=b"rider-box",
)


def test_secret_matrices_are_inverted_once(monkeypatch):
    """Only set-up's conditioning checks invert; a registration inverts nothing."""
    counts = {"inv": 0, "checks": 0}
    inv, check = np.linalg.inv, crypto._well_conditioned

    def counting_inv(mat):
        counts["inv"] += 1
        return inv(mat)

    def counting_check(mat):
        counts["checks"] += 1
        return check(mat)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(crypto, "_well_conditioned", counting_check)
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=11)
    # three schemes, each drawing two blends, eight mask parts and two server masks
    assert counts == {"inv": 3 * 12, "checks": 3 * 12}
    for role in ("driver", "rider", "driver"):
        counts.update(inv=0, checks=0)
        svc.authority.register(role, svc.server.epoch, svc.server.salt)
        assert counts["inv"] == counts["checks"] == 0


def test_register_roles_and_key_shapes(small_service):
    driver, rider = make_clients(small_service)
    assert set(driver.registration.keysets) == {
        ("direct", "driver"), ("transfer", "driver"), ("transfer", "rider"), ("time", "driver"),
    }
    assert set(rider.registration.keysets) == {("direct", "rider"), ("transfer", "rider"), ("time", "rider")}
    assert driver.registration.keysets["direct", "driver"].dim == SMALL_CONFIG["filter_bits"]
    for client, role in ((driver, "driver"), (rider, "rider")):
        time_keys = client.registration.keysets["time", role]
        assert (time_keys.dim, time_keys.role) == (SMALL_CONFIG["time_slots"], role)
    cell_bits = 2 * SMALL_CONFIG["id_bits"] + SMALL_CONFIG["time_bits"]
    assert driver.registration.keysets["transfer", "driver"].dim == cell_bits
    assert driver.registration.keysets["transfer", "driver"].role == "driver"
    assert driver.registration.keysets["transfer", "rider"].role == "rider"
    assert len(driver.registration.tokens) == small_service.config.tokens_per_bundle
    # unknown role byte, past the client-side enum
    frame = protocol.encode_frame(MsgType.REGISTER_USER, 1, protocol.ZERO_TOKEN, b"\x09")
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, _ = protocol.decode_error(reply.payload)
    assert code is ErrorCode.MALFORMED


def bundle_formula_bytes(config, role):
    """A KEY_BUNDLE reply's size as README "File formats" gives it: with T
    tokens, 88 + 32*T + sum(64*d^2 + ⌈d/8⌉*8) B over the widths d of the
    role's key sets, F = filter_bits, W = 2*id_bits + time_bits and
    S = time_slots: (F, W, W, S) for a driver, (F, W, S) for a rider."""
    f, w, s = config.filter_bits, 2 * config.id_bits + config.time_bits, config.time_slots
    dims = (f, w, w, s) if role == "driver" else (f, w, s)
    return 88 + 32 * config.tokens_per_bundle + sum(64 * d * d + math.ceil(d / 8) * 8 for d in dims)


@pytest.mark.parametrize("widths", [
    SMALL_CONFIG,
    dict(filter_bits=64, n_hashes=3, id_bits=5, time_bits=7, time_slots=24,
         max_items=20, tokens_per_bundle=5),
], ids=["small", "narrow"])
def test_key_bundle_size_follows_the_formula(widths):
    config = ServiceConfig(**widths)
    svc = RideService(config, seed=8)
    for role in ("driver", "rider"):
        client = ServiceClient(LoopbackTransport(svc), rng=1)
        client.register(role)
        assert client.transport.received_bytes == bundle_formula_bytes(config, role)
        payload = protocol.key_bundle_size(role, config, config.tokens_per_bundle)
        assert client.transport.received_bytes == protocol.HEADER_SIZE + payload


def test_register_refuses_an_unknown_role_before_sending(small_service):
    transport = LoopbackTransport(small_service)
    with pytest.raises(ValueError, match="role must be 'driver' or 'rider', got 'admin'"):
        ServiceClient(transport).register("admin")
    assert transport.sent_bytes == 0


def test_sync_epoch_refuses_an_unregistered_client_before_sending(small_service):
    transport = LoopbackTransport(small_service)
    with pytest.raises(RuntimeError, match="not registered"):
        ServiceClient(transport).sync_epoch()
    assert transport.sent_bytes == 0


def test_two_registrations_get_distinct_keys(small_service):
    a, b = make_clients(small_service, roles=("driver", "driver"))
    ka = a.registration.keysets["direct", "driver"].parts[0]
    kb = b.registration.keysets["direct", "driver"].parts[0]
    assert not np.array_equal(ka, kb)
    assert not set(a.registration.tokens) & set(b.registration.tokens)


def test_registering_again_drops_the_old_mask_stock(small_service):
    """Each registration holds its own masks, drawn as its key sets first encrypt."""
    driver, = make_clients(small_service, roles=("driver",))
    first = driver.registration
    assert first.masks.stocks == {} and first.masks.rng is driver.rng
    driver.submit_direct_offer(OFFER)
    held = {keys.dim: len(masks) for keys, masks in first.masks.stocks.items()}
    assert set(first.masks.stocks) == {first.keysets["direct", "driver"], first.keysets["time", "driver"]}
    assert held == {320: 320 // 8 - 3, 48: 48 // 8 - 1}
    second = driver.register("driver")
    assert second.masks is not first.masks and second.masks.stocks == {}
    driver.submit_direct_offer(OFFER)
    assert set(second.masks.stocks) == {second.keysets["direct", "driver"], second.keysets["time", "driver"]}


def test_direct_end_to_end_loopback(small_service):
    driver, rider = make_clients(small_service)
    offer_id = driver.submit_direct_offer(OFFER)
    request_id = rider.submit_direct_request(REQUEST)
    records = small_service.run_matching()
    assert [(r.request_id, r.offer_id) for r in records] == [(request_id, offer_id)]

    notes = rider.poll([request_id])
    assert len(notes) == 1
    assert notes[0].peer_id == offer_id
    assert notes[0].case is MatchCase.AREA
    assert notes[0].peer_contact == b"driver-box"

    driver_notes = driver.poll([offer_id])
    assert len(driver_notes) == 1
    assert driver_notes[0].peer_id == request_id
    assert driver_notes[0].peer_contact == b"rider-box"

    assert rider.poll([request_id]) == []  # polling clears the queue


def test_a_poll_replies_with_at_most_a_u16_count_and_keeps_the_rest(small_service):
    """70,000 queued notes come back in queue order over two polls; none is lost."""
    (rider,) = make_clients(small_service, roles=("rider",))
    server = small_service.server
    queued = [
        protocol.DirectNotification(sid, f"o{i}", MatchCase.AREA, b"")
        for sid, count in (("r1", 35_000), ("r2", 35_000))
        for i in range(count)
    ]
    for note in queued:
        server._queue(note)
    first = rider.poll(["r1", "r2"])
    assert len(first) == 0xFFFF
    second = rider.poll(["r1", "r2"])
    assert first + second == queued
    assert server.notifications == {}


def test_matched_request_leaves_pending_pool(small_service):
    driver, rider = make_clients(small_service)
    driver.submit_direct_offer(OFFER)
    rid = rider.submit_direct_request(REQUEST)
    assert rid in small_service.server.direct_requests
    small_service.run_matching()
    assert rid not in small_service.server.direct_requests
    assert small_service.run_matching() == []  # nothing left to match


def test_match_threshold_triggers_matching(tmp_path):
    svc = RideService(ServiceConfig(**SMALL_CONFIG, match_threshold=1), seed=3)
    driver, rider = make_clients(svc)
    offer_id = driver.submit_direct_offer(OFFER)
    request_id = rider.submit_direct_request(REQUEST)
    # no explicit run_matching: the submission crossed the threshold
    assert rider.poll([request_id])[0].peer_id == offer_id


def zero_trip_indexes(client, role, dim=None):
    """A direct trip's four indexes of all-zero vectors under `client`'s keys;
    with `dim`, the three filters are of that width, under foreign keys."""
    rng = np.random.default_rng(55)
    keys = client.registration.keysets["direct", role]
    time_keys = client.registration.keysets["time", role]
    if dim is not None:
        derivers, _ = crypto.generate_keys({"direct": dim}, rng)
        keys = derivers["direct"].derive(role, rng)
    idx = support.encrypt_index(np.zeros(keys.dim), keys, rng)
    return [idx] * 3 + [support.encrypt_index(np.zeros(time_keys.dim), time_keys, rng)]


def offer_frame(driver, token, dim=None, epoch=None):
    """Hand-built SUBMIT_OFFER frame, bypassing client-side validation."""
    indexes = zero_trip_indexes(driver, "driver", dim)
    return protocol.encode_frame(
        MsgType.SUBMIT_OFFER,
        driver.registration.epoch if epoch is None else epoch,
        token,
        protocol.encode_submit_offer(DirectOffer("", 1, (MatchCase.AREA,), *indexes)),
    )


def error_code(reply_bytes):
    reply, _ = protocol.decode_frame(reply_bytes)
    assert reply.msg_type is MsgType.ERROR
    code, _ = protocol.decode_error(reply.payload)
    return code


def test_token_replay_rejected(small_service):
    driver, _ = make_clients(small_service)
    token = driver.registration.tokens[-1]
    assert driver.submit_direct_offer(OFFER)  # consumes that token
    replayed = offer_frame(driver, token)
    assert error_code(small_service.dispatch(replayed)) is ErrorCode.BAD_TOKEN


def test_failed_submission_keeps_token(small_service):
    driver, _ = make_clients(small_service)
    token = driver.registration.tokens.pop()
    bad = offer_frame(driver, token, dim=64)
    assert error_code(small_service.dispatch(bad)) is ErrorCode.BAD_DIMENSION
    # the rejected frame never consumed the token
    good = offer_frame(driver, token)
    reply, _ = protocol.decode_frame(small_service.dispatch(good))
    assert reply.msg_type is MsgType.SUBMIT_OFFER
    assert protocol.decode_ack(reply.payload)


def test_out_of_tokens(small_service):
    driver, rider = make_clients(small_service)
    # a batch larger than the tokens held is refused whole, before anything is encrypted or sent
    for client, submit, spec in (
        (driver, driver.submit_direct_offers, OFFER),
        (rider, rider.submit_direct_requests, REQUEST),
    ):
        del client.registration.tokens[2:]
        tokens, draws = list(client.registration.tokens), client.rng.bit_generator.state
        before, sent = server_state(small_service), client.transport.sent_bytes
        with pytest.raises(TokenError, match="2 tokens held, 3 needed"):
            submit([spec] * 3)
        assert client.registration.tokens == tokens and client.rng.bit_generator.state == draws
        assert server_state(small_service) == before and client.transport.sent_bytes == sent
        assert len(submit([spec] * 2)) == 2 and client.registration.tokens == []
    with pytest.raises(TokenError, match="tokens"):
        driver.submit_direct_offer(OFFER)


def test_unencodable_offers_keep_tokens(small_service):
    driver, _ = make_clients(small_service)
    tokens = len(driver.registration.tokens)
    before = server_state(small_service)
    with pytest.raises(ProtocolError) as direct_exc:
        driver.submit_direct_offer(replace(OFFER, capacity=65536))
    with pytest.raises(ProtocolError) as transfer_exc:
        driver.submit_transfer_offer([(1, 0), (2, 0)], capacity=65536)
    assert direct_exc.value.code is transfer_exc.value.code is ErrorCode.MALFORMED
    assert len(driver.registration.tokens) == tokens
    assert server_state(small_service) == before


def test_stale_epoch_rejected(small_service):
    driver, _ = make_clients(small_service)
    reg = driver.registration
    tokens = list(reg.tokens)
    reg.epoch += 1
    with pytest.raises(ServerError) as exc_info:
        driver.submit_direct_offer(OFFER)
    assert exc_info.value.code is ErrorCode.STALE_EPOCH
    # the server spent no token on the refused submission, so the client keeps it
    assert reg.tokens == tokens
    assert service._token_digest(tokens[-1]) in small_service.server.unused_tokens
    reg.epoch -= 1
    driver.submit_direct_offer(OFFER)  # the same token buys it once the epoch is right
    assert reg.tokens == tokens[:-1]
    assert service._token_digest(tokens[-1]) not in small_service.server.unused_tokens
    # a spent token put back on the list is dropped after BAD_TOKEN
    reg.tokens.append(tokens[-1])
    with pytest.raises(ServerError) as exc_info:
        driver.submit_direct_offer(OFFER)
    assert exc_info.value.code is ErrorCode.BAD_TOKEN
    assert reg.tokens == tokens[:-1]


def test_wrong_dimension_rejected(small_service):
    driver, _ = make_clients(small_service)
    rng = np.random.default_rng(0)
    derivers, _ = crypto.generate_keys({"direct": 64}, rng)
    keys = derivers["direct"].derive("driver", rng)
    idx = support.encrypt_index(np.zeros(64), keys, rng)
    frame = protocol.encode_frame(
        MsgType.SUBMIT_OFFER, driver.registration.epoch, driver.registration.tokens.pop(),
        protocol.encode_submit_offer(DirectOffer("", 1, (MatchCase.AREA,), *[idx] * 4)),
    )
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, _ = protocol.decode_error(reply.payload)
    assert code is ErrorCode.BAD_DIMENSION


def test_transfer_offer_needs_two_cells(small_service):
    driver, _ = make_clients(small_service)
    reg = driver.registration
    offer = transfer.build_transfer_offer(
        "local", [(1, 1), (2, 1)], reg.keysets,
        reg.params, 2, np.random.default_rng(4),
    )
    blobs, token = [(c.plus.to_bytes(), c.minus.to_bytes()) for c in offer.cells], reg.tokens.pop()
    before = server_state(small_service)
    for payload in (
        oracles.transfer_offer_payload(2, b"", blobs[:1]),
        # an offer of no cells has an empty block, as its layout fixes
        protocol.encode_submit_offer(transfer.TransferOffer("", 2, [])),
    ):
        frame = protocol.encode_frame(MsgType.SUBMIT_OFFER, reg.epoch, token, payload)
        reply, _ = protocol.decode_frame(small_service.dispatch(frame))
        code, message = protocol.decode_error(reply.payload)
        assert code is ErrorCode.BAD_STATE and "2 cells" in message
        assert server_state(small_service) == before
    reg.tokens.append(token)  # still unused: the next submission spends it
    assert driver.submit_direct_offer(OFFER).startswith("do")


def test_transfer_offer_of_more_than_max_items_cells_is_refused(small_service):
    """A transfer offer takes at most `max_items` cells, the cap a direct route
    filter has; one more is ERROR (BAD_STATE) and changes nothing."""
    driver, _ = make_clients(small_service)
    reg = driver.registration
    assert reg.params.max_items == 60
    two = transfer.build_transfer_offer(
        "local", [(1, 1), (2, 1)], reg.keysets, reg.params, 2, np.random.default_rng(4),
    )
    too_long = transfer.TransferOffer("", 2, (two.cells * 31)[:61])
    frame = protocol.encode_frame(
        MsgType.SUBMIT_OFFER, reg.epoch, reg.tokens.pop(), protocol.encode_submit_offer(too_long)
    )
    before = server_state(small_service)
    reply_bytes = small_service.dispatch(frame)
    code, message = protocol.decode_error(protocol.decode_frame(reply_bytes)[0].payload)
    assert code is ErrorCode.BAD_STATE and "max_items 60, got 61" in message
    assert server_state(small_service) == before
    assert not small_service.server.graph.nodes and not small_service.server.transfer_offers


def test_layouts_fix_the_plan_and_the_key_set_of_every_encryption(small_service, monkeypatch):
    """A layout names each of its key sets once, with its indexes per
    submission; each role's plan is the distinct key sets of its layouts,
    in set-up scheme order, driver first; a registration holds exactly its
    plan; and each submission kind encrypts once per key set of its layout,
    in layout order, that key set's count of rows per submission."""
    schemes = list(small_service.config.widths)
    for role, layouts in protocol.ROLE_LAYOUTS.items():
        for layout in layouts:
            assert len({key_set for key_set, _ in layout}) == len(layout), layout
        used = {key_set for layout in layouts for key_set, _ in layout}
        order = sorted(used, key=lambda k: (schemes.index(k[0]), ["driver", "rider"].index(k[1])))
        assert protocol.PLANS[role] == tuple(order)
    assert protocol.PLANS["driver"] == (
        ("direct", "driver"), ("transfer", "driver"), ("transfer", "rider"), ("time", "driver"),
    )
    assert protocol.PLANS["rider"] == (("direct", "rider"), ("transfer", "rider"), ("time", "rider"))
    driver, rider = make_clients(small_service)
    widths = small_service.config.widths
    for client, role in ((driver, "driver"), (rider, "rider")):
        keysets = client.registration.keysets
        assert tuple(keysets) == protocol.PLANS[role]
        assert [(k.dim, k.role) for k in keysets.values()] == [
            (widths[scheme], key_role) for scheme, key_role in protocol.PLANS[role]
        ]
    calls = []
    real = crypto.encrypt_indices

    def recording(vectors, keys, rng):
        calls.append((keys.dim, keys.role, len(vectors)))
        return real(vectors, keys, rng)

    monkeypatch.setattr(crypto, "encrypt_indices", recording)
    kinds = [  # layout, submissions in one call, submit
        (direct.DIRECT_OFFER, 2, lambda: driver.submit_direct_offers([OFFER] * 2)),
        (direct.DIRECT_REQUEST, 1, lambda: rider.submit_direct_request(REQUEST)),
        (transfer.TRANSFER_CELL, 3, lambda: driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], 2)),
        (transfer.TRANSFER_QUERY, 1, lambda: rider.submit_transfer_request((1, 1), (3, 1))),
    ]
    for layout, submissions, submit in kinds:
        calls.clear()
        submit()
        assert calls == [
            (widths[scheme], role, submissions * count) for (scheme, role), count in layout
        ]


def server_state(svc):
    srv = svc.server
    pools = [
        (p.used, p.live.tobytes(), [m.tobytes() for m in p.kinds])
        for p in (srv.offer_pool, srv.request_pool)
    ]
    return (
        set(srv.unused_tokens), set(srv.direct_offers), set(srv.direct_requests),
        set(srv.transfer_offers), set(srv.transfer_requests), set(srv.graph.nodes),
        srv.graph.edge_count(), srv._counter, pools, srv.direct_remaining,
    )


def test_bogus_token_rejected_before_any_work(small_service, monkeypatch):
    driver, rider = make_clients(small_service)
    driver.submit_direct_offer(OFFER)
    rider.submit_direct_request(REQUEST)
    bogus = bytes(protocol.TOKEN_SIZE)
    request = protocol.encode_frame(
        MsgType.SUBMIT_REQUEST, rider.registration.epoch, bogus,
        protocol.encode_submit_request(DirectRequest("", *zero_trip_indexes(rider, "rider"))),
    )
    unmasked = []
    real = crypto.unmask_indices
    monkeypatch.setattr(crypto, "unmask_indices", lambda *a, **k: unmasked.append(1) or real(*a, **k))
    for frame in (offer_frame(driver, bogus), request):
        before = server_state(small_service)
        reply_bytes = small_service.dispatch(frame)
        assert protocol.decode_frame(reply_bytes)[1] == b""
        assert error_code(reply_bytes) is ErrorCode.BAD_TOKEN
        assert server_state(small_service) == before
    assert unmasked == []


def corrupt_nonfinite(blob, value):
    parts = np.frombuffer(blob, dtype="<f8").copy()
    parts[len(parts) // 2] = value
    return parts.astype("<f8").tobytes()


def drop_last_value(blob, _value):
    """One float64 short: the submission's block is not the size its layout fixes."""
    return blob[:-8]


def corrupt_overflow(blob, value):
    """Every part set to `value`: finite, but past what unmasking can keep finite."""
    return np.full(len(blob) // 8, value, dtype="<f8").tobytes()


def widen_to(blob, width):
    """Zero parts appended up to `width`: a direct time index at the filter
    width makes the block 4 * 8 * filter_bits values, as a padded time vector did."""
    return blob + bytes(crypto.PART_COUNT * 8 * width - len(blob))


# The reply code of each damage, in either scheme: every block is sized by
# its layout, so a block of any other size has the wrong dimension.
REPLY_CODES = {
    corrupt_nonfinite: ErrorCode.MALFORMED,
    drop_last_value: ErrorCode.BAD_DIMENSION,
    corrupt_overflow: ErrorCode.MALFORMED,
    widen_to: ErrorCode.BAD_DIMENSION,
}


def corrupted_frames(driver, rider, corrupt, value):
    """A direct offer and a direct request, each with a bad time index blob, two
    transfer offers (the bad blob in a plus index, then in a minus index) and a
    transfer request, each with one bad index blob. The payloads are laid out
    by the oracle encoders, since no index object holds these bytes."""
    rng = np.random.default_rng(9)
    reg, rreg = driver.registration, rider.registration
    blobs = [
        [support.encrypt_index(np.zeros(keys.dim), keys, rng).to_bytes()
         for keys in (client.registration.keysets["direct", role],
                      client.registration.keysets["time", role])]
        for client, role in ((driver, "driver"), (rider, "rider"))
    ]
    (offer_filter, offer_time), (request_filter, request_time) = blobs
    direct_offer = oracles.direct_offer_payload(
        1, ["area"], b"", [offer_filter] * 3 + [corrupt(offer_time, value)]
    )
    direct_request = oracles.direct_request_payload(
        b"", [request_filter] * 3 + [corrupt(request_time, value)]
    )
    offer = transfer.build_transfer_offer(
        "local", [(1, 1), (2, 1)], reg.keysets,
        reg.params, 2, rng,
    )
    cells = [(c.plus.to_bytes(), c.minus.to_bytes()) for c in offer.cells]
    bad_plus, bad_minus = list(cells), list(cells)
    bad_plus[1] = (corrupt(cells[1][0], value), cells[1][1])
    bad_minus[0] = (cells[0][0], corrupt(cells[0][1], value))
    request = transfer.build_transfer_request(
        "local", (1, 1), (2, 1), rreg.keysets,
        rreg.params, rng=rng,
    )
    routed = oracles.transfer_request_payload(
        b"", transfer.DEFAULT_PREFERENCE.kind.value, None, None,
        request.pickup.to_bytes(), corrupt(request.dropoff.to_bytes(), value),
    )
    return [
        protocol.encode_frame(MsgType.SUBMIT_OFFER, reg.epoch, reg.tokens.pop(), direct_offer),
        protocol.encode_frame(MsgType.SUBMIT_REQUEST, rreg.epoch, rreg.tokens.pop(), direct_request),
        *(protocol.encode_frame(MsgType.SUBMIT_OFFER, reg.epoch, reg.tokens.pop(),
                                oracles.transfer_offer_payload(2, b"", bad))
          for bad in (bad_plus, bad_minus)),
        protocol.encode_frame(MsgType.SUBMIT_REQUEST, rreg.epoch, rreg.tokens.pop(), routed),
    ]


@pytest.mark.parametrize("corrupt, value", [
    (corrupt_nonfinite, np.nan),
    (corrupt_nonfinite, np.inf),
    (corrupt_nonfinite, -np.inf),
    (drop_last_value, None),
    (corrupt_overflow, 1e307),
    (widen_to, SMALL_CONFIG["filter_bits"]),
])
def test_impossible_ciphertexts_rejected_without_state_change(small_service, corrupt, value):
    driver, rider = make_clients(small_service)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    for frame in corrupted_frames(driver, rider, corrupt, value):
        before = server_state(small_service)
        reply_bytes = small_service.dispatch(frame)
        assert protocol.decode_frame(reply_bytes)[1] == b""
        assert error_code(reply_bytes) is REPLY_CODES[corrupt]
        assert server_state(small_service) == before


def part_beside_bound(blob, direction):
    """The middle part set to the float next to its width's stored-part bound, toward `direction`."""
    parts = np.frombuffer(blob, dtype="<f8").copy()
    bound = crypto.unmasked_part_bound(len(parts) // crypto.PART_COUNT)
    parts[len(parts) // 2] = np.nextafter(bound, direction)
    return parts.astype("<f8").tobytes()


def test_driver_role_parts_are_gated_as_stored(small_service):
    """A direct offer, and a transfer offer's plus index, with one part just
    above its width's bound are refused (MALFORMED) and change nothing; with
    the part just under it, the same offers are admitted."""
    driver, rider = make_clients(small_service)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    for direction, admitted in ((np.inf, False), (0.0, True)):
        direct_offer, _, bad_plus, _, _ = corrupted_frames(driver, rider, part_beside_bound, direction)
        for frame in (direct_offer, bad_plus):
            before = server_state(small_service)
            reply_bytes = small_service.dispatch(frame)
            if admitted:
                assert protocol.decode_frame(reply_bytes)[0].msg_type is MsgType.SUBMIT_OFFER
            else:
                assert error_code(reply_bytes) is ErrorCode.MALFORMED
                assert server_state(small_service) == before


def test_rider_role_parts_are_gated_after_the_match_mask(small_service):
    """A direct request's and a transfer request's index whose parts are under
    the bound on the wire, but whose product with the match mask is not, is
    refused (MALFORMED) and changes nothing."""
    driver, rider = make_clients(small_service)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    masks = {s.dim: s.match_mask for s in small_service.server.secrets.values()}
    assert len(masks) == len(small_service.server.secrets)  # a width names its scheme

    def over_after_mask(blob, _value):
        dim = len(blob) // (8 * crypto.PART_COUNT)
        mask, bound = masks[dim], crypto.unmasked_part_bound(dim)
        column = np.abs(mask).sum(axis=0).argmax()
        parts = np.zeros((crypto.PART_COUNT, dim))
        parts[0] = np.nextafter(bound, 0.0) * np.sign(mask[:, column])
        assert (np.abs(parts) < bound).all() and np.abs(parts @ mask).max() > bound
        return parts.astype("<f8").tobytes()

    _, direct_request, _, _, transfer_request = corrupted_frames(driver, rider, over_after_mask, None)
    for frame in (direct_request, transfer_request):
        before = server_state(small_service)
        assert error_code(small_service.dispatch(frame)) is ErrorCode.MALFORMED
        assert server_state(small_service) == before


def test_transfer_blocks_must_match_their_announced_layout(small_service):
    """A transfer offer's block holds a plus and a minus index per cell it
    announces, a transfer request's two indexes; any other block is refused
    (BAD_DIMENSION), keeps its token and changes nothing."""
    driver, rider = make_clients(small_service)
    reg, rreg = driver.registration, rider.registration
    rng = np.random.default_rng(12)
    offer = transfer.build_transfer_offer(
        "local", [(1, 1), (2, 1)], reg.keysets,
        reg.params, 2, rng,
    )
    good_offer = oracles.transfer_offer_payload(
        2, b"", [(c.plus.to_bytes(), c.minus.to_bytes()) for c in offer.cells]
    )
    count_at = 1 + 2 + 4  # scheme, capacity, empty contact blob
    request = transfer.build_transfer_request(
        "local", (1, 1), (2, 1), rreg.keysets,
        rreg.params, rng=rng,
    )
    pickup, dropoff = request.pickup.to_bytes(), request.dropoff.to_bytes()

    def request_payload(first, second):
        kind = transfer.DEFAULT_PREFERENCE.kind.value
        return oracles.transfer_request_payload(b"", kind, None, None, first, second)

    token, rtoken = reg.tokens.pop(), rreg.tokens.pop()
    bad = [
        *(protocol.encode_frame(
            MsgType.SUBMIT_OFFER, reg.epoch, token,
            good_offer[:count_at] + struct.pack("<H", cells) + good_offer[count_at + 2 :],
        ) for cells in (1, 3, 4, 5)),
        *(protocol.encode_frame(MsgType.SUBMIT_REQUEST, rreg.epoch, rtoken, request_payload(*pair))
          for pair in ((pickup, b""), (pickup, dropoff + dropoff))),
    ]
    for frame in bad:
        before = server_state(small_service)
        assert error_code(small_service.dispatch(frame)) is ErrorCode.BAD_DIMENSION
        assert server_state(small_service) == before
    # both tokens are still good for the well-formed submissions
    for msg_type, epoch, tok, payload in (
        (MsgType.SUBMIT_OFFER, reg.epoch, token, good_offer),
        (MsgType.SUBMIT_REQUEST, rreg.epoch, rtoken, request_payload(pickup, dropoff)),
    ):
        reply, _ = protocol.decode_frame(
            small_service.dispatch(protocol.encode_frame(msg_type, epoch, tok, payload))
        )
        assert reply.msg_type is msg_type


def test_one_width_table_in_set_up_order(small_service):
    """Key set-up, the decoders, the pools and a client's key checks share
    one table, ordered as `crypto.generate_keys` draws the schemes' keys."""
    srv = small_service.server
    widths = srv.widths
    assert list(widths) == ["direct", "transfer", "time"]
    (driver,) = make_clients(small_service, roles=("driver",))
    assert driver.registration.params.widths == widths
    assert {scheme: secrets.dim for scheme, secrets in srv.secrets.items()} == widths
    assert srv.offer_pool.dims == srv.request_pool.dims == (
        widths["direct"], widths["direct"], widths["direct"], widths["time"]
    )


def assert_bounded_state(srv):
    """Every live pool row, active graph store row and stored transfer request
    is within the unmasked-part bound of its width."""

    def bounded(parts, dim):
        return (np.abs(parts) <= crypto.unmasked_part_bound(dim)).all()

    for pool in (srv.offer_pool, srv.request_pool):
        live = pool.live[: pool.used]
        assert all(bounded(m[: pool.used][live], dim) for m, dim in zip(pool.kinds, pool.dims))
    graph, cells = srv.graph, srv.widths["transfer"]
    assert bounded(graph._plus[: len(graph._row_ids)][graph.active_mask], cells)
    for request in srv.transfer_requests.values():
        assert bounded(request.pickup.parts, cells) and bounded(request.dropoff.parts, cells)


class RecordingLoopback(LoopbackTransport):
    """Loopback transport that keeps the last frame sent of each message type."""

    def __init__(self, service, sent):
        super().__init__(service)
        self.sent = sent

    def request(self, data):
        self.sent[MsgType(data[4])] = bytes(data)
        return super().request(data)


@pytest.fixture(scope="module")
def fuzz_world():
    """A service holding one trip of each kind, plus one recorded valid frame per kind."""
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=21)
    frames, sent = {}, {}
    driver, rider = (ServiceClient(RecordingLoopback(svc, sent), rng=i) for i in (1, 2))
    for client, role in ((driver, "driver"), (rider, "rider")):
        client.register(role)
        frames[f"register-{role}"] = sent[MsgType.REGISTER_USER]
    steps = [
        ("direct-offer", MsgType.SUBMIT_OFFER, lambda: driver.submit_direct_offer(OFFER)),
        ("direct-request", MsgType.SUBMIT_REQUEST, lambda: rider.submit_direct_request(REQUEST)),
        ("transfer-offer", MsgType.SUBMIT_OFFER,
         lambda: driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)),
        ("transfer-request", MsgType.SUBMIT_REQUEST,
         lambda: rider.submit_transfer_request((1, 1), (3, 1), contact=b"rider-box")),
        ("poll", MsgType.MATCH_NOTIFICATION, lambda: rider.poll(["r1", "dr2"])),
    ]
    for name, msg_type, step in steps:
        step()
        frames[name] = sent[msg_type]
    keys = rider.registration.keysets["direct", "rider"]
    blob = support.encrypt_index(np.zeros(keys.dim), keys, np.random.default_rng(5)).to_bytes()
    overflow = oracles.direct_request_payload(b"", [corrupt_overflow(blob, 1e307)] * 4)
    frames["overflow-request"] = protocol.encode_frame(
        MsgType.SUBMIT_REQUEST, svc.server.epoch, protocol.ZERO_TOKEN, overflow
    )
    return SimpleNamespace(service=svc, frames=frames, tokens=iter(range(1, 1 << 62)))


FUZZ_FRAMES = [
    "register-driver", "register-rider", "direct-offer", "direct-request",
    "transfer-offer", "transfer-request", "poll",
]
FUZZ_INPUTS = st.one_of(
    st.binary(max_size=160),
    st.tuples(
        st.sampled_from(FUZZ_FRAMES),
        st.lists(st.tuples(st.integers(0, 1 << 24), st.integers(0, 255)), min_size=1, max_size=4),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FUZZ_INPUTS)
@example(("overflow-request", []))
def test_dispatch_fuzz_one_reply_and_no_state_change_on_error(fuzz_world, case):
    """Junk and mutated frames: one reply each, no state change on ERROR, bounded stored rows."""
    svc = fuzz_world.service
    if isinstance(case, bytes):
        frame = case
    else:  # a recorded frame with bytes after the header overwritten, under a fresh token
        name, edits = case
        frame = bytearray(fuzz_world.frames[name])
        if frame[4] in (MsgType.SUBMIT_OFFER, MsgType.SUBMIT_REQUEST):
            token = next(fuzz_world.tokens).to_bytes(protocol.TOKEN_SIZE, "little")
            svc.server.add_token_digests([service._token_digest(token)])
            frame[13 : protocol.HEADER_SIZE] = token
        for pos, byte in edits:
            frame[protocol.HEADER_SIZE + pos % (len(frame) - protocol.HEADER_SIZE)] = byte
    before = server_state(svc)
    reply, rest = protocol.decode_frame(svc.dispatch(bytes(frame)))
    assert rest == b""
    if reply.msg_type is MsgType.ERROR:
        protocol.decode_error(reply.payload)
        assert server_state(svc) == before
    assert_bounded_state(svc.server)


@pytest.mark.parametrize("field, value", [
    ("tokens_per_bundle", 70000), ("tokens_per_bundle", 0), ("filter_bits", 1),
    ("match_threshold", -1), ("port", 70000),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("values, message", [
    (dict(filter_bits=64, n_hashes=65), "n_hashes 65 must be <= filter_bits 64"),
], ids=["n_hashes-above-filter_bits"])
def test_config_refuses_combinations_no_client_can_encode(values, message):
    """No client can encode these, so the service that would ship them refuses them."""
    with pytest.raises(ValueError, match=message):
        ServiceConfig(**values)


@pytest.mark.parametrize("values", [
    dict(id_bits=2**32 - 1, time_bits=2**32 - 1),
    dict(id_bits=100000),
    dict(filter_bits=4096),
], ids=["u32-widths", "id_bits-100000", "filter_bits-4096"])
def test_config_refuses_widths_whose_key_bundle_exceeds_the_frame_limit(values, monkeypatch):
    """Refused as a config, before set-up draws any key."""
    def no_set_up(*args):
        raise AssertionError("key set-up ran")

    monkeypatch.setattr(crypto, "generate_keys", no_set_up)
    with pytest.raises(ValueError, match="KEY_BUNDLE .* over the 1073741824-byte limit"):
        RideService(ServiceConfig(**values), seed=1)


def test_paper_width_key_bundles_fit_a_frame():
    config = ServiceConfig()
    sizes = {
        role: protocol.frame_length(protocol.key_bundle_size(role, config, config.tokens_per_bundle))
        for role in protocol.PLANS
    }
    assert sizes["driver"] == 268_868_964 > sizes["rider"]
    assert sizes["driver"] <= protocol.MAX_FRAME_SIZE


def test_filters_narrower_than_the_day_slots_match_over_loopback():
    """The time index has its own width, so filters may be narrower than it."""
    svc = RideService(ServiceConfig(**{**SMALL_CONFIG, "filter_bits": 32, "time_slots": 48}), seed=5)
    driver, rider = make_clients(svc)
    assert driver.registration.keysets["time", "driver"].dim == 48
    offer_id = driver.submit_direct_offer(OFFER)
    request_id = rider.submit_direct_request(REQUEST)
    late = rider.submit_direct_request(replace(REQUEST, pickup_seconds=slot_time(11)))
    assert svc.run_matching() == [
        service.DirectMatchRecord(request_id, offer_id, MatchCase.AREA)
    ]
    assert set(svc.server.direct_requests) == {late}
    assert [m.peer_id for m in rider.poll([request_id])] == [offer_id]


def test_config_refuses_path_limit_as_an_unknown_key():
    with pytest.raises(TypeError, match="path_limit"):
        ServiceConfig(path_limit=10000)


def test_junk_bytes_are_malformed(small_service):
    for junk in (b"", b"\x00" * 4, b"not a frame at all padding padding padding padding!"):
        reply, _ = protocol.decode_frame(small_service.dispatch(junk))
        assert reply.msg_type is MsgType.ERROR
        code, _ = protocol.decode_error(reply.payload)
        assert code is ErrorCode.MALFORMED


def test_server_only_msg_types_rejected(small_service):
    frame = protocol.encode_frame(MsgType.KEY_BUNDLE, 1, protocol.ZERO_TOKEN, b"")
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, message = protocol.decode_error(reply.payload)
    assert code is ErrorCode.BAD_STATE and "KEY_BUNDLE" in message


def test_rider_cannot_build_offers(small_service):
    """A rider holds no driver key set, so its client refuses before it
    encrypts or sends anything."""
    _, rider = make_clients(small_service)
    reg, sent = rider.registration, rider.transport.sent_bytes
    tokens = list(reg.tokens)
    with pytest.raises(ValueError, match=r"no \('direct', 'driver'\) key set"):
        rider.submit_direct_offer(OFFER)
    with pytest.raises(ValueError, match=r"no \('transfer', 'driver'\) key set"):
        rider.submit_transfer_offer([(1, 1), (2, 1)], capacity=2)
    assert rider.transport.sent_bytes == sent and reg.tokens == tokens
    assert reg.masks.stocks == {}


def test_epoch_rotation_purges_trips(small_service):
    driver, rider = make_clients(small_service)
    driver.submit_direct_offer(OFFER)
    rider.submit_transfer_request((1, 1), (2, 1))
    old_epoch = small_service.server.epoch
    announce = small_service.rotate_epoch()
    assert announce.epoch == old_epoch + 1
    assert announce.purged_offers == 1 and announce.purged_requests == 1
    server = small_service.server
    assert not server.direct_offers and not server.direct_requests
    assert not server.transfer_offers and not server.transfer_requests
    assert server.graph.nodes == {}
    # old-epoch frames now bounce, until the client syncs
    with pytest.raises(ServerError) as exc_info:
        driver.submit_direct_offer(OFFER)
    assert exc_info.value.code is ErrorCode.STALE_EPOCH
    synced = driver.sync_epoch()
    assert synced.epoch == announce.epoch and synced.salt == announce.salt
    assert driver.submit_direct_offer(OFFER)  # tokens survive rotation


def test_rotated_epochs_strictly_increase(small_service):
    seen = [small_service.server.epoch]
    for _ in range(3):
        seen.append(small_service.rotate_epoch().epoch)
    assert seen == sorted(set(seen))


def test_transfer_handoff_over_wire(small_service):
    """Three drivers chain a rider across a vehicle switch."""
    d1, d2, d3, rider = make_clients(
        small_service, roles=("driver", "driver", "driver", "rider")
    )
    sent = {}
    d2.transport = RecordingLoopback(small_service, sent)
    ids = {}
    for name, client in (("d1", d1), ("d2", d2), ("d3", d3)):
        ids[name] = client.submit_transfer_offer(
            oracles.HANDOFF_ROUTES[name], capacity=4, contact=name.encode()
        )
    d2_frame = sent[MsgType.SUBMIT_OFFER]
    request_id = rider.submit_transfer_request(
        oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF,
        preference="min-cells-transfers", contact=b"rider-box",
    )
    records = small_service.run_matching()
    assert len(records) == 1
    path_offers = list(dict.fromkeys(oid for oid, _ in records[0].path.nodes))
    assert path_offers == [ids["d1"], ids["d2"]]

    notes = rider.poll([request_id])
    assert len(notes) == 1
    note = notes[0]
    assert note.segment_offers == [ids["d1"], ids["d2"]]
    assert note.peer_contacts == [b"d1", b"d2"]
    assert len(note.transfer_ciphers) == 1
    # the relayed bytes are the boarding cell's plus ciphertext as d2 sent it
    _, pos = next(node for node in records[0].path.nodes if node[0] == ids["d2"])
    frame, _ = protocol.decode_frame(d2_frame)
    widths, max_items = small_service.server.widths, small_service.config.max_items
    sent = protocol.decode_submit_offer(frame.payload, widths, max_items)
    sent_plus = sent.cells[pos].plus.to_bytes()
    assert note.transfer_ciphers[0] == sent_plus
    assert sent_plus in d2_frame

    for name in ("d1", "d2"):
        dn = {"d1": d1, "d2": d2}[name].poll([ids[name]])
        assert len(dn) == 1 and dn[0].peer_contacts == [b"rider-box"]
    assert d3.poll([ids["d3"]]) == []


def test_transfer_capacity_exhaustion_over_service(small_service):
    d1, d2, d3, rider = make_clients(
        small_service, roles=("driver", "driver", "driver", "rider")
    )
    ids = {}
    caps = {"d1": 2, "d2": 1, "d3": 1}
    for name, client in (("d1", d1), ("d2", d2), ("d3", d3)):
        ids[name] = client.submit_transfer_offer(
            oracles.HANDOFF_ROUTES[name], capacity=caps[name]
        )
    r1 = rider.submit_transfer_request(
        oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF, "min-cells-transfers"
    )
    small_service.run_matching()
    first = rider.poll([r1])[0]
    assert first.segment_offers == [ids["d1"], ids["d2"]]

    r2 = rider.submit_transfer_request(
        oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF, "min-cells-transfers"
    )
    small_service.run_matching()
    second = rider.poll([r2])[0]
    assert second.segment_offers == [ids["d1"], ids["d3"]]

    r3 = rider.submit_transfer_request(
        oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF, "min-cells-transfers"
    )
    assert small_service.run_matching() == []
    assert rider.poll([r3]) == []


def test_socket_server_round_trip(small_service):
    server = SocketServer(small_service, host="127.0.0.1", port=0)
    thread = server.serve_in_thread()
    try:
        host, port = server.server_address
        with SocketTransport(host, port) as transport:
            driver = ServiceClient(transport, rng=7)
            driver.register("driver")
            offer_id = driver.submit_direct_offer(OFFER)
        with SocketTransport(host, port) as transport:
            rider = ServiceClient(transport, rng=8)
            rider.register("rider")
            request_id = rider.submit_direct_request(REQUEST)
            small_service.run_matching()
            notes = rider.poll([request_id])
            assert [n.peer_id for n in notes] == [offer_id]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class CountingRandom:
    """Stand-in for the `secrets` module whose tokens and ids count up, so
    two services built from one seed reply byte for byte alike."""

    def __init__(self):
        self.n = 0

    def token_bytes(self, size):
        self.n += 1
        return self.n.to_bytes(size, "big")

    def token_hex(self, size):
        return self.token_bytes(size).hex()


@contextmanager
def loopback(svc):
    yield LoopbackTransport(svc)


@contextmanager
def over_socket(svc):
    server = SocketServer(svc, host="127.0.0.1", port=0)
    thread = server.serve_in_thread()
    try:
        with SocketTransport(*server.server_address) as transport:
            yield transport
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_socket_server_dispatches_each_frame_as_received(small_service, monkeypatch):
    """The handler hands `dispatch` the buffer it read, so the server frames its
    replies and nothing else (no request is encoded again), and each frame of a
    pipelined stream gets exactly one reply."""
    server_encodes, dispatched = [], []
    real_encode, real_dispatch = protocol.encode_frame, RideService.dispatch

    def encode(msg_type, *rest):
        if threading.current_thread() is not threading.main_thread():
            server_encodes.append(msg_type)
        return real_encode(msg_type, *rest)

    def dispatch(self, frame_bytes):
        dispatched.append(MsgType(frame_bytes[4]))
        return real_dispatch(self, frame_bytes)

    monkeypatch.setattr(protocol, "encode_frame", encode)
    monkeypatch.setattr(RideService, "dispatch", dispatch)
    with over_socket(small_service) as transport:
        driver, rider = ServiceClient(transport, rng=7), ServiceClient(transport, rng=8)
        driver.register("driver")
        rider.register("rider")
        driver.submit_direct_offer(OFFER)
        driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
        request_id = rider.submit_direct_request(REQUEST)
        rider.submit_transfer_request((1, 1), (3, 1))
        rider.poll([request_id])
        rider.sync_epoch()
    assert len(dispatched) == 8
    # the authority frames a KEY_BUNDLE itself; every other reply is one encode_frame
    assert server_encodes == [t for t in dispatched if t is not MsgType.REGISTER_USER]

    server_encodes.clear()
    epoch = small_service.server.epoch
    frames = [
        (MsgType.EPOCH_ANNOUNCE, protocol.ZERO_TOKEN),
        (MsgType.KEY_BUNDLE, protocol.ZERO_TOKEN),  # clients do not send these
        (MsgType.SUBMIT_OFFER, b"\x01" * protocol.TOKEN_SIZE),  # no such token
        (MsgType.EPOCH_ANNOUNCE, protocol.ZERO_TOKEN),
    ]
    with over_socket(small_service) as transport:
        transport.sock.sendall(b"".join(real_encode(t, epoch, token, b"") for t, token in frames))
        transport.sock.shutdown(socket.SHUT_WR)
        replies = []
        while (reply := protocol.read_frame(transport.sock)) is not None:
            replies.append(reply.msg_type)
    assert replies == [MsgType.EPOCH_ANNOUNCE, MsgType.ERROR, MsgType.ERROR, MsgType.EPOCH_ANNOUNCE]
    assert server_encodes == replies


def recorded_session(monkeypatch, connect):
    """Replies, sent bytes and received bytes of one fixed session."""
    monkeypatch.setattr(service, "sysrandom", CountingRandom())
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=11)
    replies = []
    with connect(svc) as transport:
        recorder = SimpleNamespace(
            request=lambda data: replies.append(transport.request(data)) or replies[-1]
        )
        driver = ServiceClient(recorder, rng=1)
        rider = ServiceClient(recorder, rng=2)
        driver.register("driver")
        rider.register("rider")
        offer_id = driver.submit_direct_offer(OFFER)
        request_id = rider.submit_direct_request(REQUEST)
        driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
        rider.submit_transfer_request((1, 1), (3, 1))
        svc.run_matching()
        assert rider.poll([request_id]) and driver.poll([offer_id])
        driver.sync_epoch()
        error = recorder.request(protocol.encode_frame(MsgType.KEY_BUNDLE, 1, protocol.ZERO_TOKEN, b""))
        assert error.msg_type is MsgType.ERROR
        return replies, transport.sent_bytes, transport.received_bytes


def test_socket_and_loopback_transports_agree(monkeypatch):
    """Each transport returns every reply decoded, and both count the same wire bytes."""
    replies, sent, received = recorded_session(monkeypatch, loopback)
    assert recorded_session(monkeypatch, over_socket) == (replies, sent, received)
    assert received == sum(protocol.HEADER_SIZE + len(f.payload) for f in replies)
    assert {f.msg_type for f in replies} == {
        MsgType.KEY_BUNDLE, MsgType.SUBMIT_OFFER, MsgType.SUBMIT_REQUEST,
        MsgType.MATCH_NOTIFICATION, MsgType.EPOCH_ANNOUNCE, MsgType.ERROR,
    }


def test_socket_server_answers_an_unreadable_frame_once_then_closes(small_service):
    unknown_type = struct.pack("<IBQ", protocol.HEADER_SIZE - 4, 99, 1) + protocol.ZERO_TOKEN
    short_length = b"\x2d\x00\x00"  # three of the four length bytes, then EOF
    with over_socket(small_service) as transport:
        address = transport.sock.getpeername()
        for data in (unknown_type, short_length):
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)
                reply = protocol.read_frame(sock)
                assert reply.msg_type is MsgType.ERROR
                assert protocol.decode_error(reply.payload)[0] is ErrorCode.MALFORMED
                assert protocol.read_frame(sock) is None
        # the server still serves well-formed connections
        ServiceClient(transport, rng=9).register("rider")


def test_loopback_rejects_trailing_reply_bytes(small_service):
    stub = SimpleNamespace(dispatch=lambda data: bytes(small_service.dispatch(data)) + b"\x00")
    with pytest.raises(ProtocolError, match="trailing"):
        ServiceClient(LoopbackTransport(stub)).register("rider")


def test_no_plaintext_trip_state_on_server(small_service):
    """Structural check: nothing key- or plaintext-shaped hangs off the server."""
    from ridecloak.bloom import BloomFilter
    from ridecloak.crypto import KeyDeriver, UserKeySet
    from ridecloak.service import TrustedAuthority

    driver, rider = make_clients(small_service)
    driver.submit_direct_offer(OFFER)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    rider.submit_direct_request(REQUEST)
    rider.submit_transfer_request((1, 1), (3, 1))
    small_service.run_matching()

    forbidden = (TrustedAuthority, KeyDeriver, UserKeySet, BloomFilter)
    hits = [
        type(obj).__name__
        for obj in oracles.reachable_instances(small_service.server)
        if isinstance(obj, forbidden)
    ]
    assert hits == []


def register_frame(role):
    return protocol.encode_frame(
        MsgType.REGISTER_USER, 1, protocol.ZERO_TOKEN, protocol.encode_register(role)
    )


def test_register_reply_matches_independent_encoding(monkeypatch):
    """The one-buffer KEY_BUNDLE reply is byte for byte the documented layout."""
    config = ServiceConfig(**SMALL_CONFIG)
    monkeypatch.setattr(service, "sysrandom", CountingRandom())
    svc = RideService(config, seed=21)
    rng = np.random.default_rng(21)
    salt = int(rng.integers(0, 2**63))  # the service draws its first salt first
    # the same draws as the service's set-up
    derivers, _ = crypto.generate_keys(
        {"direct": config.filter_bits,
         "transfer": transfer.cell_vector_bits(config.id_bits, config.time_bits),
         "time": config.time_slots},
        rng,
    )
    direct, cells, time = derivers["direct"], derivers["transfer"], derivers["time"]
    plans = {
        "driver": [(direct, "driver"), (cells, "driver"), (cells, "rider"), (time, "driver")],
        "rider": [(direct, "rider"), (cells, "rider"), (time, "rider")],
    }
    tokens = CountingRandom()
    fields = (1, salt, config.filter_bits, config.n_hashes, config.id_bits,
              config.time_bits, config.time_slots, config.max_items)
    for role in ("driver", "rider", "driver"):
        reply = svc.dispatch(register_frame(role))
        key_files = []
        for deriver, key_role in plans[role]:
            keys = deriver.derive(key_role, rng)
            key_files.append(oracles.user_key_file(keys.parts, keys.split_pattern, key_role))
        expected = oracles.key_bundle_frame(
            1, fields, key_files,
            [tokens.token_bytes(protocol.TOKEN_SIZE) for _ in range(config.tokens_per_bundle)],
        )
        assert bytes(reply) == expected


def buffer_root(obj):
    """The object that owns the buffer `obj` is or views."""
    while True:
        if isinstance(obj, memoryview):
            obj = obj.obj
        elif isinstance(obj, np.ndarray) and obj.base is not None:
            obj = obj.base
        else:
            return obj


def buffer_bytes(obj):
    """Size of the whole buffer `obj` is or views; 0 for anything else."""
    obj = buffer_root(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return len(obj) if isinstance(obj, (bytes, bytearray)) else 0


def array_buffers(root):
    """{id: bytes} of every array buffer reachable from `root`."""
    return {
        id(buffer_root(obj)): buffer_bytes(obj)
        for obj in oracles.reachable_instances(root)
        if isinstance(obj, np.ndarray)
    }


def test_authority_holds_only_what_a_derivation_reads():
    """Per scheme: two blends, their inverses, 16 bases and the split pattern."""
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=3)
    for role in ("driver", "rider"):
        svc.dispatch(register_frame(role))
    dims = svc.server.widths.values()
    # (4 + 16) float64 deriver matrices and a uint8 pattern
    assert sum(array_buffers(svc.authority).values()) == sum((4 + 16) * d * d * 8 + d for d in dims)


def test_authority_and_server_share_no_array():
    """The server keeps one secret matrix per scheme, and no buffer is the authority's too."""
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=3)
    for role in ("driver", "rider"):
        svc.dispatch(register_frame(role))
    assert not set(array_buffers(svc.authority)) & set(array_buffers(svc.server))
    secrets = svc.server.secrets
    for scheme in secrets.values():
        assert sum(array_buffers(scheme).values()) == scheme.dim**2 * 8
    assert {name: scheme.dim for name, scheme in secrets.items()} == {
        "direct": SMALL_CONFIG["filter_bits"],
        "transfer": 2 * SMALL_CONFIG["id_bits"] + SMALL_CONFIG["time_bits"],
        "time": SMALL_CONFIG["time_slots"],
    }


def test_the_server_holds_the_match_mask_and_neither_factor():
    """`TosSecrets` is a width and the match mask, and no buffer reachable from
    the server holds a row or a column of the index mask or of the query
    mask's inverse: set-up multiplies them and keeps neither."""
    assert [f.name for f in dataclasses.fields(crypto.TosSecrets)] == ["dim", "match_mask"]
    config = ServiceConfig(**SMALL_CONFIG)
    svc = RideService(config, seed=21)
    rng = np.random.default_rng(21)
    rng.integers(0, 2**63)  # the service draws its first salt first
    reference = oracles.key_setup(config.widths, rng)
    driver, rider = make_clients(svc)
    driver.submit_direct_offer(OFFER)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    rider.submit_direct_request(REQUEST)
    rider.submit_transfer_request((1, 1), (3, 1))
    svc.run_matching()
    buffers = []
    for obj in oracles.reachable_instances(svc.server):
        root = buffer_root(obj) if isinstance(obj, (np.ndarray, memoryview)) else obj
        if isinstance(root, np.ndarray):
            buffers.append(root.tobytes())
        elif isinstance(root, (bytes, bytearray)):
            buffers.append(bytes(root))
    for scheme, ref in reference.items():
        assert svc.server.secrets[scheme].match_mask.tobytes() == ref["match_mask"].tobytes()
        for factor in (ref["index_mask"], ref["query_mask_inv"]):
            for line in (factor[0].tobytes(), factor[:, 0].tobytes()):
                assert not any(line in buffer for buffer in buffers), scheme


def test_driver_role_rows_are_stored_as_sent(small_service):
    """A direct offer's pool row, and a transfer offer's plus rows in the graph
    store, are byte for byte the parts of the driver's frame."""
    sent = {}
    driver = ServiceClient(RecordingLoopback(small_service, sent), rng=100)
    driver.register("driver")
    srv = small_service.server

    def sent_offer():
        frame, _ = protocol.decode_frame(sent[MsgType.SUBMIT_OFFER])
        return protocol.decode_submit_offer(frame.payload, srv.widths, srv.config.max_items)

    driver.submit_direct_offer(OFFER)
    (entry,) = srv.direct_offers.values()
    assert [kind[entry.row].tobytes() for kind in srv.offer_pool.kinds] == [
        idx.parts.tobytes() for idx in sent_offer().indexes()
    ]
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    graph = srv.graph
    assert graph._plus[: len(graph._row_ids)].tobytes() == b"".join(
        cell.plus.parts.tobytes() for cell in sent_offer().cells
    )


def test_register_builds_its_reply_in_one_buffer():
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=3)
    for role in ("driver", "rider"):
        request = register_frame(role)
        tracemalloc.start()
        try:
            reply = svc.dispatch(request)
            _, peak = tracemalloc.get_traced_memory()
            size = len(reply)
            del reply
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * size
        assert left < 0.01 * size
        reply = svc.dispatch(request)
        held = [
            type(obj).__name__
            for obj in oracles.reachable_instances(svc)
            if buffer_bytes(obj) >= len(reply)
        ]
        assert held == []


def reframed(reply, payload):
    """`reply`'s header with `payload` and the length fixed up to match."""
    head = bytes(reply[4 : protocol.HEADER_SIZE])
    return struct.pack("<I", len(head) + len(payload)) + head + payload


def replying(reply):
    """A transport whose every reply is `reply`."""
    return LoopbackTransport(SimpleNamespace(dispatch=lambda data: reply))


def corrupt_key_bundles(reply):
    """KEY_BUNDLE replies cut short or padded, and one whose first split pattern is not 0/1."""
    data = bytes(reply)
    payload = data[protocol.HEADER_SIZE :]
    framing = [data[: len(data) * k // 8] for k in range(8)] + [data + b"\x00"]
    framing += [reframed(reply, payload[: len(payload) * k // 8]) for k in range(8)]
    framing.append(reframed(reply, payload + b"\x00"))
    # 40 bytes of fields, the token count, the tokens and the reserved byte, then the first key block
    (tokens,) = struct.unpack_from("<H", payload, 40)
    first_end = 43 + 32 * tokens + crypto.user_key_file_size(SMALL_CONFIG["filter_bits"])
    bad_pattern = bytearray(payload)
    bad_pattern[first_end - 1] = 7
    return framing, [reframed(reply, bytes(bad_pattern))]


def test_register_refuses_corrupt_key_bundles(small_service):
    (rider,) = make_clients(small_service, roles=("rider",))
    before = rider.registration
    tokens = list(before.tokens)
    reply = small_service.dispatch(register_frame("rider"))
    framing, bad_key_sets = corrupt_key_bundles(reply)
    cases = [(bad, False) for bad in framing] + [(bad, True) for bad in bad_key_sets]
    for bad, bad_key_set in cases:
        rider.transport = replying(bad)
        with pytest.raises(ProtocolError) as err:
            rider.register("rider")
        if bad_key_set:
            assert err.value.code is ErrorCode.BAD_STATE
            assert "('direct', 'rider')" in str(err.value)
        assert rider.registration is before and before.tokens == tokens


# transfer cells of 2*5 + 7 = 17 bits: their key files carry 7 pad bytes
PADDED_CONFIG = SMALL_CONFIG | dict(id_bits=5, time_bits=7)


class FrameKeeper:
    """A transport that keeps the last reply frame it handed back."""

    def __init__(self, transport):
        self.transport = transport
        self.frame = None

    def request(self, data):
        self.frame = self.transport.request(data)
        return self.frame


@pytest.mark.parametrize("connect", [loopback, over_socket])
def test_registered_key_sets_are_read_only_views_of_the_received_frame(connect):
    svc = RideService(ServiceConfig(**PADDED_CONFIG), seed=4)
    with connect(svc) as transport:
        keeper = FrameKeeper(transport)
        for role in ("driver", "rider"):
            reg = ServiceClient(keeper, rng=5).register(role)
            frame = np.frombuffer(keeper.frame.raw, np.uint8)
            for key_set, keys in reg.keysets.items():
                for held in (keys.operand, keys.split_pattern):
                    assert np.shares_memory(held, frame), key_set
                    assert not held.flags.writeable, key_set
                    assert held.flags.aligned and held.flags.c_contiguous, key_set


def test_encrypting_a_trip_allocates_no_operand_sized_temporary(small_service):
    """A trip encrypted from a fresh MaskStock draws its masks with one GEMM
    over the operand, which is read in place, never copied."""
    (driver,) = make_clients(small_service, roles=("driver",))
    reg = driver.registration
    operand_bytes = reg.keysets["direct", "driver"].operand.nbytes
    direct.build_offers([OFFER], reg.keysets, reg.params, reg.epoch, reg.salt, reg.masks)
    masks = crypto.MaskStock(np.random.default_rng(6))
    tracemalloc.start()
    try:
        direct.build_offers([OFFER], reg.keysets, reg.params, reg.epoch, reg.salt, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < operand_bytes / 4


def test_register_refuses_bad_padding_or_a_misaligned_block_and_keeps_its_registration():
    svc = RideService(ServiceConfig(**PADDED_CONFIG), seed=4)
    (rider,) = make_clients(svc, roles=("rider",))
    before = rider.registration
    tokens = list(before.tokens)
    reply = bytes(svc.dispatch(register_frame("rider")))
    (count,) = struct.unpack_from("<H", reply, protocol.HEADER_SIZE + 40)
    reserved = protocol.HEADER_SIZE + 42 + 32 * count
    assert reserved + 1 == 88 + 32 * count
    # the rider's second key file is its 17-bit transfer set; its last byte is padding
    transfer_end = reserved + 1 + sum(crypto.user_key_file_size(d) for d in (320, 17))
    cases = {"reserved byte": reserved, "padding": transfer_end - 1}
    for message, at in cases.items():
        bad = bytearray(reply)
        bad[at] = 1
        cases[message] = bytes(bad)
    cases["aligned"] = memoryview(bytearray(1) + reply)[1:]
    for message, bad in cases.items():
        rider.transport = replying(bad)
        with pytest.raises(ProtocolError, match=message) as err:
            rider.register("rider")
        assert err.value.code is ErrorCode.BAD_STATE
        assert rider.registration is before and before.tokens == tokens
    rider.transport = replying(reply)
    assert rider.register("rider") is not before


def bundle_reply(reg, config, key_files, **fields):
    """A one-token KEY_BUNDLE reply in `reg`'s epoch, with `config`'s fields
    (overridden by `fields`) and `key_files` as its key blocks."""
    fields = {name: getattr(config, name) for name in (
        "filter_bits", "n_hashes", "id_bits", "time_bits", "time_slots", "max_items"
    )} | fields
    header = (reg.epoch, reg.salt, *fields.values())
    return oracles.key_bundle_frame(reg.epoch, header, key_files, [bytes(32)])


def assert_refused_by_block_size(client, role, reply):
    before = client.registration
    client.transport = replying(reply)
    with pytest.raises(ProtocolError, match="key blocks take") as err:
        client.register(role)
    assert err.value.code is ErrorCode.BAD_STATE
    assert client.registration is before


def role_key_files(client):
    return [crypto.key_material_to_bytes(keys) for keys in client.registration.keysets.values()]


def test_register_refuses_key_sets_of_the_wrong_width(small_service, knn64):
    """A key set of the wrong width in any slot fails the block-size check."""
    rider, driver = make_clients(small_service, roles=("rider", "driver"))
    narrow = crypto.key_material_to_bytes(knn64.rider)
    for role, client in (("rider", rider), ("driver", driver)):
        files = role_key_files(client)
        for i in range(len(files)):
            key_files = files[:i] + [narrow] + files[i + 1 :]
            reply = bundle_reply(client.registration, small_service.config, key_files)
            assert_refused_by_block_size(client, role, reply)


def test_register_refuses_bundles_without_their_roles_key_sets(small_service):
    """Blocks laid out for the other role, or with a key set missing or
    added, fail the block-size check; blocks laid out by the plan register."""
    rider, driver = make_clients(small_service, roles=("rider", "driver"))
    clients = {"rider": rider, "driver": driver}
    files = {role: role_key_files(c) for role, c in clients.items()}
    cases = [("rider", files["driver"]), ("driver", files["rider"])]
    for role in clients:
        cases += [(role, files[role][:-1]), (role, files[role] + files[role][:1])]
    for role, key_files in cases:
        client = clients[role]
        reply = bundle_reply(client.registration, small_service.config, key_files)
        assert_refused_by_block_size(client, role, reply)
    for role, client in clients.items():
        client.transport = replying(bundle_reply(client.registration, small_service.config, files[role]))
        assert tuple(client.register(role).keysets) == protocol.PLANS[role]


@pytest.mark.parametrize("fields", [
    dict(n_hashes=0), dict(n_hashes=SMALL_CONFIG["filter_bits"] + 1), dict(max_items=0),
    dict(time_slots=0), dict(id_bits=0), dict(time_bits=0), dict(filter_bits=1, n_hashes=1),
], ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items()))
def test_register_refuses_a_bundle_header_no_submission_can_use(small_service, fields):
    """The service config, the experiment config and a client's bundle
    decoder hold the encoding parameters to one rule."""
    values = {**SMALL_CONFIG, **fields}
    with pytest.raises(ValueError):
        ServiceConfig(**values)
    with pytest.raises(ValueError):
        ExperimentConfig(**values)
    (rider,) = make_clients(small_service, roles=("rider",))
    before = rider.registration
    key_files = [crypto.key_material_to_bytes(keys) for keys in before.keysets.values()]
    rider.transport = replying(bundle_reply(before, small_service.config, key_files, **fields))
    with pytest.raises(ProtocolError, match="no submission can use") as err:
        rider.register("rider")
    assert err.value.code is ErrorCode.BAD_STATE
    assert rider.registration is before
    # at the edge of the range, the same bundle registers
    edge = bundle_reply(before, small_service.config, key_files, n_hashes=SMALL_CONFIG["filter_bits"])
    rider.transport = replying(edge)
    assert rider.register("rider").params.n_hashes == SMALL_CONFIG["filter_bits"]

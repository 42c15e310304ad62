import numpy as np
import pytest

import oracles
from support import SMALL_CONFIG
from ridecloak import crypto, protocol, service, transfer
from ridecloak.client import (
    LoopbackTransport,
    ServerError,
    ServiceClient,
    SocketTransport,
    TokenError,
)
from ridecloak.direct import MatchCase, OfferSpec, RequestSpec
from ridecloak.protocol import ErrorCode, MsgType
from ridecloak.service import RideService, ServiceConfig, SocketServer


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


def test_config_text_round_trip(tmp_path):
    cfg = ServiceConfig(**SMALL_CONFIG)
    path = tmp_path / "service.cfg"
    path.write_text(cfg.to_text() + "# trailing comment\n")
    assert ServiceConfig.from_file(str(path)) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        ServiceConfig.from_text("wheels = 4\n")
    with pytest.raises(ValueError, match="key=value"):
        ServiceConfig.from_text("just words\n")


def test_register_roles_and_key_shapes(small_service):
    driver, rider = make_clients(small_service)
    assert set(driver.registration.keysets) == {
        "direct-driver", "transfer-plus", "transfer-minus",
    }
    assert set(rider.registration.keysets) == {"direct-rider", "transfer-rider"}
    assert driver.registration.keysets["direct-driver"].dim == SMALL_CONFIG["filter_bits"]
    cell_bits = 2 * SMALL_CONFIG["id_bits"] + SMALL_CONFIG["time_bits"]
    assert driver.registration.keysets["transfer-plus"].dim == cell_bits
    assert driver.registration.keysets["transfer-plus"].role == "driver"
    assert driver.registration.keysets["transfer-minus"].role == "rider"
    assert len(driver.registration.tokens) == small_service.config.tokens_per_bundle
    # unknown role byte, past the client-side enum
    frame = protocol.encode_frame(MsgType.REGISTER_USER, 1, protocol.ZERO_TOKEN, b"\x09")
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, _ = protocol.decode_error(reply.payload)
    assert code is ErrorCode.MALFORMED


def test_two_registrations_get_distinct_keys(small_service):
    a, b = make_clients(small_service, roles=("driver", "driver"))
    ka = a.registration.keysets["direct-driver"].parts[0]
    kb = b.registration.keysets["direct-driver"].parts[0]
    assert not np.array_equal(ka, kb)
    assert not set(a.registration.tokens) & set(b.registration.tokens)


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


def offer_frame(driver, token, dim=None, epoch=None):
    """Hand-built SUBMIT_OFFER frame, bypassing client-side validation."""
    rng = np.random.default_rng(55)
    if dim is None:
        keys = driver.registration.keysets["direct-driver"]
    else:
        master = crypto.generate_master_key(dim, rng)
        secrets = crypto.generate_tos_secrets(dim, rng)
        keys = crypto.KeyDeriver(master, secrets).derive("driver", rng)
    blob = protocol.index_blob(crypto.encrypt_index(np.zeros(keys.dim), keys, rng))
    return protocol.encode_frame(
        MsgType.SUBMIT_OFFER,
        driver.registration.epoch if epoch is None else epoch,
        token,
        protocol.encode_submit_offer(
            protocol.DirectOfferPayload(1, (MatchCase.AREA,), b"", [blob] * 4)
        ),
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
    driver, _ = make_clients(small_service)
    driver.registration.tokens.clear()
    with pytest.raises(TokenError, match="tokens"):
        driver.submit_direct_offer(OFFER)


def test_stale_epoch_rejected(small_service):
    driver, _ = make_clients(small_service)
    driver.registration.epoch += 1
    with pytest.raises(ServerError) as exc_info:
        driver.submit_direct_offer(OFFER)
    assert exc_info.value.code is ErrorCode.STALE_EPOCH


def test_wrong_dimension_rejected(small_service):
    driver, _ = make_clients(small_service)
    rng = np.random.default_rng(0)
    master = crypto.generate_master_key(64, rng)
    secrets = crypto.generate_tos_secrets(64, rng)
    keys = crypto.KeyDeriver(master, secrets).derive("driver", rng)
    blob = protocol.index_blob(crypto.encrypt_index(np.zeros(64), keys, rng))
    frame = protocol.encode_frame(
        MsgType.SUBMIT_OFFER, driver.registration.epoch, driver.registration.tokens.pop(),
        protocol.encode_submit_offer(
            protocol.DirectOfferPayload(1, (MatchCase.AREA,), b"", [blob] * 4)
        ),
    )
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, _ = protocol.decode_error(reply.payload)
    assert code is ErrorCode.BAD_DIMENSION


def test_transfer_offer_needs_two_cells(small_service):
    driver, _ = make_clients(small_service)
    frame = protocol.encode_frame(
        MsgType.SUBMIT_OFFER, driver.registration.epoch, driver.registration.tokens.pop(),
        protocol.encode_submit_offer(
            protocol.TransferOfferPayload(capacity=2, contact=b"", cells=[(b"x", b"y")])
        ),
    )
    reply, _ = protocol.decode_frame(small_service.dispatch(frame))
    code, message = protocol.decode_error(reply.payload)
    assert code is ErrorCode.BAD_STATE and "2 cells" in message


def server_state(svc):
    srv = svc.server
    return (
        set(srv.unused_tokens), set(srv.direct_offers), set(srv.direct_requests),
        set(srv.transfer_offers), set(srv.transfer_requests), set(srv.graph.nodes),
        srv.graph.edge_count(), srv._counter,
    )


def corrupt_nonfinite(blob, value):
    parts = np.frombuffer(blob[6:], dtype="<f8").copy()
    parts[len(parts) // 2] = value
    return blob[:6] + parts.astype("<f8").tobytes()


def corrupt_orientation(blob, _value):
    return bytes([7]) + blob[1:]


def corrupted_frames(driver, rider, corrupt, value):
    """A direct offer, a transfer offer and a transfer request, each with one bad blob."""
    rng = np.random.default_rng(9)
    reg, rreg = driver.registration, rider.registration
    keys = reg.keysets["direct-driver"]
    direct_blob = protocol.index_blob(crypto.encrypt_index(np.zeros(keys.dim), keys, rng))
    direct = protocol.DirectOfferPayload(
        1, (MatchCase.AREA,), b"", [direct_blob] * 3 + [corrupt(direct_blob, value)]
    )
    offer = transfer.build_transfer_offer(
        "local", [(1, 1), (2, 1)], reg.keysets["transfer-plus"], reg.keysets["transfer-minus"],
        reg.bundle.id_bits, reg.bundle.time_bits, 2, rng,
    )
    cells = [(protocol.index_blob(c.plus), protocol.index_blob(c.minus)) for c in offer.cells]
    cells[1] = (corrupt(cells[1][0], value), cells[1][1])
    request = transfer.build_transfer_request(
        "local", (1, 1), (2, 1), rreg.keysets["transfer-rider"],
        rreg.bundle.id_bits, rreg.bundle.time_bits, rng=rng,
    )
    routed = protocol.TransferRequestPayload(
        contact=b"", preference=transfer.DEFAULT_PREFERENCE,
        pickup=protocol.index_blob(request.pickup),
        dropoff=corrupt(protocol.index_blob(request.dropoff), value),
    )
    return [
        protocol.encode_frame(MsgType.SUBMIT_OFFER, reg.epoch, reg.tokens.pop(),
                              protocol.encode_submit_offer(direct)),
        protocol.encode_frame(MsgType.SUBMIT_OFFER, reg.epoch, reg.tokens.pop(),
                              protocol.encode_submit_offer(protocol.TransferOfferPayload(2, b"", cells))),
        protocol.encode_frame(MsgType.SUBMIT_REQUEST, rreg.epoch, rreg.tokens.pop(),
                              protocol.encode_submit_request(routed)),
    ]


@pytest.mark.parametrize("corrupt, value", [
    (corrupt_nonfinite, np.nan),
    (corrupt_nonfinite, np.inf),
    (corrupt_nonfinite, -np.inf),
    (corrupt_orientation, None),
])
def test_impossible_ciphertexts_rejected_without_state_change(small_service, corrupt, value):
    driver, rider = make_clients(small_service)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    for frame in corrupted_frames(driver, rider, corrupt, value):
        before = server_state(small_service)
        reply_bytes = small_service.dispatch(frame)
        assert protocol.decode_frame(reply_bytes)[1] == b""
        assert error_code(reply_bytes) is ErrorCode.MALFORMED
        assert server_state(small_service) == before


@pytest.mark.parametrize("field, value", [
    ("tokens_per_bundle", 70000), ("tokens_per_bundle", 0), ("filter_bits", 1),
    ("default_capacity", 65536), ("path_limit", 0), ("match_threshold", -1), ("port", 70000),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        ServiceConfig.from_text(f"{field} = {value}\n")


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
    _, rider = make_clients(small_service)
    with pytest.raises(RuntimeError, match="direct-driver"):
        rider.submit_direct_offer(OFFER)


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
    ids = {}
    for name, client in (("d1", d1), ("d2", d2), ("d3", d3)):
        ids[name] = client.submit_transfer_offer(
            oracles.HANDOFF_ROUTES[name], capacity=4, contact=name.encode()
        )
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
    boarding = protocol.index_from_blob(note.transfer_ciphers[0])
    assert boarding.orientation == "column" and not boarding.unmasked

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


def test_no_plaintext_trip_state_on_server(small_service):
    """Structural check: nothing key- or plaintext-shaped hangs off the server."""
    from ridecloak.bloom import BloomFilter
    from ridecloak.crypto import MasterKey, UserKeySet
    from ridecloak.service import TrustedAuthority

    driver, rider = make_clients(small_service)
    driver.submit_direct_offer(OFFER)
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    rider.submit_direct_request(REQUEST)
    rider.submit_transfer_request((1, 1), (3, 1))
    small_service.run_matching()

    forbidden = (TrustedAuthority, MasterKey, UserKeySet, BloomFilter)
    hits = [
        type(obj).__name__
        for obj in oracles.reachable_instances(small_service.server)
        if isinstance(obj, forbidden)
    ]
    assert hits == []

import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
import support
from ridecloak import crypto, protocol
from ridecloak.client import ServiceClient
from ridecloak.crypto import EncryptedIndex
from ridecloak.direct import DirectOffer, DirectRequest, MatchCase
from ridecloak.protocol import (
    DirectNotification,
    EpochAnnounce,
    ErrorCode,
    Frame,
    KeyBundle,
    MsgType,
    Preference,
    PreferenceKind,
    ProtocolError,
    TransferNotification,
    ZERO_TOKEN,
)
from ridecloak.transfer import TransferCellCipher, TransferOffer, TransferRequest


def sample_indexes(count=4, dim=16, seed=0, role="rider"):
    rng = np.random.default_rng(seed)
    derivers, _ = crypto.generate_keys({"sample": dim}, rng)
    keys = derivers["sample"].derive(role, rng)
    return [support.encrypt_index(np.zeros(dim), keys, rng) for _ in range(count)]


# The scheme widths in these tests, and a direct trip's index widths at them:
# three filters, then time.
WIDTHS = {"direct": 16, "transfer": 16, "time": 6}
DIRECT_DIMS = (16, 16, 16, 6)


def direct_indexes(seed=0, role="rider"):
    """A direct trip's four indexes at DIRECT_DIMS."""
    return sample_indexes(3, seed=seed, role=role) + sample_indexes(1, 6, seed, role)


def oracle_blobs(indexes):
    """Index blobs laid out by the independent encoder."""
    return [oracles.encrypted_index(ix.parts) for ix in indexes]


def same_indexes(a, b):
    def fields(indexes):
        return [ix.to_bytes() for ix in indexes]

    return fields(a) == fields(b)


def test_frame_round_trip():
    token = bytes(range(32))
    data = protocol.encode_frame(MsgType.SUBMIT_OFFER, 7, token, b"hello")
    frame, rest = protocol.decode_frame(data + b"extra")
    assert rest == b"extra"
    assert frame.msg_type is MsgType.SUBMIT_OFFER
    assert frame.epoch == 7
    assert frame.token == token
    assert frame.payload == b"hello"


def test_frame_header_size():
    data = protocol.encode_frame(MsgType.ERROR, 0, ZERO_TOKEN, b"")
    assert len(data) == protocol.HEADER_SIZE


def test_frame_errors():
    with pytest.raises(ValueError, match="token"):
        protocol.encode_frame(MsgType.ERROR, 0, b"short", b"")
    with pytest.raises(ProtocolError, match="short frame header"):
        protocol.decode_frame(b"\x00\x00")
    good = protocol.encode_frame(MsgType.ERROR, 0, ZERO_TOKEN, b"xy")
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.decode_frame(good[:-1])
    bad_type = bytearray(good)
    bad_type[4] = 250
    with pytest.raises(ProtocolError, match="message type"):
        protocol.decode_frame(bytes(bad_type))
    bad_len = bytearray(good)
    bad_len[0:4] = (2).to_bytes(4, "little")
    with pytest.raises(ProtocolError, match="frame length"):
        protocol.decode_frame(bytes(bad_len))


def test_read_frame_over_socket():
    a, b = socket.socketpair()
    try:
        a.sendall(protocol.encode_frame(MsgType.REGISTER_USER, 3, ZERO_TOKEN, b"p"))
        frame = protocol.read_frame(b)
        assert frame.msg_type is MsgType.REGISTER_USER and frame.payload == b"p"
        a.close()
        assert protocol.read_frame(b) is None
    finally:
        b.close()


def test_read_frame_holds_one_copy_of_a_large_frame():
    """An N-byte frame is received into one N-byte buffer; the payload is a view of it."""
    payload = bytes(range(256)) * (8 * 4096)
    data = protocol.encode_frame(MsgType.KEY_BUNDLE, 2, ZERO_TOKEN, payload)
    a, b = socket.socketpair()
    sender = threading.Thread(target=a.sendall, args=(data,))
    tracemalloc.start()
    try:
        sender.start()
        frame = protocol.read_frame(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sender.join(timeout=30)
        a.close()
        b.close()
    assert not sender.is_alive()
    assert isinstance(frame.payload, memoryview) and frame.payload == payload
    assert peak <= 1.05 * len(data) + 64 * 1024


def test_read_frame_mid_stream_eof():
    a, b = socket.socketpair()
    try:
        data = protocol.encode_frame(MsgType.ERROR, 0, ZERO_TOKEN, b"payload")
        a.sendall(data[:10])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.read_frame(b)
    finally:
        b.close()


def test_register_round_trip():
    for role in ("driver", "rider"):
        assert protocol.decode_register(protocol.encode_register(role)) == role
    with pytest.raises(ValueError, match="role must be 'driver' or 'rider', got 'server'"):
        protocol.encode_register("server")
    with pytest.raises(ProtocolError, match="role"):
        protocol.decode_register(b"\x09")


def test_ack_round_trip():
    for name in ("o1", "offre-noël", ""):
        assert protocol.decode_ack(protocol.encode_ack(name)) == name


def test_key_bundle_round_trip(knn64):
    bundle = KeyBundle(
        epoch=4, salt=99, filter_bits=320, n_hashes=4, id_bits=6, time_bits=4,
        time_slots=48, max_items=60,
        tokens=[bytes([i]) * 32 for i in range(5)],
    )
    key_file = crypto.key_material_to_bytes(knn64.rider)
    back, blocks = protocol.decode_key_bundle(protocol.encode_key_bundle(bundle, key_file * 2))
    assert back == bundle and bytes(blocks) == key_file * 2
    keys = crypto.key_material_from_bytes(blocks[: len(key_file)], "rider", 64)
    assert keys.role == "rider" and keys.dim == 64
    with pytest.raises(ValueError, match="token"):
        protocol.encode_key_bundle(KeyBundle(1, 1, 64, 4, 6, 4, 48, 60, [b"short"]), b"")


def test_direct_offer_payload_round_trip():
    offer = DirectOffer(
        "o7", 3, (MatchCase.ROUTE, MatchCase.AREA), *direct_indexes(role="driver"), b"call-me"
    )
    payload = protocol.encode_submit_offer(offer)
    assert payload == oracles.direct_offer_payload(
        3, ["route", "area"], b"call-me", oracle_blobs(offer.indexes())
    )
    back = protocol.decode_submit_offer(payload, WIDTHS)
    assert isinstance(back, DirectOffer) and back.offer_id == ""
    assert (back.capacity, back.cases, back.contact) == (3, offer.cases, b"call-me")
    assert same_indexes(back.indexes(), offer.indexes())
    assert [ix.dim for ix in back.indexes()] == list(DIRECT_DIMS)
    # the widths come from the caller's table: a block of any other size is refused
    filters = oracle_blobs(offer.indexes())[:3]
    wrong_blocks = {
        "three indexes": filters,
        "filter-width time index": filters + filters[:1],
        "truncated time index": filters + [oracle_blobs(offer.indexes())[3][:-8]],
    }
    for name, blobs in wrong_blocks.items():
        with pytest.raises(ProtocolError, match="ciphertext block") as exc_info:
            protocol.decode_submit_offer(
                oracles.direct_offer_payload(1, ["area"], b"", blobs), WIDTHS
            )
        assert exc_info.value.code is ErrorCode.BAD_DIMENSION, name


def test_transfer_offer_payload_round_trip():
    for count in (3, 0):  # no cells: an empty block
        plus = sample_indexes(count, role="driver")
        minus = sample_indexes(count, seed=1)
        offer = TransferOffer("local", 2, [TransferCellCipher(p, m) for p, m in zip(plus, minus)])
        payload = protocol.encode_submit_offer(offer)
        assert payload == oracles.transfer_offer_payload(
            2, b"", list(zip(oracle_blobs(plus), oracle_blobs(minus)))
        )
        back = protocol.decode_submit_offer(payload, WIDTHS)
        assert isinstance(back, TransferOffer) and back.offer_id == ""
        assert (back.capacity, back.contact, len(back.cells)) == (2, b"", count)
        assert same_indexes([c.plus for c in back.cells], plus)
        assert same_indexes([c.minus for c in back.cells], minus)


def test_direct_request_payload_round_trip():
    request = DirectRequest("r1", *direct_indexes(seed=1), b"r")
    payload = protocol.encode_submit_request(request)
    assert payload == oracles.direct_request_payload(b"r", oracle_blobs(request.indexes()))
    back = protocol.decode_submit_request(payload, WIDTHS)
    assert isinstance(back, DirectRequest) and back.request_id == ""
    assert back.contact == b"r" and same_indexes(back.indexes(), request.indexes())


@pytest.mark.parametrize("pref", [
    Preference(PreferenceKind.MIN_CELLS),
    Preference(PreferenceKind.MIN_CELLS_TRANSFERS),
    Preference(PreferenceKind.MAX_TRANSFERS, transfers_limit=0),
    Preference(PreferenceKind.MAX_CELLS_TRANSFERS, cells_limit=12, transfers_limit=2),
])
def test_transfer_request_payload_round_trip(pref):
    pickup, dropoff = sample_indexes(2, seed=2)
    request = TransferRequest("local", pickup, dropoff, pref, b"c")
    payload = protocol.encode_submit_request(request)
    assert payload == oracles.transfer_request_payload(
        b"c", pref.kind.value, pref.cells_limit, pref.transfers_limit,
        *oracle_blobs([pickup, dropoff]),
    )
    back = protocol.decode_submit_request(payload, WIDTHS)
    assert isinstance(back, TransferRequest) and back.request_id == ""
    assert (back.preference, back.contact) == (pref, b"c")
    assert same_indexes([back.pickup, back.dropoff], [pickup, dropoff])


_ZERO_INDEX = EncryptedIndex(np.zeros((crypto.PART_COUNT, 1)))


@pytest.mark.parametrize("offer", [
    DirectOffer("", -1, (MatchCase.AREA,), *[_ZERO_INDEX] * 4),
    TransferOffer("", 2, [TransferCellCipher(_ZERO_INDEX, _ZERO_INDEX)] * 65536),
], ids=["negative-capacity", "too-many-cells"])
def test_out_of_range_fields_raise_protocol_error(offer):
    with pytest.raises(ProtocolError) as exc_info:
        protocol.encode_submit_offer(offer)
    assert exc_info.value.code is ErrorCode.MALFORMED


def test_unknown_scheme_rejected():
    with pytest.raises(ProtocolError, match="scheme"):
        protocol.decode_submit_offer(b"\x07", WIDTHS)
    with pytest.raises(ProtocolError, match="scheme"):
        protocol.decode_submit_request(b"\x07", WIDTHS)
    with pytest.raises(ProtocolError, match="scheme"):
        protocol.decode_notification(b"\x07")


def test_payload_underruns_rejected():
    payload = protocol.encode_submit_offer(
        DirectOffer("", 1, (MatchCase.AREA,), *direct_indexes(seed=3), b"contact")
    )
    with pytest.raises(ProtocolError, match="underrun"):
        protocol.decode_submit_offer(payload[:6], WIDTHS)  # cut inside the contact's length
    ann = protocol.encode_epoch_announce(EpochAnnounce(1, 2, 3, 4))
    with pytest.raises(ProtocolError, match="underrun"):
        protocol.decode_epoch_announce(ann[:-1])
    with pytest.raises(ProtocolError, match="trailing"):
        protocol.decode_epoch_announce(ann + b"\x00")


def test_notification_round_trips():
    direct = DirectNotification("r4", "o2", MatchCase.EXTENDED, b"ping")
    assert protocol.decode_notification(protocol.encode_notification(direct)) == direct
    handoff = TransferNotification(
        "r9", ["o1", "o5"], [b"a", b"b"], [sample_indexes(1, seed=4)[0].to_bytes()]
    )
    assert protocol.decode_notification(protocol.encode_notification(handoff)) == handoff
    batch = [direct, handoff]
    assert protocol.decode_notification_batch(protocol.encode_notification_batch(batch)) == batch
    assert protocol.decode_notification_batch(protocol.encode_notification_batch([])) == []


def test_notification_poll_round_trip():
    ids = ["o1", "r2", "r10"]
    assert protocol.decode_notification_poll(protocol.encode_notification_poll(ids)) == ids


def test_epoch_announce_round_trip():
    ann = EpochAnnounce(epoch=9, salt=2**62, purged_offers=3, purged_requests=7)
    assert protocol.decode_epoch_announce(protocol.encode_epoch_announce(ann)) == ann


def test_error_round_trip():
    payload = protocol.encode_error(ErrorCode.STALE_EPOCH, "epoch 3 is over")
    assert protocol.decode_error(payload) == (ErrorCode.STALE_EPOCH, "epoch 3 is over")


def test_encrypted_index_round_trip(knn64):
    rng = np.random.default_rng(11)
    idx = support.encrypt_index(np.ones(knn64.dim), knn64.rider, rng)
    payload = protocol.encode_submit_request(DirectRequest("", idx, idx, idx, idx))
    widths = dict.fromkeys(("direct", "transfer", "time"), knn64.dim)
    back = protocol.decode_submit_request(payload, widths).pickup
    np.testing.assert_array_equal(back.parts, idx.parts)
    # a block of the wrong size has the wrong widths, in either scheme
    bad = [b"\x01\x02\x03"] * 2
    for payload in [
        oracles.transfer_request_payload(b"", "min-cells", None, None, *bad),
        oracles.direct_request_payload(b"", bad * 2),
    ]:
        with pytest.raises(ProtocolError, match="ciphertext block") as exc_info:
            protocol.decode_submit_request(payload, widths)
        assert exc_info.value.code is ErrorCode.BAD_DIMENSION


def _cell_indexes(offer):
    return [ix for c in offer.cells for ix in (c.plus, c.minus)]


@pytest.mark.parametrize("encode, decode, trip, indexes", [
    (protocol.encode_submit_offer, protocol.decode_submit_offer,
     lambda ix: DirectOffer("", 1, (MatchCase.AREA,), *ix), DirectOffer.indexes),
    (protocol.encode_submit_request, protocol.decode_submit_request,
     lambda ix: DirectRequest("", *ix), DirectRequest.indexes),
    (protocol.encode_submit_offer, protocol.decode_submit_offer,
     lambda ix: TransferOffer("", 1, [TransferCellCipher(*ix[:2]), TransferCellCipher(*ix[2:])]),
     _cell_indexes),
    (protocol.encode_submit_request, protocol.decode_submit_request,
     lambda ix: TransferRequest("", *ix[:2]), lambda r: [r.pickup, r.dropoff]),
], ids=["direct-offer", "direct-request", "transfer-offer", "transfer-request"])
def test_decoded_indexes_hold_no_view_of_the_frame(encode, decode, trip, indexes):
    payload = encode(trip(sample_indexes(seed=5)))
    buf = np.frombuffer(
        bytearray(protocol.encode_frame(MsgType.SUBMIT_OFFER, 1, ZERO_TOKEN, payload)), dtype=np.uint8
    )
    frame, _ = protocol.decode_frame(memoryview(buf))
    decoded = indexes(decode(frame.payload, dict.fromkeys(WIDTHS, 16)))
    assert decoded and not any(np.shares_memory(ix.parts, buf) for ix in decoded)


def _note_with_case_code(code):
    good = protocol.encode_notification(DirectNotification("r4", "o2", MatchCase.AREA, b""))
    at = 1 + 4 + len("r4") + 4 + len("o2")  # scheme, then the two ids
    return good[:at] + bytes([code]) + good[at + 1 :]


BAD_CASE_NOTE = _note_with_case_code(9)
BAD_CASE_BATCH = struct.pack("<HI", 1, len(BAD_CASE_NOTE)) + BAD_CASE_NOTE


@pytest.mark.parametrize("decode, payload", [
    (protocol.decode_notification, BAD_CASE_NOTE),
    (protocol.decode_notification_batch, BAD_CASE_BATCH),
    (protocol.decode_error, struct.pack("<HI", 99, 0)),
    (protocol.decode_error, struct.pack("<HI", 0, 0)),
], ids=["case-code", "case-code-in-batch", "error-code-99", "error-code-0"])
def test_client_decoders_reject_unknown_codes(decode, payload):
    with pytest.raises(ProtocolError, match="unknown") as exc_info:
        decode(payload)
    assert exc_info.value.code is ErrorCode.MALFORMED


class _CannedTransport:
    """Answers every request with one fixed reply frame."""

    def __init__(self, msg_type, payload):
        self.reply = Frame(msg_type, 0, ZERO_TOKEN, memoryview(payload))

    def request(self, data):
        return self.reply


@pytest.mark.parametrize("msg_type, payload", [
    (MsgType.MATCH_NOTIFICATION, BAD_CASE_BATCH),
    (MsgType.ERROR, struct.pack("<HI", 99, 0)),
], ids=["notification", "error"])
def test_poll_on_a_corrupt_reply_raises_protocol_error(msg_type, payload):
    client = ServiceClient(_CannedTransport(msg_type, payload))
    with pytest.raises(ProtocolError) as exc_info:
        client.poll(["r1"])
    assert exc_info.value.code is ErrorCode.MALFORMED

"""Wire protocol: length-prefixed binary frames and payload codecs.

Frame layout (all integers little-endian):

    u32 length | u8 msg_type | u64 epoch | 32-byte token | payload

`length` counts everything after itself. The token authorizes one
submission and is all-zero where no authorization applies (registration,
epoch queries, server replies). Replies mirror the request's message type;
failures come back as ERROR frames and leave server state unchanged.

A SUBMIT_OFFER or SUBMIT_REQUEST payload ends in one ciphertext block:
its encrypted indexes back to back, each as 8*dim little-endian float64
(the eight parts, row-major), with nothing between them. No width travels.
A layout is the scheme of each index, and there are two: `DIRECT_TRIP`
(pick-up, drop-off, route, time) for direct offers and requests, and
`TRANSFER_PAIR`, once per announced cell of a transfer offer (plus, minus)
and once for a transfer request (pick-up, drop-off). The decoder sizes
every block by one rule: each index is its scheme's width in the caller's
`Params.widths` table, and a block of any other size is refused with
BAD_DIMENSION. All indexes are masked; the submission kind and an index's
place fix the role of the key set it is unmasked under (`ROLE_KEY_SETS`).

A KEY_BUNDLE payload is `u64 epoch | u64 salt | six u32 | u16 token count
| tokens | key blocks`. The six u32 are a `Params` in field order, and a
header that breaks `Params`' rule is refused with BAD_STATE. The key
blocks are the registered role's `ROLE_KEY_SETS` entries back to back, to
the end of the payload: each is a key file (`crypto.user_key_file`),
8*d*d little-endian float64 parts then d split-pattern bytes, with d its
scheme's width at the header's widths. No name, length or role travels
with a key block: both ends hold the plan, and `key_blocks` cuts a
payload's blocks by it.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from dataclasses import dataclass

import numpy as np

from . import crypto
from .crypto import PART_COUNT, EncryptedIndex
from .direct import CASES, DirectOffer, DirectRequest, MatchCase
from .transfer import (
    Preference,
    PreferenceKind,
    TransferCellCipher,
    TransferOffer,
    TransferRequest,
    cell_vector_bits,
)

HEADER_SIZE = 4 + 1 + 8 + 32
TOKEN_SIZE = 32
ZERO_TOKEN = b"\x00" * TOKEN_SIZE
MAX_FRAME_SIZE = 1024 * 1024 * 1024  # key bundles carry dense matrices and get big
_FRAME_HEAD = struct.Struct("<IBQ")  # length, msg_type, epoch; the token follows


class MsgType(enum.IntEnum):
    REGISTER_USER = 1
    KEY_BUNDLE = 2
    SUBMIT_OFFER = 3
    SUBMIT_REQUEST = 4
    MATCH_NOTIFICATION = 5
    EPOCH_ANNOUNCE = 6
    ERROR = 7


class ErrorCode(enum.IntEnum):
    MALFORMED = 1
    BAD_TOKEN = 2
    STALE_EPOCH = 3
    BAD_DIMENSION = 4
    BAD_STATE = 5


class ProtocolError(Exception):
    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Frame:
    """One decoded frame; `payload` is a view of the buffer it was decoded from."""

    msg_type: MsgType
    epoch: int
    token: bytes
    payload: memoryview


def frame_length(payload_size: int) -> int:
    """The length field of a frame carrying `payload_size` bytes: what MAX_FRAME_SIZE bounds."""
    return HEADER_SIZE - 4 + payload_size


def _frame_header(msg_type: MsgType, epoch: int, token: bytes, payload_size: int) -> bytes:
    if len(token) != TOKEN_SIZE:
        raise ValueError(f"token must be {TOKEN_SIZE} bytes, got {len(token)}")
    length = frame_length(payload_size)
    if length > MAX_FRAME_SIZE:
        raise ValueError(f"frame too large: {length} bytes")
    return _FRAME_HEAD.pack(length, int(msg_type), epoch) + token


def encode_frame(msg_type: MsgType, epoch: int, token: bytes, payload: bytes | memoryview) -> bytes:
    return _frame_header(msg_type, epoch, token, len(payload)) + payload


def decode_frame(data: bytes | memoryview) -> tuple[Frame, memoryview]:
    """Decode one frame from a buffer; returns (frame, remaining bytes).

    The payload and the remainder are views of `data`, not copies.
    """
    data = memoryview(data)
    if len(data) < 4:
        raise ProtocolError(ErrorCode.MALFORMED, "short frame header")
    (length,) = struct.unpack_from("<I", data)
    if length < HEADER_SIZE - 4 or length > MAX_FRAME_SIZE:
        raise ProtocolError(ErrorCode.MALFORMED, f"bad frame length {length}")
    if len(data) < 4 + length:
        raise ProtocolError(ErrorCode.MALFORMED, "truncated frame")
    _, msg_b, epoch = _FRAME_HEAD.unpack_from(data)
    try:
        msg_type = MsgType(msg_b)
    except ValueError:
        raise ProtocolError(ErrorCode.MALFORMED, f"unknown message type {msg_b}") from None
    token = bytes(data[13:HEADER_SIZE])
    payload = data[HEADER_SIZE : 4 + length]
    return Frame(msg_type, epoch, token, payload), data[4 + length :]


def read_frame(sock) -> Frame | None:
    """Read one frame from a socket; None on clean EOF.

    The frame is received into one buffer, allocated once its length is
    known, and the payload is a view of it.
    """
    head = bytearray(4)
    if not _recv_exact(sock, memoryview(head)):
        return None
    (length,) = struct.unpack("<I", head)
    if length < HEADER_SIZE - 4 or length > MAX_FRAME_SIZE:
        raise ProtocolError(ErrorCode.MALFORMED, f"bad frame length {length}")
    # numpy, not bytearray: large numpy buffers get huge pages where the
    # host offers them, which makes filling a key bundle much cheaper
    buf = memoryview(np.empty(4 + length, dtype=np.uint8))
    buf[:4] = head
    if not _recv_exact(sock, buf[4:]):
        raise ProtocolError(ErrorCode.MALFORMED, "connection closed mid-frame")
    frame, _ = decode_frame(buf)
    return frame


def _recv_exact(sock, buf: memoryview) -> bool:
    """Fill `buf` from the socket; False on EOF before the first byte."""
    got = 0
    while got < len(buf):
        n = sock.recv_into(buf[got:])
        if not n:
            if got == 0:
                return False
            raise ProtocolError(ErrorCode.MALFORMED, "connection closed mid-frame")
        got += n
    return True


class _Writer:
    def __init__(self) -> None:
        self.buf = bytearray()

    def _pack(self, fmt: str, v: int) -> "_Writer":
        try:
            self.buf += struct.pack(fmt, v)
        except struct.error:
            raise ProtocolError(ErrorCode.MALFORMED, f"{v!r} does not fit wire field {fmt}") from None
        return self

    def u8(self, v: int) -> "_Writer":
        return self._pack("<B", v)

    def u16(self, v: int) -> "_Writer":
        return self._pack("<H", v)

    def u32(self, v: int) -> "_Writer":
        return self._pack("<I", v)

    def u64(self, v: int) -> "_Writer":
        return self._pack("<Q", v)

    def blob(self, data: bytes) -> "_Writer":
        self.u32(len(data))
        self.buf += data
        return self

    def text(self, s: str) -> "_Writer":
        return self.blob(s.encode("utf-8"))

    def raw(self, data: bytes) -> "_Writer":
        self.buf += data
        return self

    def indexes(self, indexes: list[EncryptedIndex]) -> "_Writer":
        """The ciphertext block: each index's bare parts, back to back (none: empty)."""
        if indexes:
            block = np.concatenate([idx.flat() for idx in indexes])
            self.buf += block.astype("<f8", copy=False).tobytes()
        return self

    def bytes(self) -> bytes:
        return bytes(self.buf)


class _Reader:
    """Reads fields off a payload; every field comes out as a copy."""

    def __init__(self, data: bytes | memoryview):
        self.data = memoryview(data)
        self.pos = 0

    def _take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise ProtocolError(ErrorCode.MALFORMED, "payload underrun")
        (value,) = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return value

    def u8(self) -> int:
        return self._take("<B")

    def u16(self) -> int:
        return self._take("<H")

    def u32(self) -> int:
        return self._take("<I")

    def u64(self) -> int:
        return self._take("<Q")

    def blob(self) -> bytes:
        """A length-prefixed blob."""
        return self.raw(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise ProtocolError(ErrorCode.MALFORMED, "payload underrun")
        out = bytes(self.data[self.pos : self.pos + size])
        self.pos += size
        return out

    def indexes(self, layout: Layout, widths: dict[str, int]) -> list[EncryptedIndex]:
        """The rest of the payload as the ciphertext block `layout` lays out.

        The block must hold one index per scheme of `layout` in turn, each
        `widths[scheme]` wide, else BAD_DIMENSION. The block is copied
        once, so no index keeps a view of the payload.
        """
        dims = layout_dims(layout, widths)
        size, expected = len(self.data) - self.pos, PART_COUNT * 8 * sum(dims)
        if size != expected:
            raise ProtocolError(
                ErrorCode.BAD_DIMENSION,
                f"a {size}-byte ciphertext block is not {len(layout)} indexes ({expected} B)",
            )
        block = np.frombuffer(self.data, dtype="<f8", offset=self.pos).astype(np.float64)
        self.pos = len(self.data)
        out, start = [], 0
        for dim in dims:
            end = start + PART_COUNT * dim
            out.append(EncryptedIndex(block[start:end].reshape(PART_COUNT, dim)))
            start = end
        return out

    def case(self) -> MatchCase:
        code = self.u8()
        if code >= len(CASES):
            raise ProtocolError(ErrorCode.MALFORMED, f"unknown case code {code}")
        return CASES[code]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(ErrorCode.MALFORMED, "trailing payload bytes")


# --- payload schemas ---------------------------------------------------------

_ROLE_CODE = {"driver": 0, "rider": 1}
_ROLE_NAME = {v: k for k, v in _ROLE_CODE.items()}
_SCHEME_CODE = {"direct": 0, "transfer": 1}


_U32 = 0xFFFFFFFF


@dataclass
class Params:
    """The encoding parameters the server fixes and every user encodes with,
    by default at the paper's widths; each is a u32 of the KEY_BUNDLE header."""

    filter_bits: int = 2048
    n_hashes: int = 24
    id_bits: int = 11
    time_bits: int = 25
    time_slots: int = 48
    max_items: int = 60

    def __post_init__(self) -> None:
        for f in dataclasses.fields(Params):
            low, value = 2 if f.name == "filter_bits" else 1, getattr(self, f.name)
            if not low <= value <= _U32:
                raise ValueError(f"{f.name} must be in [{low}, {_U32}], got {value}")
        if self.n_hashes > self.filter_bits:
            raise ValueError(f"n_hashes {self.n_hashes} must be <= filter_bits {self.filter_bits}")

    @property
    def widths(self) -> dict[str, int]:
        """Each scheme's vector width, in the order `crypto.generate_keys` draws their keys.

        "direct" encrypts a direct trip's Bloom filters and "time" its day-slot vector.
        """
        transfer = cell_vector_bits(self.id_bits, self.time_bits)
        return {"direct": self.filter_bits, "transfer": transfer, "time": self.time_slots}


# A ciphertext block's layout: the scheme of each index, in block order.
Layout = tuple[str, ...]
DIRECT_TRIP: Layout = ("direct",) * 3 + ("time",)
TRANSFER_PAIR: Layout = ("transfer",) * 2  # once per announced cell of a transfer offer


def layout_dims(layout: Layout, widths: dict[str, int]) -> tuple[int, ...]:
    """Each index's width in a block laid out by `layout`."""
    return tuple(widths[scheme] for scheme in layout)


# The key sets a registration carries, per registered role, in the order of
# their key blocks: (name the client keeps them under, scheme, role the key
# set is derived for). A driver encrypts each transfer cell twice: with
# driver keys ("transfer-plus") and with rider keys ("transfer-minus"). A
# direct trip's time index has its own key sets.
ROLE_KEY_SETS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "driver": (
        ("direct-driver", "direct", "driver"),
        ("transfer-plus", "transfer", "driver"),
        ("transfer-minus", "transfer", "rider"),
        ("time-driver", "time", "driver"),
    ),
    "rider": (
        ("direct-rider", "direct", "rider"),
        ("transfer-rider", "transfer", "rider"),
        ("time-rider", "time", "rider"),
    ),
}
_PREF_CODE = {kind: i for i, kind in enumerate(PreferenceKind)}
_PREF_NAME = {v: k for k, v in _PREF_CODE.items()}
_NO_LIMIT = 0xFFFFFFFF


def encode_register(role: str) -> bytes:
    if role not in _ROLE_CODE:
        raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
    return _Writer().u8(_ROLE_CODE[role]).bytes()


def decode_register(payload: bytes) -> str:
    r = _Reader(payload)
    role = r.u8()
    r.done()
    if role not in _ROLE_NAME:
        raise ProtocolError(ErrorCode.MALFORMED, f"unknown role code {role}")
    return _ROLE_NAME[role]


@dataclass
class KeyBundle:
    """Registration reply, key blocks aside: everything else a user needs to participate."""

    epoch: int
    salt: int
    params: Params
    tokens: list[bytes]


def key_blocks_size(role: str, widths: dict[str, int]) -> int:
    """Bytes of a `role` bundle's key blocks at `widths`."""
    return sum(crypto.user_key_file_size(widths[scheme]) for _, scheme, _ in ROLE_KEY_SETS[role])


def key_bundle_size(role: str, params: Params, tokens: int) -> int:
    """Payload bytes of a `role` KEY_BUNDLE with `tokens` tokens at `params`."""
    fields = 8 + 8 + 4 * len(dataclasses.fields(Params)) + 2  # epoch, salt, params, token count
    return fields + TOKEN_SIZE * tokens + key_blocks_size(role, params.widths)


def key_blocks(
    role: str, widths: dict[str, int], blocks: memoryview | np.ndarray
) -> list[tuple[tuple[str, str, str], memoryview | np.ndarray]]:
    """`blocks`, a bundle's key blocks, cut by the `role` plan at `widths`.

    Returns each `ROLE_KEY_SETS[role]` entry with the slice of `blocks`
    holding its key file. Blocks of any size but the plan's are refused
    with BAD_STATE.
    """
    expected = key_blocks_size(role, widths)
    if len(blocks) != expected:
        raise ProtocolError(
            ErrorCode.BAD_STATE,
            f"a {role} bundle's key blocks take {expected} bytes at its widths, got {len(blocks)}",
        )
    out, start = [], 0
    for entry in ROLE_KEY_SETS[role]:
        end = start + crypto.user_key_file_size(widths[entry[1]])
        out.append((entry, blocks[start:end]))
        start = end
    return out


def key_bundle_frame(b: KeyBundle, blocks_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay out a whole KEY_BUNDLE reply frame in one buffer, key blocks unwritten.

    Writes the frame header (with `b.epoch` and the zero token), the bundle
    fields and the tokens. Returns the frame and a writable uint8 view of
    its last `blocks_size` bytes, where the key blocks go.
    """
    w = _Writer().u64(b.epoch).u64(b.salt)
    for f in dataclasses.fields(Params):
        w.u32(getattr(b.params, f.name))
    w.u16(len(b.tokens))
    for token in b.tokens:
        if len(token) != TOKEN_SIZE:
            raise ValueError("token size")
        w.raw(token)
    body = w.bytes()
    head = _frame_header(MsgType.KEY_BUNDLE, b.epoch, ZERO_TOKEN, len(body) + blocks_size) + body
    # numpy, not bytearray: see read_frame
    frame = np.empty(len(head) + blocks_size, dtype=np.uint8)
    frame[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    return frame, frame[len(head) :]


def encode_key_bundle(b: KeyBundle, blocks: bytes | memoryview) -> bytes:
    """A KEY_BUNDLE payload: `b`'s fields and tokens, then the key blocks `blocks`."""
    frame, slot = key_bundle_frame(b, len(blocks))
    slot[:] = np.frombuffer(blocks, dtype=np.uint8)
    return frame[HEADER_SIZE:].tobytes()


def decode_key_bundle(payload: bytes | memoryview) -> tuple[KeyBundle, memoryview]:
    """A KEY_BUNDLE payload's bundle and, as a view of it, its key blocks."""
    r = _Reader(payload)
    epoch, salt = r.u64(), r.u64()
    values = {f.name: r.u32() for f in dataclasses.fields(Params)}
    tokens = [r.raw(TOKEN_SIZE) for _ in range(r.u16())]
    try:
        params = Params(**values)
    except ValueError as exc:
        raise ProtocolError(ErrorCode.BAD_STATE, f"no submission can use this bundle: {exc}") from None
    return KeyBundle(epoch, salt, params, tokens), r.data[r.pos :]


def encode_submit_offer(offer: DirectOffer | TransferOffer) -> bytes:
    """SUBMIT_OFFER payload; the offer id stays client-side."""
    w = _Writer()
    if isinstance(offer, DirectOffer):
        w.u8(_SCHEME_CODE["direct"]).u16(offer.capacity).u8(len(offer.cases))
        for case in offer.cases:
            w.u8(CASES.index(case))
        w.blob(offer.contact).indexes(offer.indexes())
    else:
        w.u8(_SCHEME_CODE["transfer"]).u16(offer.capacity).blob(offer.contact)
        w.u16(len(offer.cells)).indexes([idx for c in offer.cells for idx in (c.plus, c.minus)])
    return w.bytes()


def decode_submit_offer(
    payload: bytes | memoryview, widths: dict[str, int]
) -> DirectOffer | TransferOffer:
    """The submitted offer, with an empty id and masked indexes at `widths`."""
    r = _Reader(payload)
    scheme = r.u8()
    if scheme == _SCHEME_CODE["direct"]:
        capacity = r.u16()
        cases = tuple(r.case() for _ in range(r.u8()))
        contact = r.blob()
        return DirectOffer("", capacity, cases, *r.indexes(DIRECT_TRIP, widths), contact)
    if scheme == _SCHEME_CODE["transfer"]:
        capacity = r.u16()
        contact = r.blob()
        block = r.indexes(TRANSFER_PAIR * r.u16(), widths)
        cells = [TransferCellCipher(p, m) for p, m in zip(block[::2], block[1::2])]
        return TransferOffer("", capacity, cells, contact)
    raise ProtocolError(ErrorCode.MALFORMED, f"unknown scheme code {scheme}")


def encode_submit_request(request: DirectRequest | TransferRequest) -> bytes:
    """SUBMIT_REQUEST payload; the request id stays client-side."""
    w = _Writer()
    if isinstance(request, DirectRequest):
        w.u8(_SCHEME_CODE["direct"]).blob(request.contact).indexes(request.indexes())
    else:
        pref = request.preference
        w.u8(_SCHEME_CODE["transfer"]).blob(request.contact)
        w.u8(_PREF_CODE[pref.kind])
        w.u32(_NO_LIMIT if pref.cells_limit is None else pref.cells_limit)
        w.u32(_NO_LIMIT if pref.transfers_limit is None else pref.transfers_limit)
        w.indexes([request.pickup, request.dropoff])
    return w.bytes()


def decode_submit_request(
    payload: bytes | memoryview, widths: dict[str, int]
) -> DirectRequest | TransferRequest:
    """The submitted request, with an empty id and masked indexes at `widths`."""
    r = _Reader(payload)
    scheme = r.u8()
    if scheme == _SCHEME_CODE["direct"]:
        contact = r.blob()
        return DirectRequest("", *r.indexes(DIRECT_TRIP, widths), contact)
    if scheme == _SCHEME_CODE["transfer"]:
        contact = r.blob()
        kind_code = r.u8()
        if kind_code not in _PREF_NAME:
            raise ProtocolError(ErrorCode.MALFORMED, f"unknown preference code {kind_code}")
        cells_limit = r.u32()
        transfers_limit = r.u32()
        pickup, dropoff = r.indexes(TRANSFER_PAIR, widths)
        try:
            pref = Preference(
                _PREF_NAME[kind_code],
                None if cells_limit == _NO_LIMIT else cells_limit,
                None if transfers_limit == _NO_LIMIT else transfers_limit,
            )
        except ValueError as exc:
            raise ProtocolError(ErrorCode.MALFORMED, str(exc)) from None
        return TransferRequest("", pickup, dropoff, pref, contact)
    raise ProtocolError(ErrorCode.MALFORMED, f"unknown scheme code {scheme}")


def encode_ack(assigned_id: str) -> bytes:
    return _Writer().text(assigned_id).bytes()


def decode_ack(payload: bytes) -> str:
    r = _Reader(payload)
    assigned = r.text()
    r.done()
    return assigned


@dataclass
class DirectNotification:
    subject_id: str  # the recipient's own offer/request id
    peer_id: str
    case: MatchCase
    peer_contact: bytes


@dataclass
class TransferNotification:
    subject_id: str
    segment_offers: list[str]           # offers in riding order
    peer_contacts: list[bytes]          # counterpart contacts, same order
    transfer_ciphers: list[bytes]       # transfer-point cell ciphertexts, verbatim


def encode_notification(note: DirectNotification | TransferNotification) -> bytes:
    w = _Writer()
    if isinstance(note, DirectNotification):
        w.u8(_SCHEME_CODE["direct"]).text(note.subject_id).text(note.peer_id)
        w.u8(CASES.index(note.case)).blob(note.peer_contact)
    else:
        w.u8(_SCHEME_CODE["transfer"]).text(note.subject_id)
        w.u16(len(note.segment_offers))
        for offer_id in note.segment_offers:
            w.text(offer_id)
        w.u16(len(note.peer_contacts))
        for contact in note.peer_contacts:
            w.blob(contact)
        w.u16(len(note.transfer_ciphers))
        for blob in note.transfer_ciphers:
            w.blob(blob)
    return w.bytes()


def decode_notification(payload: bytes) -> DirectNotification | TransferNotification:
    r = _Reader(payload)
    scheme = r.u8()
    if scheme == _SCHEME_CODE["direct"]:
        subject, peer = r.text(), r.text()
        case = r.case()
        contact = r.blob()
        r.done()
        return DirectNotification(subject, peer, case, contact)
    if scheme == _SCHEME_CODE["transfer"]:
        subject = r.text()
        segments = [r.text() for _ in range(r.u16())]
        contacts = [r.blob() for _ in range(r.u16())]
        ciphers = [r.blob() for _ in range(r.u16())]
        r.done()
        return TransferNotification(subject, segments, contacts, ciphers)
    raise ProtocolError(ErrorCode.MALFORMED, f"unknown scheme code {scheme}")


def encode_notification_poll(subject_ids: list[str]) -> bytes:
    """MATCH_NOTIFICATION request: ask for queued notes on one's own ids."""
    w = _Writer().u16(len(subject_ids))
    for sid in subject_ids:
        w.text(sid)
    return w.bytes()


def decode_notification_poll(payload: bytes) -> list[str]:
    r = _Reader(payload)
    ids = [r.text() for _ in range(r.u16())]
    r.done()
    return ids


def encode_notification_batch(
    notes: list[DirectNotification | TransferNotification],
) -> bytes:
    w = _Writer().u16(len(notes))
    for note in notes:
        w.blob(encode_notification(note))
    return w.bytes()


def decode_notification_batch(
    payload: bytes,
) -> list[DirectNotification | TransferNotification]:
    r = _Reader(payload)
    notes = [decode_notification(r.blob()) for _ in range(r.u16())]
    r.done()
    return notes


@dataclass
class EpochAnnounce:
    epoch: int
    salt: int
    purged_offers: int = 0
    purged_requests: int = 0


def encode_epoch_announce(a: EpochAnnounce) -> bytes:
    return _Writer().u64(a.epoch).u64(a.salt).u32(a.purged_offers).u32(a.purged_requests).bytes()


def decode_epoch_announce(payload: bytes) -> EpochAnnounce:
    r = _Reader(payload)
    out = EpochAnnounce(r.u64(), r.u64(), r.u32(), r.u32())
    r.done()
    return out


def encode_error(code: ErrorCode, message: str) -> bytes:
    return _Writer().u16(int(code)).text(message).bytes()


def decode_error(payload: bytes) -> tuple[ErrorCode, str]:
    r = _Reader(payload)
    code = r.u16()
    message = r.text()
    r.done()
    try:
        return ErrorCode(code), message
    except ValueError:
        raise ProtocolError(ErrorCode.MALFORMED, f"unknown error code {code}") from None


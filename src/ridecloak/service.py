"""Trip-organizing server and the key authority it depends on.

Two parties, kept structurally separate:

* TrustedAuthority holds one KeyDeriver per scheme and derives per-user
  key sets, which it sends with the config's `protocol.Params`. It never
  sees trips, and holds no server secret and no epoch.
* TosServer owns the epoch and its salt, and holds only the one matrix
  per scheme its similarities need (`TosSecrets.match_mask`),
  consumed-token bookkeeping, ciphertexts in stored form (rider-role
  parts times that matrix, driver-role parts as sent), and opaque
  contact blobs. It never holds user key sets, key derivers, split
  patterns, plaintext cells, or Bloom filters; tests assert that no such
  type is reachable from its state.

RideService hands the derivers of `crypto.generate_keys` to the authority
and its secrets to the server, and wires the two behind one frame
dispatcher (registration frames go to the authority with the server's
epoch and salt, everything else to the server). It draws each epoch's
salt, and is what the loopback transport and the socket server drive.
"""

from __future__ import annotations

import contextlib
import hashlib
import secrets as sysrandom
import socketserver
import threading
from dataclasses import dataclass

import numpy as np

from . import crypto, direct, protocol, transfer
from .crypto import TosSecrets
from .direct import DirectMatch as DirectMatchRecord
from .protocol import ErrorCode, Frame, MsgType, ProtocolError


# A handler's reply: message type and payload. `RideService.dispatch`
# frames it with the server's epoch and the zero token.
Reply = tuple[MsgType, bytes]

_U16 = 0xFFFF

# Inclusive (low, high) per service field beyond the encoding parameters;
# high is the width of the field on the wire (token count, TCP port).
_SERVICE_BOUNDS: dict[str, tuple[int, int | None]] = {
    "match_threshold": (0, None),
    "tokens_per_bundle": (1, _U16),
    "port": (0, _U16),
}


@dataclass
class ServiceConfig(protocol.Params):
    """`protocol.Params`, then the deployment's own; `ridecloak serve` has one flag per field."""

    match_threshold: int = 0  # pending requests that auto-trigger a round; 0 = manual
    tokens_per_bundle: int = 32
    port: int = 7370

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, (low, high) in _SERVICE_BOUNDS.items():
            value = getattr(self, name)
            if not (low <= value and (high is None or value <= high)):
                limit = f">= {low}" if high is None else f"in [{low}, {high}]"
                raise ValueError(f"{name} must be {limit}, got {value}")
        # refused here, before set-up allocates a single key matrix
        bundle = max(
            protocol.frame_length(protocol.key_bundle_size(role, self, self.tokens_per_bundle))
            for role in protocol.PLANS
        )
        if bundle > protocol.MAX_FRAME_SIZE:
            raise ValueError(
                f"a KEY_BUNDLE at widths {self.widths} would be a {bundle}-byte frame, "
                f"over the {protocol.MAX_FRAME_SIZE}-byte limit"
            )


def _token_digest(token: bytes) -> bytes:
    return hashlib.sha256(token).digest()


def _draw_salt(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


class TrustedAuthority:
    """Key service: one KeyDeriver per scheme, from `crypto.generate_keys`."""

    def __init__(
        self, config: ServiceConfig, derivers: dict[str, crypto.KeyDeriver], rng: np.random.Generator
    ):
        self.config = config
        self.derivers = derivers
        self._rng = rng

    def register(self, role: str, epoch: int, salt: int) -> tuple[np.ndarray, list[bytes]]:
        """Fresh key sets and single-use tokens as one KEY_BUNDLE reply frame.

        The bundle and the frame header carry the `epoch` and `salt` the
        server passes in. Returns (frame, token digests). The frame is laid
        out first, and each key set is derived straight into its key block,
        8-aligned in the frame, so every key byte is written once and in
        place.
        """
        if role not in protocol.PLANS:
            raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
        cfg = self.config
        tokens = [sysrandom.token_bytes(protocol.TOKEN_SIZE) for _ in range(cfg.tokens_per_bundle)]
        bundle = protocol.KeyBundle(epoch, salt, cfg, tokens)
        widths = cfg.widths
        frame, blocks = protocol.key_bundle_frame(bundle, protocol.key_blocks_size(role, widths))
        for (scheme, key_role), block in protocol.key_blocks(role, widths, blocks):
            operand, pattern = crypto.user_key_file(block, widths[scheme])
            pattern[:] = self.derivers[scheme].derive(key_role, self._rng, out=operand).split_pattern
        return frame, [_token_digest(t) for t in tokens]


@dataclass
class TransferMatchRecord:
    request_id: str
    path: transfer.PathResult
    truncated: bool


class TosServer:
    """Matching server state and frame handlers (registration excluded).

    `widths`, the config's scheme width table, sizes every ciphertext block
    the server decodes and every direct pool row it stores.
    """

    def __init__(self, config: ServiceConfig, secrets: dict[str, TosSecrets], epoch: int, salt: int):
        """`secrets` maps each scheme ("direct", "transfer", "time") to its TosSecrets."""
        self.config = config
        self.secrets = secrets
        self.epoch = epoch
        self.salt = salt
        self.unused_tokens: set[bytes] = set()
        self.widths = widths = config.widths
        self.offer_pool, self.request_pool = (
            direct.Pool(protocol.layout_dims(layout, widths), layout)
            for layout in (direct.DIRECT_OFFER, direct.DIRECT_REQUEST)
        )
        self.direct_offers: dict[str, direct.PoolEntry] = {}
        self.direct_requests: dict[str, direct.PoolEntry] = {}
        self.graph = transfer.TransferGraph(config.id_bits)
        self.transfer_offers: dict[str, transfer.TransferOffer] = {}
        self.transfer_requests: dict[str, transfer.TransferRequest] = {}
        self.notifications: dict[str, list] = {}
        self._counter = 0
        self._id_rng = sysrandom

    def add_token_digests(self, digests: list[bytes]) -> None:
        self.unused_tokens.update(digests)

    def _next_id(self, prefix: str) -> str:
        """The id of the submission being stored; `_stored` takes its number."""
        return f"{prefix}{self._counter + 1}-{self._id_rng.token_hex(4)}"

    def _stored(self, token: bytes) -> None:
        """A submission is stored: spend its token and its id number."""
        self.unused_tokens.discard(token)
        self._counter += 1

    @property
    def direct_remaining(self) -> dict[str, int]:
        """Seats left per live direct offer; an offer whose last seat is taken is dropped."""
        seats = self.offer_pool.remaining
        return {oid: int(seats[e.row]) for oid, e in self.direct_offers.items()}

    def _check_token(self, token: bytes) -> bytes:
        """Digest of an unused token; the caller discards it once the submission is stored."""
        digest = _token_digest(token)
        if digest not in self.unused_tokens:
            raise ProtocolError(ErrorCode.BAD_TOKEN, "unknown or already-used token")
        return digest

    def _check_epoch(self, frame: Frame) -> None:
        if frame.epoch != self.epoch:
            raise ProtocolError(
                ErrorCode.STALE_EPOCH, f"frame epoch {frame.epoch} != current {self.epoch}"
            )

    def _queue(self, note) -> None:
        self.notifications.setdefault(note.subject_id, []).append(note)

    # -- ingestion ------------------------------------------------------------

    def handle_submit_offer(self, frame: Frame) -> Reply:
        self._check_epoch(frame)
        token = self._check_token(frame.token)
        offer = protocol.decode_submit_offer(frame.payload, self.widths, self.config.max_items)
        if offer.capacity < 1:
            raise ProtocolError(ErrorCode.BAD_STATE, "capacity must be >= 1")
        if isinstance(offer, direct.DirectOffer):
            if not offer.cases:
                raise ProtocolError(ErrorCode.BAD_STATE, "offer must accept at least one case")
            offer_id = self._next_id("do")
            row = self.offer_pool.admit(
                offer.indexes(), self.secrets, offer_id, offer.capacity, offer.cases
            )
            self.direct_offers[offer_id] = direct.PoolEntry(self.offer_pool, row, offer.contact)
        else:
            if len(offer.cells) < 2:
                raise ProtocolError(ErrorCode.BAD_STATE, "transfer offer needs >= 2 cells")
            offer.offer_id = offer_id = self._next_id("to")
            self.graph.add_offer(offer, self.secrets)
            self.transfer_offers[offer_id] = offer
        self._stored(token)
        return MsgType.SUBMIT_OFFER, protocol.encode_ack(offer_id)

    def handle_submit_request(self, frame: Frame) -> Reply:
        self._check_epoch(frame)
        token = self._check_token(frame.token)
        request = protocol.decode_submit_request(frame.payload, self.widths)
        if isinstance(request, direct.DirectRequest):
            request_id = self._next_id("dr")
            row = self.request_pool.admit(request.indexes(), self.secrets, request_id)
            self.direct_requests[request_id] = direct.PoolEntry(
                self.request_pool, row, request.contact
            )
        else:
            ((request.pickup, request.dropoff),) = crypto.unmask_layout(
                [[request.pickup, request.dropoff]], transfer.TRANSFER_QUERY, self.secrets
            )
            request.request_id = request_id = self._next_id("tr")
            self.transfer_requests[request_id] = request
        self._stored(token)
        pending = len(self.direct_requests) + len(self.transfer_requests)
        if self.config.match_threshold and pending >= self.config.match_threshold:
            self.run_matching()
        return MsgType.SUBMIT_REQUEST, protocol.encode_ack(request_id)

    def handle_poll(self, frame: Frame) -> Reply:
        subject_ids = protocol.decode_notification_poll(frame.payload)
        notes = []
        for sid in subject_ids:
            queued = self.notifications.get(sid, [])
            taken = queued[: _U16 - len(notes)]  # a batch counts its notes in a u16
            notes.extend(taken)
            del queued[: len(taken)]
            if not queued:
                self.notifications.pop(sid, None)
        return MsgType.MATCH_NOTIFICATION, protocol.encode_notification_batch(notes)

    def handle_epoch_query(self, frame: Frame) -> Reply:
        announce = protocol.EpochAnnounce(self.epoch, self.salt)
        return MsgType.EPOCH_ANNOUNCE, protocol.encode_epoch_announce(announce)

    # -- matching -------------------------------------------------------------

    def run_direct_matching(self) -> list[DirectMatchRecord]:
        matches = direct.match_all(self.offer_pool, self.request_pool, self.config.n_hashes)
        for match in matches:
            offer = self.direct_offers[match.offer_id]
            request = self.direct_requests.pop(match.request_id)
            if self.offer_pool.take_seat(offer.row):
                del self.direct_offers[match.offer_id]
            self.request_pool.take_seat(request.row)
            self._queue(
                protocol.DirectNotification(
                    match.request_id, match.offer_id, match.case, offer.contact
                )
            )
            self._queue(
                protocol.DirectNotification(
                    match.offer_id, match.request_id, match.case, request.contact
                )
            )
        return matches

    def run_transfer_matching(self) -> list[TransferMatchRecord]:
        """Serve pending requests in arrival order over one batched pinning.

        Every pick-up and drop-off is matched against the graph in one
        GEMM up front; each search then keeps only the rows still active,
        so seats consumed earlier in the round count as before.
        """
        records = []
        pending = list(self.transfer_requests.items())
        hits = self.graph.pin([q for _, r in pending for q in (r.pickup, r.dropoff)])
        for i, (request_id, request) in enumerate(pending):
            outcome = transfer.search(self.graph, request, hits[2 * i : 2 * i + 2])
            if outcome.selected is None:
                continue
            path = outcome.selected
            del self.transfer_requests[request_id]
            transfer.update_graph(self.graph, path)
            offer_order = list(dict.fromkeys(oid for oid, _ in path.nodes))
            contacts = [self.transfer_offers[oid].contact for oid in offer_order]
            ciphers = []
            for u, v in zip(path.nodes, path.nodes[1:]):
                if u[0] != v[0]:  # transfer hop: relay the boarding cell's ciphertext
                    ciphers.append(self.transfer_offers[v[0]].cells[v[1]].plus.to_bytes())
            self._queue(
                protocol.TransferNotification(request_id, offer_order, contacts, ciphers)
            )
            for oid in offer_order:
                self._queue(
                    protocol.TransferNotification(oid, [oid], [request.contact], [])
                )
            records.append(TransferMatchRecord(request_id, path, outcome.truncated))
        return records

    def run_matching(self) -> list[DirectMatchRecord | TransferMatchRecord]:
        return [*self.run_direct_matching(), *self.run_transfer_matching()]

    def apply_rotation(self, epoch: int, salt: int) -> protocol.EpochAnnounce:
        """New epoch: drop all pending trip state; tokens stay valid.

        The direct pools are emptied in place: their used rows are zeroed,
        and their allocation is kept for the next epoch.
        """
        purged_offers = len(self.direct_offers) + len(self.transfer_offers)
        purged_requests = len(self.direct_requests) + len(self.transfer_requests)
        self.epoch = epoch
        self.salt = salt
        self.direct_offers.clear()
        self.direct_requests.clear()
        self.offer_pool.clear()
        self.request_pool.clear()
        self.transfer_offers.clear()
        self.transfer_requests.clear()
        self.graph = transfer.TransferGraph(self.config.id_bits)
        return protocol.EpochAnnounce(epoch, salt, purged_offers, purged_requests)


class RideService:
    """Authority + server behind one dispatcher; drive via frames."""

    def __init__(self, config: ServiceConfig, seed: int | None = None):
        self._rng = rng = np.random.default_rng(seed)
        self.config = config
        salt = _draw_salt(rng)
        derivers, secrets = crypto.generate_keys(config.widths, rng)
        self.authority = TrustedAuthority(config, derivers, rng)
        self.server = TosServer(config, secrets, epoch=1, salt=salt)
        self._lock = threading.RLock()

    def dispatch(self, frame_bytes: bytes | memoryview) -> bytes | memoryview:
        """Handle one frame, always returning exactly one reply frame."""
        with self._lock:
            epoch = self.server.epoch
            try:
                frame, rest = protocol.decode_frame(frame_bytes)
                if rest:
                    raise ProtocolError(ErrorCode.MALFORMED, "trailing bytes after frame")
                if frame.msg_type == MsgType.REGISTER_USER:
                    # The one reply not framed here: the authority derives the
                    # key sets straight into a whole KEY_BUNDLE frame.
                    return memoryview(self._register(frame))
                msg_type, payload = self._dispatch_frame(frame)
                return protocol.encode_frame(msg_type, epoch, protocol.ZERO_TOKEN, payload)
            except ProtocolError as exc:
                return self.error_reply(exc)
            except (ValueError, UnicodeDecodeError) as exc:
                return self.error_reply(ProtocolError(ErrorCode.MALFORMED, str(exc)))

    def error_reply(self, exc: ProtocolError) -> bytes:
        """The ERROR frame answering a frame that failed to decode or to apply."""
        with self._lock:
            epoch = self.server.epoch
        payload = protocol.encode_error(exc.code, str(exc))
        return protocol.encode_frame(MsgType.ERROR, epoch, protocol.ZERO_TOKEN, payload)

    def _register(self, frame: Frame) -> np.ndarray:
        role = protocol.decode_register(frame.payload)
        reply, digests = self.authority.register(role, self.server.epoch, self.server.salt)
        self.server.add_token_digests(digests)
        return reply

    def _dispatch_frame(self, frame: Frame) -> Reply:
        if frame.msg_type == MsgType.SUBMIT_OFFER:
            return self.server.handle_submit_offer(frame)
        if frame.msg_type == MsgType.SUBMIT_REQUEST:
            return self.server.handle_submit_request(frame)
        if frame.msg_type == MsgType.MATCH_NOTIFICATION:
            return self.server.handle_poll(frame)
        if frame.msg_type == MsgType.EPOCH_ANNOUNCE:
            return self.server.handle_epoch_query(frame)
        raise ProtocolError(
            ErrorCode.BAD_STATE, f"clients do not send {frame.msg_type.name} frames"
        )

    def run_matching(self):
        with self._lock:
            return self.server.run_matching()

    def rotate_epoch(self) -> protocol.EpochAnnounce:
        with self._lock:
            return self.server.apply_rotation(self.server.epoch + 1, _draw_salt(self._rng))


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                frame = protocol.read_frame(self.request)
            except ProtocolError as exc:
                # the stream is out of step: answer once, then hang up
                with contextlib.suppress(OSError):
                    self.request.sendall(self.server.ride_service.error_reply(exc))
                return
            except OSError:
                return
            if frame is None:
                return
            reply = self.server.ride_service.dispatch(frame.raw)
            try:
                # one write per reply: a header and payload sent apart can
                # stall on Nagle's algorithm plus the peer's delayed ACK
                self.request.sendall(reply)
            except OSError:
                return


class SocketServer(socketserver.ThreadingTCPServer):
    """Blocking request/reply server over the frame protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: RideService, host: str = "127.0.0.1", port: int | None = None):
        self.ride_service = service
        port = service.config.port if port is None else port
        super().__init__((host, port), _FrameHandler)

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

"""Client-side API: transports, registration, and trip submission.

A client talks to the service purely through frames. The transport is
pluggable: LoopbackTransport calls a RideService in process (handy for
tests and simulation), SocketTransport speaks the same frames over TCP.
Both return each reply decoded once, as a Frame, and count wire bytes so
experiments can report communication overhead.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

import numpy as np

from . import crypto, direct, protocol, transfer
from .crypto import KeySetId, UserKeySet
from .direct import OfferSpec, RequestSpec
from .protocol import ErrorCode, Frame, MsgType, ProtocolError
from .transfer import Preference


class ServerError(Exception):
    """The service replied with an ERROR frame."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(f"{code.name}: {message}")
        self.code = code
        self.message = message


class TokenError(Exception):
    """The client ran out of single-use submission tokens."""


class LoopbackTransport:
    """In-process transport: hands frames straight to a RideService."""

    def __init__(self, service):
        self.service = service
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, data: bytes) -> Frame:
        self.sent_bytes += len(data)
        reply = self.service.dispatch(data)
        self.received_bytes += len(reply)
        frame, rest = protocol.decode_frame(reply)
        if rest:
            raise ProtocolError(ErrorCode.MALFORMED, "trailing bytes in reply")
        return frame

    def close(self) -> None:
        pass


class SocketTransport:
    """Blocking TCP transport; one reply frame per request frame."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sent_bytes = 0
        self.received_bytes = 0

    def request(self, data: bytes) -> Frame:
        self.sock.sendall(data)
        self.sent_bytes += len(data)
        frame = protocol.read_frame(self.sock)
        if frame is None:
            raise ConnectionError("server closed the connection")
        self.received_bytes += protocol.HEADER_SIZE + len(frame.payload)
        return frame

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Registration:
    """Everything the client holds after registering."""

    role: str
    epoch: int
    salt: int
    keysets: dict[KeySetId, UserKeySet]  # the role's plan, by (scheme, role): views of its frame
    tokens: list[bytes]
    params: protocol.Params
    masks: crypto.MaskStock  # drawn from the client's generator; dropped on registering again


class ServiceClient:
    """One user's view of the service: keys, tokens, and submissions."""

    def __init__(self, transport, rng: np.random.Generator | int | None = None):
        self.transport = transport
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.rng = rng
        self.registration: Registration | None = None
        self.submitted_bytes = 0  # submission frames only, unlike the transport's count

    # -- plumbing -------------------------------------------------------------

    def _request(self, msg_type: MsgType, payload: bytes, token: bytes = protocol.ZERO_TOKEN) -> Frame:
        epoch = self.registration.epoch if self.registration else 0
        frame = self.transport.request(protocol.encode_frame(msg_type, epoch, token, payload))
        if frame.msg_type == MsgType.ERROR:
            code, message = protocol.decode_error(frame.payload)
            raise ServerError(code, message)
        return frame

    def _submit(self, msg_type: MsgType, payload: bytes) -> str:
        """Send one encoded submission under a fresh token; returns the server's id.

        An ERROR reply but BAD_TOKEN puts the token back, since the server
        spends one only on a submission it stores. A transport error drops it.
        """
        reg = self._registered()
        self._need_tokens(1)
        token = reg.tokens.pop()
        self.submitted_bytes += protocol.HEADER_SIZE + len(payload)
        try:
            frame = self._request(msg_type, payload, token)
        except ServerError as exc:
            if exc.code is not ErrorCode.BAD_TOKEN:
                reg.tokens.append(token)
            raise
        return protocol.decode_ack(frame.payload)

    def _need_tokens(self, count: int) -> None:
        """Refuse, before anything is sent, `count` submissions the held tokens cannot buy."""
        held = len(self._registered().tokens)
        if count > held:
            raise TokenError(f"{held} tokens held, {count} needed; register again for more")

    def _registered(self) -> Registration:
        if self.registration is None:
            raise RuntimeError("client is not registered")
        return self.registration

    # -- registration and epochs ----------------------------------------------

    def register(self, role: str) -> Registration:
        """Register as `role`; the key sets are read-only views of the KEY_BUNDLE frame received.

        A bundle the client cannot use, such as one whose key blocks are not
        8-aligned in memory, is refused with ProtocolError and leaves the
        previous registration as it was.
        """
        frame = self._request(MsgType.REGISTER_USER, protocol.encode_register(role))
        if frame.msg_type != MsgType.KEY_BUNDLE:
            raise ProtocolError(ErrorCode.BAD_STATE, f"expected KEY_BUNDLE, got {frame.msg_type.name}")
        bundle, blocks = protocol.decode_key_bundle(frame.payload)
        widths = bundle.params.widths
        keysets = {}
        for key_set, block in protocol.key_blocks(role, widths, blocks):
            try:
                scheme, key_role = key_set
                keysets[key_set] = crypto.key_material_from_bytes(block, key_role, widths[scheme])
            except ValueError as exc:
                raise ProtocolError(ErrorCode.BAD_STATE, f"key set {key_set}: {exc}") from exc
        self.registration = Registration(
            role, bundle.epoch, bundle.salt, keysets, bundle.tokens, bundle.params,
            crypto.MaskStock(self.rng),
        )
        return self.registration

    def sync_epoch(self) -> protocol.EpochAnnounce:
        """Pick up the current epoch and salt; keys and tokens stay valid."""
        reg = self._registered()
        frame = self._request(MsgType.EPOCH_ANNOUNCE, b"")
        announce = protocol.decode_epoch_announce(frame.payload)
        reg.epoch = announce.epoch
        reg.salt = announce.salt
        return announce

    # -- direct (non-transferable) service --------------------------------------

    def submit_direct_offers(self, specs: list[OfferSpec]) -> list[str]:
        """Encrypt offers in one batch, submit one frame each; returns server ids."""
        self._need_tokens(len(specs))
        reg = self.registration
        offers = direct.build_offers(
            specs, reg.keysets, reg.params, reg.epoch, reg.salt, reg.masks
        )
        return [self._submit(MsgType.SUBMIT_OFFER, protocol.encode_submit_offer(o)) for o in offers]

    def submit_direct_offer(self, spec: OfferSpec) -> str:
        return self.submit_direct_offers([spec])[0]

    def submit_direct_requests(self, specs: list[RequestSpec]) -> list[str]:
        self._need_tokens(len(specs))
        reg = self.registration
        requests = direct.build_requests(
            specs, reg.keysets, reg.params, reg.epoch, reg.salt, reg.masks
        )
        return [
            self._submit(MsgType.SUBMIT_REQUEST, protocol.encode_submit_request(r)) for r in requests
        ]

    def submit_direct_request(self, spec: RequestSpec) -> str:
        return self.submit_direct_requests([spec])[0]

    # -- transfer service -------------------------------------------------------

    def submit_transfer_offer(
        self, cells: list[tuple[int, int]], capacity: int, contact: bytes = b""
    ) -> str:
        reg = self._registered()
        offer = transfer.build_transfer_offer(
            "local",
            cells,
            reg.keysets,
            reg.params,
            capacity,
            reg.masks,
            contact,
        )
        return self._submit(MsgType.SUBMIT_OFFER, protocol.encode_submit_offer(offer))

    def submit_transfer_request(
        self,
        pickup: tuple[int, int],
        dropoff: tuple[int, int],
        preference: Preference | str | None = None,
        contact: bytes = b"",
    ) -> str:
        reg = self._registered()
        if preference is None:
            preference = transfer.DEFAULT_PREFERENCE
        elif isinstance(preference, str):
            preference = Preference.parse(preference)
        request = transfer.build_transfer_request(
            "local",
            pickup,
            dropoff,
            reg.keysets,
            reg.params,
            preference,
            rng=reg.masks,
            contact=contact,
        )
        return self._submit(MsgType.SUBMIT_REQUEST, protocol.encode_submit_request(request))

    # -- notifications ----------------------------------------------------------

    def poll(self, subject_ids: list[str]):
        """Fetch and clear queued match notifications for one's own ids."""
        frame = self._request(MsgType.MATCH_NOTIFICATION, protocol.encode_notification_poll(subject_ids))
        return protocol.decode_notification_batch(frame.payload)

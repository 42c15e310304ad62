"""Print sha256 digests of fixed-seed wire bytes, one labelled line each.

    python3 tools/wire_digests.py

It imports `ridecloak` from the `src/` of its own checkout and runs numpy
on one BLAS thread, under which fixed-seed key bytes are reproducible. A
service at filter_bits=320, n_hashes=4, id_bits=6, time_bits=4 and seed
701 registers a driver and a rider over `LoopbackTransport`. The tool
prints one line per bundle's key blocks (tokens are random, so the rest of
the bundle is left out), each followed by one line per key set the client
loaded from them (`Registration.keysets`, labelled by scheme and role):
the digest of its operand bytes, then its split pattern. Then it prints
one line per submission payload, the frame after its header: a batch of
two direct offers, a batch of two direct requests, a 3-cell transfer
offer and a transfer request. Last, one `similarities` line: the digest of
the rounded integer similarities the server computes from what it stored,
every stored request row against every stored offer row for each pair of
index kinds a matching round compares (time, pick-up, drop-off against
drop-off and route, route against drop-off), and the transfer request's two
stored indexes against every stored plus row, the products its pinning
tests. Two checkouts that print the same lines put the same bytes on the
wire and match the same integers; equal key-set lines mean equal key values
even where the key-block layout differs.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ridecloak import kernels, protocol  # noqa: E402
from ridecloak.client import LoopbackTransport, ServiceClient  # noqa: E402
from ridecloak.direct import DROPOFF, PICKUP, ROUTE, TIME, OfferSpec, RequestSpec  # noqa: E402
from ridecloak.service import RideService, ServiceConfig  # noqa: E402

SEED = 701
CONFIG = dict(filter_bits=320, n_hashes=4, id_bits=6, time_bits=4)
OFFERS = [
    OfferSpec("", (1, 2, 3), (9,), (3, 4, 5, 9), 18_900.0, 2, contact=b"driver-1"),
    OfferSpec("", (20, 21), (30, 31, 32), (21, 25, 30), 22_500.0, 1, contact=b"driver-2"),
]
REQUESTS = [
    RequestSpec("", 2, 9, (2, 5, 9), 18_900.0, contact=b"rider-1"),
    RequestSpec("", 21, 31, (21, 31), 22_500.0, contact=b"rider-2"),
]
TRANSFER_CELLS = [(1, 1), (2, 1), (3, 2)]
TRANSFER_TRIP = ((1, 1), (3, 2))
PAYLOADS = (
    "direct_offer 1", "direct_offer 2", "direct_request 1", "direct_request 2",
    "transfer_offer", "transfer_request",
)
# (request kind, offer kind) of each similarity a direct matching round takes
KIND_PAIRS = ((TIME, TIME), (PICKUP, PICKUP), (DROPOFF, DROPOFF), (DROPOFF, ROUTE), (ROUTE, DROPOFF))


class _Recorder:
    """A transport that keeps every frame it sends and the reply to it."""

    def __init__(self, transport):
        self.transport = transport
        self.exchanges: list[tuple[bytes, protocol.Frame]] = []

    def request(self, data: bytes) -> protocol.Frame:
        reply = self.transport.request(data)
        self.exchanges.append((bytes(data), reply))
        return reply


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _similarities(server) -> bytes:
    """The stored similarities `digest_lines` names, rounded to int64, shape first."""
    offers, requests = server.offer_pool, server.request_pool
    sims = [
        kernels.cross_dots(requests.kinds[r][: requests.used], offers.kinds[o][: offers.used])
        for r, o in KIND_PAIRS
    ]
    plus = np.stack([node.plus.flat() for node in server.graph.nodes.values()])
    for request in server.transfer_requests.values():
        sims.append(kernels.cross_dots(np.stack([request.pickup.flat(), request.dropoff.flat()]), plus))
    return b"".join(
        np.array(s.shape, dtype="<i8").tobytes() + np.rint(s).astype("<i8").tobytes() for s in sims
    )


def digest_lines() -> list[str]:
    """The labelled digest lines of one fixed-seed session."""
    service = RideService(ServiceConfig(**CONFIG), seed=SEED)
    recorder = _Recorder(LoopbackTransport(service))
    driver, rider = ServiceClient(recorder, rng=SEED), ServiceClient(recorder, rng=SEED + 1)
    lines = []
    for role, client in (("driver", driver), ("rider", rider)):
        client.register(role)
        _, blocks = protocol.decode_key_bundle(recorder.exchanges[-1][1].payload)
        lines.append(f"key_blocks {role} {_sha(blocks)}")
        for (scheme, key_role), keys in client.registration.keysets.items():
            values = keys.operand.tobytes() + keys.split_pattern.tobytes()
            lines.append(f"key_set {role} {scheme}-{key_role} {_sha(values)}")
    start = len(recorder.exchanges)
    driver.submit_direct_offers(OFFERS)
    rider.submit_direct_requests(REQUESTS)
    driver.submit_transfer_offer(TRANSFER_CELLS, capacity=2)
    rider.submit_transfer_request(*TRANSFER_TRIP)
    sent = [data for data, _ in recorder.exchanges[start:]]
    if len(sent) != len(PAYLOADS):
        raise RuntimeError(f"expected {len(PAYLOADS)} submissions, sent {len(sent)}")
    lines += [f"{label} {_sha(data[protocol.HEADER_SIZE:])}" for label, data in zip(PAYLOADS, sent)]
    lines.append(f"similarities {_sha(_similarities(service.server))}")
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))

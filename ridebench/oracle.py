"""Plaintext oracles, notification checks and the match-record digest.

The benchmark keeps, for each pass, what it submitted in each round and
what the service matched, in workload ids (the service's own ids are
random). The checks here replay the same rounds in plaintext:

* direct: the server's greedy order (pending requests in arrival order,
  offers in submission order, capacity carried across rounds) over
  gates computed from the same Bloom summaries the clients encrypt;
* transfer: every served path is a valid, minimal-cell path of the
  plaintext co-location graph of the offers still active at that point
  in serving order, and no unserved request has a plaintext path.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from ridecloak.bloom import cell_positions, slot_index
from ridecloak.direct import DEFAULT_CASES
from ridecloak.sim import Workload, identifier_permutation

from .workloads import WorkloadSpec

CASE_NAMES = [case.value for case in DEFAULT_CASES]


@dataclass
class RoundLog:
    offers: list[int] = field(default_factory=list)    # accepted, in submission order
    requests: list[int] = field(default_factory=list)  # accepted, in arrival order
    # direct: (request, offer, case); transfer: (request, ((offer, position), ...), cell_count)
    matches: list[tuple] = field(default_factory=list)
    # (recipient kind, recipient, counterpart) as read from polled notifications
    notes: list[tuple] = field(default_factory=list)


@dataclass
class PassLog:
    epoch: int
    salt: int
    rounds: list[RoundLog] = field(default_factory=list)


def digest(log: PassLog) -> str:
    """SHA-256 over the pass's match records, in workload ids and round order."""
    records = [[k, *m] for k, rnd in enumerate(log.rounds) for m in rnd.matches]
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


def check_notifications(spec: WorkloadSpec, log: PassLog) -> list[str]:
    """Each served request and each of its offers got one note naming the other."""
    expected: Counter = Counter()
    for rnd in log.rounds:
        for match in rnd.matches:
            request = match[0]
            if spec.scheme == "direct":
                offers = (match[1],)
            else:
                offers = tuple(dict.fromkeys(o for o, _ in match[1]))
            expected[("request", request, offers)] += 1
            for offer in offers:
                expected[("offer", offer, request)] += 1
    got = Counter(note for rnd in log.rounds for note in rnd.notes)
    if got == expected:
        return []
    missing = list((expected - got).elements())[:3]
    extra = list((got - expected).elements())[:3]
    return [f"notifications differ from matches: missing {missing}, unexpected {extra}"]


def check_direct(spec: WorkloadSpec, wl: Workload, log: PassLog) -> list[str]:
    cfg = spec.service_config()
    bits, n_hashes, slots = cfg.filter_bits, cfg.n_hashes, cfg.time_slots
    perm = identifier_permutation(wl.city.cell_count, log.epoch, log.salt)
    cache: dict[int, list[int]] = {}

    def summaries(cell_sets) -> np.ndarray:
        out = np.zeros((len(cell_sets), bits))
        for i, cells in enumerate(cell_sets):
            for cell in cells:
                value = int(perm[cell])
                if value not in cache:
                    cache[value] = cell_positions(value, bits, n_hashes, log.epoch, log.salt)
                out[i, cache[value]] = 1.0
        return out

    offers, requests = wl.offers, wl.requests
    o_pick = summaries([o.pickup_cells for o in offers])
    o_drop = summaries([o.dropoff_cells for o in offers])
    o_route = summaries([o.route for o in offers])
    r_pick = summaries([(r.pickup,) for r in requests])
    r_drop = summaries([(r.dropoff,) for r in requests])
    r_route = summaries([r.route for r in requests])
    o_slot = np.array([slot_index(o.depart_seconds, slots) for o in offers])
    r_slot = np.array([slot_index(r.pickup_seconds, slots) for r in requests])

    def hit(a, b):
        return np.abs(a @ b.T - n_hashes) < 0.5

    gate = (r_slot[:, None] == o_slot[None, :]) & hit(r_pick, o_pick)
    # one column per drop-off case, in the order offers list them
    case_hits = np.stack([hit(r_drop, o_drop), hit(r_drop, o_route), hit(r_route, o_drop)], axis=-1)
    for o in offers:
        if tuple(o.cases) != DEFAULT_CASES:
            raise ValueError("the direct oracle assumes every offer accepts all cases in order")
    feasible = gate & case_hits.any(axis=-1)

    errors = []
    remaining = {i: o.capacity for i, o in enumerate(offers)}
    submitted: list[int] = []
    pending: list[int] = []
    for k, rnd in enumerate(log.rounds):
        submitted += rnd.offers
        pending += rnd.requests
        active = [o for o in submitted if remaining[o] > 0]
        expected = []
        if active and pending:
            seats = np.array([remaining[o] for o in active])
            rows = feasible[np.ix_(pending, active)]
            for i, request in enumerate(pending):
                free = np.flatnonzero(rows[i] & (seats > 0))
                if free.size:
                    j = int(free[0])
                    seats[j] -= 1
                    case = CASE_NAMES[int(np.argmax(case_hits[request, active[j]]))]
                    expected.append((request, active[j], case))
        if expected != rnd.matches:
            diff = [m for m in expected if m not in rnd.matches][:3]
            errors.append(
                f"round {k}: server matched {len(rnd.matches)}, oracle {len(expected)}; "
                f"first oracle-only {diff}"
            )
            continue
        matched = set()
        for request, offer, _case in expected:
            remaining[offer] -= 1
            matched.add(request)
        pending = [r for r in pending if r not in matched]
    return errors


def check_transfer(spec: WorkloadSpec, wl: Workload, log: PassLog) -> list[str]:
    cfg = spec.service_config()
    perm = identifier_permutation(wl.city.cell_count, log.epoch, log.salt)
    for r in wl.requests:
        if r.preference.kind.value != "min-cells":
            raise ValueError("the transfer oracle checks min-cells requests only")

    def node_key(offer: int, pos: int) -> tuple[int, int]:
        o = wl.offers[offer]
        return int(perm[o.route[pos]]), slot_index(o.time_at(pos), cfg.time_bits)

    def request_keys(request: int):
        r = wl.requests[request]
        return (
            (int(perm[r.pickup]), slot_index(r.pickup_seconds, cfg.time_bits)),
            (int(perm[r.dropoff]), slot_index(r.dropoff_seconds, cfg.time_bits)),
        )

    remaining = {i: o.capacity for i, o in enumerate(wl.offers)}
    by_key: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def active_at(key):
        return [n for n in by_key.get(key, ()) if remaining[n[0]] > 0]

    def min_route_hops(src, dst) -> int | None:
        """0-1 BFS: route hops cost 1, transfers between co-located cells cost 0."""
        starts, targets = active_at(src), set(active_at(dst))
        if not starts or not targets:
            return None
        dist = {n: 0 for n in starts}
        queue = deque((0, n) for n in starts)
        while queue:
            d, (o, p) = queue.popleft()
            if d > dist[(o, p)]:
                continue
            if (o, p) in targets:
                return d
            for v in active_at(node_key(o, p)):
                if v[0] != o and dist.get(v, d + 1) > d:
                    dist[v] = d
                    queue.appendleft((d, v))
            if p + 1 < len(wl.offers[o].route) and dist.get((o, p + 1), d + 2) > d + 1:
                dist[(o, p + 1)] = d + 1
                queue.append((d + 1, (o, p + 1)))
        return None

    def path_errors(request: int, path, cell_count: int, best: int | None) -> list[str]:
        src, dst = request_keys(request)
        if len(set(path)) != len(path):
            return ["path repeats a node"]
        if any(remaining[o] <= 0 for o, _ in path):
            return ["path rides an exhausted offer"]
        if node_key(*path[0]) != src or node_key(*path[-1]) != dst:
            return ["path does not run from pick-up to drop-off"]
        hops = 0
        for (o1, p1), (o2, p2) in zip(path, path[1:]):
            if o1 == o2 and p2 == p1 + 1:
                hops += 1
            elif o1 == o2 or node_key(o1, p1) != node_key(o2, p2):
                return [f"invalid hop {(o1, p1)} -> {(o2, p2)}"]
        if cell_count != hops + 1:
            return [f"reported {cell_count} cells, path has {hops + 1}"]
        if best is None or hops != best:
            return [f"path has {hops + 1} cells, plaintext minimum is {None if best is None else best + 1}"]
        return []

    errors = []
    pending: list[int] = []
    for k, rnd in enumerate(log.rounds):
        for offer in rnd.offers:
            for pos in range(len(wl.offers[offer].route)):
                by_key.setdefault(node_key(offer, pos), []).append((offer, pos))
        pending += rnd.requests
        served = {m[0]: m for m in rnd.matches}
        order = []
        for request in pending:
            best = min_route_hops(*request_keys(request))
            if request not in served:
                if best is not None:
                    errors.append(f"round {k}: request {request} unserved but has a plaintext path")
                continue
            _, path, cell_count = served[request]
            for err in path_errors(request, path, cell_count, best):
                errors.append(f"round {k}: request {request}: {err}")
            order.append(request)
            for offer in dict.fromkeys(o for o, _ in path):
                remaining[offer] -= 1
        if order != [m[0] for m in rnd.matches]:
            errors.append(f"round {k}: server did not serve requests in arrival order")
        pending = [r for r in pending if r not in served]
    return errors


def check_pass(spec: WorkloadSpec, wl: Workload, log: PassLog) -> list[str]:
    check = check_direct if spec.scheme == "direct" else check_transfer
    return check(spec, wl, log) + check_notifications(spec, log)

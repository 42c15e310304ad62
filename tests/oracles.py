"""Independent reference implementations the product code is tested against.

Everything here recomputes expected results from plain values (ints, sets,
tuples) without calling into the package, so a product regression cannot
hide inside the oracle. Several functions freeze design decisions (hash
preimage layout, sizing formula, weight epsilon): if a refactor changes
those, a test fails here first.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct

DAY_SECONDS = 86400


# --- trip-summary positions -------------------------------------------------


def summary_positions(cell_value, bits, n_hashes, epoch, salt):
    """Frozen rule: keyed 128-bit blake2b, counter appended until distinct."""
    key = struct.pack("<QQ", salt & 0xFFFFFFFFFFFFFFFF, epoch & 0xFFFFFFFFFFFFFFFF)
    chosen = []
    for i in range(n_hashes):
        counter = 0
        while True:
            digest = hashlib.blake2b(
                struct.pack("<QII", cell_value, i, counter), digest_size=16, key=key
            ).digest()
            pos = int.from_bytes(digest, "little") % bits
            if pos not in chosen:
                break
            counter += 1
        chosen.append(pos)
    return chosen


def summary_bits(cells, bits, n_hashes, epoch, salt):
    """Set of positions a whole cell collection occupies."""
    out = set()
    for cell in cells:
        out.update(summary_positions(cell, bits, n_hashes, epoch, salt))
    return out


def sizing_oracle(max_items, fpp):
    """Frozen sizing: -n ln(p)/ln(2)^2, up to a 64-multiple, then optimal hashes."""
    raw = math.ceil(-max_items * math.log(fpp) / math.log(2) ** 2)
    bits = max(64, ((raw + 63) // 64) * 64)
    return bits, math.ceil(bits / max_items * math.log(2))


def slot_of(seconds, slots):
    return int(seconds * slots // DAY_SECONDS)


# --- direct-scheme matching -------------------------------------------------
#
# Offers and requests enter as plain tuples so the oracle never touches
# package types:
#   offer facts:   (pickup_cells, dropoff_cells, route_cells, depart_seconds,
#                   capacity, case_names)   with case_names from
#                   ("area", "route", "extended") in the driver's order
#   request facts: (pickup_cell, dropoff_cell, route_cells, pickup_seconds)


def truth_case(offer, request, time_slots):
    """Exact set-membership outcome of the gate chain for one pair."""
    o_pick, o_drop, o_route, o_depart, _cap, cases = offer
    r_pick, r_drop, r_route, r_time = request
    if slot_of(r_time, time_slots) != slot_of(o_depart, time_slots):
        return None
    if r_pick not in o_pick:
        return None
    for case in cases:
        if case == "area" and r_drop in o_drop:
            return case
        if case == "route" and r_drop in o_route:
            return case
        if case == "extended" and all(c in r_route for c in o_drop):
            return case
    return None


def summary_case(offer, request, time_slots, bits, n_hashes, epoch, salt):
    """Gate chain on raw summary bit sets (false positives included)."""
    o_pick, o_drop, o_route, o_depart, _cap, cases = offer
    r_pick, r_drop, r_route, r_time = request
    if slot_of(r_time, time_slots) != slot_of(o_depart, time_slots):
        return None

    def bit_set(cells):
        return summary_bits(cells, bits, n_hashes, epoch, salt)

    if len(bit_set([r_pick]) & bit_set(o_pick)) != n_hashes:
        return None
    for case in cases:
        if case == "area" and len(bit_set([r_drop]) & bit_set(o_drop)) == n_hashes:
            return case
        if case == "route" and len(bit_set([r_drop]) & bit_set(o_route)) == n_hashes:
            return case
        if case == "extended" and len(bit_set(o_drop) & bit_set(r_route)) == n_hashes:
            return case
    return None


def greedy_assign(offers, requests, gate):
    """Requests in arrival order, first feasible offer, capacity respected.

    offers: list of (offer_id, offer_facts); requests: list of
    (request_id, request_facts); gate(offer_facts, request_facts) returns a
    case name or None. Returns (request_id, offer_id, case) triples.
    """
    remaining = {oid: facts[4] for oid, facts in offers}
    out = []
    for rid, rfacts in requests:
        for oid, ofacts in offers:
            if remaining[oid] <= 0:
                continue
            case = gate(ofacts, rfacts)
            if case is None:
                continue
            remaining[oid] -= 1
            out.append((rid, oid, case))
            break
    return out


# --- transfer-scheme graph ---------------------------------------------------


def transfer_graph_edges(routes):
    """Plain construction from raw (cell, interval) routes.

    routes: {offer_id: [(cell, interval), ...]}. Returns (route_edges,
    transfer_edges): directed consecutive pairs, and the set of unordered
    cross-offer node pairs sharing a (cell, interval).
    """
    route_edges = set()
    for oid, cells in routes.items():
        for pos in range(len(cells) - 1):
            route_edges.add(((oid, pos), (oid, pos + 1)))
    nodes = [
        ((oid, pos), pair)
        for oid, cells in routes.items()
        for pos, pair in enumerate(cells)
    ]
    transfer_edges = set()
    for (u, up), (v, vp) in itertools.combinations(nodes, 2):
        if u[0] != v[0] and up == vp:
            transfer_edges.add(frozenset((u, v)))
    return route_edges, transfer_edges


def pinned_nodes(routes, exhausted, cell):
    """Nodes of non-exhausted offers at exactly this (cell, interval), in route order.

    routes: {offer_id: [(cell, interval), ...]} in insertion order.
    """
    return [
        (oid, pos)
        for oid, cells in routes.items()
        if oid not in exhausted
        for pos, pair in enumerate(cells)
        if pair == cell
    ]


def _simple_paths(adjacency, sources, destinations):
    """Every simple path from any source to any destination, with its weight.

    adjacency: {node: [(next_node, weight), ...]}.
    """
    dest_set = set(destinations)
    paths = []

    def walk(node, path, weight):
        if node in dest_set:
            paths.append((tuple(path), weight))
        for nxt, w in adjacency.get(node, ()):
            if nxt in path:
                continue
            path.append(nxt)
            walk(nxt, path, weight + w)
            path.pop()

    for s in sources:
        walk(s, [s], 0.0)
    return paths


def min_weight_paths(adjacency, sources, destinations):
    """All minimal-weight simple paths to the nearest destination(s)."""
    paths = _simple_paths(adjacency, sources, destinations)
    if not paths:
        return set()
    best = min(w for _, w in paths)
    return {p for p, w in paths if w <= best + 1e-9}


def _mixed_adjacency(route_edges, transfer_edges, wr, wt):
    adj = {}
    for u, v in route_edges:
        adj.setdefault(u, []).append((v, wr))
        adj.setdefault(v, [])
    for pair in transfer_edges:
        u, v = sorted(pair)
        adj.setdefault(u, []).append((v, wt))
        adj.setdefault(v, []).append((u, wt))
    return adj


def path_counts(nodes, route_edges, transfer_edges):
    """(cells, transfers) for a node sequence over the mixed graph."""
    transfers = sum(
        1 for u, v in zip(nodes, nodes[1:]) if frozenset((u, v)) in transfer_edges
    )
    return len(nodes) - transfers, transfers


def band_paths(route_edges, transfer_edges, sources, destinations, primary):
    """All simple paths minimizing the primary count alone."""
    wr, wt = (1.0, 0.0) if primary == "cells" else (0.0, 1.0)
    adj = _mixed_adjacency(route_edges, transfer_edges, wr, wt)
    return min_weight_paths(adj, sources, destinations)


def lexicographic_paths(route_edges, transfer_edges, sources, destinations, primary):
    """Paths minimizing (primary count, secondary count) two-level lexicographic."""
    adj = _mixed_adjacency(route_edges, transfer_edges, 1.0, 0.0)
    paths = _simple_paths(adj, sources, destinations)
    if not paths:
        return set()
    ranked = []
    for nodes, _ in paths:
        cells, transfers = path_counts(nodes, route_edges, transfer_edges)
        key = (cells, transfers) if primary == "cells" else (transfers, cells)
        ranked.append((key, nodes))
    best = min(key for key, _ in ranked)
    return {nodes for key, nodes in ranked if key == best}


# --- the three-driver handoff scenario ---------------------------------------
#
# One rider can reach the destination only by switching vehicles: driver 1
# carries the rider to a shared cell where drivers 2 and 3 also stop, and
# both of those routes end in the same destination cell. Expected results
# are derived by hand from the cell assignments below.

HANDOFF_INTERVAL = 2

HANDOFF_ROUTES = {
    "d1": [(10, 2), (11, 2), (12, 2), (13, 2)],
    "d2": [(12, 2), (20, 2), (21, 2), (22, 2)],
    "d3": [(12, 2), (20, 2), (30, 2), (31, 2), (22, 2)],
}

HANDOFF_PICKUP = (10, 2)
HANDOFF_DROPOFF = (22, 2)

HANDOFF_VIA_D2 = (("d1", 0), ("d1", 1), ("d1", 2), ("d2", 0), ("d2", 1), ("d2", 2), ("d2", 3))
HANDOFF_VIA_D3 = (("d1", 0), ("d1", 1), ("d1", 2), ("d3", 0), ("d3", 1), ("d3", 2), ("d3", 3), ("d3", 4))

HANDOFF_TRANSFER_EDGES = {
    frozenset((("d1", 2), ("d2", 0))),
    frozenset((("d1", 2), ("d3", 0))),
    frozenset((("d2", 0), ("d3", 0))),
    frozenset((("d2", 1), ("d3", 1))),
    frozenset((("d2", 3), ("d3", 4))),
}


# --- structural state inspection ----------------------------------------------


def reachable_instances(root, max_objects=200_000):
    """Every object reachable from `root` through plain containers and attributes.

    Walks dicts, lists, tuples, sets and instance __dict__/__slots__;
    stops at module/type/function boundaries so the scan stays on state,
    not code.
    """
    import types

    seen = set()
    stack = [root]
    found = []
    while stack and len(found) < max_objects:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (type, types.ModuleType, types.FunctionType, types.MethodType)):
            continue
        found.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        if hasattr(obj, "__dict__") and not isinstance(obj, dict):
            stack.append(obj.__dict__)
        slots = getattr(type(obj), "__slots__", ())
        for name in slots if isinstance(slots, (list, tuple)) else (slots,) if slots else ():
            if hasattr(obj, name):
                stack.append(getattr(obj, name))
    return found

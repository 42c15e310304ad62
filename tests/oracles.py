"""Independent reference implementations the product code is tested against.

Everything here recomputes expected results from plain values (ints, sets,
tuples) without calling into the package, so a product regression cannot
hide inside the oracle. The one exception, `direct_greedy_reference`,
reads the ciphertext arrays of unmasked package objects, but does its own
arithmetic on them with numpy. Several functions freeze design decisions (hash
preimage layout, sizing formula, weight epsilon): if a refactor changes
those, a test fails here first.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct

import numpy as np

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


def summary_gates(offer, request, time_slots, bits, n_hashes, epoch, salt):
    """Whether a pair passes the time and pick-up gates on raw summary bits."""
    o_pick, _drop, _route, o_depart, _cap, _cases = offer
    r_pick, _drop, _route, r_time = request
    if slot_of(r_time, time_slots) != slot_of(o_depart, time_slots):
        return False
    picked = summary_bits([r_pick], bits, n_hashes, epoch, salt)
    return len(picked & summary_bits(o_pick, bits, n_hashes, epoch, salt)) == n_hashes


def direct_greedy_reference(offers, requests, n_hashes, tol=0.5):
    """The object-list direct matcher that the pooled one replaced.

    offers and requests are unmasked DirectOffer / DirectRequest objects
    in arrival order, offers carrying their seats left as `capacity`.
    Every similarity is one all-pairs product of the stacked (8*dim,)
    parts. Returns (request_id, offer_id, case) triples in request order.
    """
    if not offers or not requests:
        return []

    def sims(queries, columns):
        q = np.stack([idx.parts.reshape(-1) for idx in queries])
        o = np.stack([idx.parts.reshape(-1) for idx in columns])
        return q @ o.T

    def hit(value, target):
        return abs(value - target) < tol

    time_s = sims([r.time for r in requests], [o.time for o in offers])
    pick_s = sims([r.pickup for r in requests], [o.pickup for o in offers])
    case_s = {
        "area": sims([r.dropoff for r in requests], [o.dropoff for o in offers]),
        "route": sims([r.dropoff for r in requests], [o.route for o in offers]),
        "extended": sims([r.route for r in requests], [o.dropoff for o in offers]),
    }
    remaining = {o.offer_id: o.capacity for o in offers}
    matches = []
    for i, request in enumerate(requests):
        for j, offer in enumerate(offers):
            if remaining[offer.offer_id] <= 0:
                continue
            if not (hit(time_s[i, j], 1.0) and hit(pick_s[i, j], n_hashes)):
                continue
            case = next((c for c in offer.cases if hit(case_s[c.value][i, j], n_hashes)), None)
            if case is None:
                continue
            remaining[offer.offer_id] -= 1
            matches.append((request.request_id, offer.offer_id, case))
            break
    return matches


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


# --- key set-up and derivation -------------------------------------------------


def _well_conditioned_pair(dim, rng):
    """A uniform [-1, 1] draw whose 1-norm condition number is within 1e6,
    and the inverse that check computed; at most 8 draws."""
    for _ in range(8):
        mat = rng.uniform(-1.0, 1.0, (dim, dim))
        try:
            inv = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            continue
        cond = np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)
        if np.isfinite(cond) and cond <= 1.0e6:
            return mat, inv
    raise RuntimeError("no well-conditioned draw")


def _share_pair(total, rng):
    """`total` split as a uniform [-1, 1] draw and its complement, both with
    a nonzero finite LU determinant; at most 8 draws."""
    for _ in range(8):
        first = rng.uniform(-1.0, 1.0, total.shape)
        second = total - first
        dets = [np.linalg.slogdet(m) for m in (first, second)]
        if all(sign != 0 and np.isfinite(logabs) for sign, logabs in dets):
            return first, second
    raise RuntimeError("no invertible share pair")


def key_setup(dims, rng):
    """Key set-up with every master pair held until all bases are built.

    Per scheme, in `dims` order: ten master pairs (two blend pairs, then
    eight mask pairs) and the split pattern; then, per scheme, the query
    mask and the index mask. Returns per scheme a dict of the deriver's
    arrays (driver bases index_mask^-1 @ mask^-1, rider bases mask @
    query_mask) and the server's two.
    """
    masters = {
        scheme: (
            [_well_conditioned_pair(dim, rng) for _ in range(10)],
            rng.integers(0, 2, dim).astype(np.uint8),
        )
        for scheme, dim in dims.items()
    }
    keys = {}
    for scheme, dim in dims.items():
        pairs, pattern = masters[scheme]
        (blend_a, blend_a_inv), (blend_b, blend_b_inv), *masks = pairs
        query_mask, query_mask_inv = _well_conditioned_pair(dim, rng)
        index_mask, index_mask_inv = _well_conditioned_pair(dim, rng)
        keys[scheme] = dict(
            split_pattern=pattern, blend_a=blend_a, blend_b=blend_b,
            blend_a_inv=blend_a_inv, blend_b_inv=blend_b_inv,
            driver_bases=[index_mask_inv @ inv for _, inv in masks],
            rider_bases=[mask @ query_mask for mask, _ in masks],
            index_mask=index_mask, query_mask_inv=query_mask_inv,
        )
    return keys


def derive(keys, role, rng):
    """A user's eight key parts, both share pairs drawn before any product.

    Drivers split each blend inverse and multiply base @ share, with the
    shares in order (0, 1, 0, 1, 2, 3, 2, 3); riders split each blend
    matrix and multiply share @ base, in order (0, 0, 1, 1, 2, 2, 3, 3).
    """
    if role == "driver":
        shares = _share_pair(keys["blend_a_inv"], rng) + _share_pair(keys["blend_b_inv"], rng)
        order = (0, 1, 0, 1, 2, 3, 2, 3)
        return [base @ shares[k] for base, k in zip(keys["driver_bases"], order)]
    shares = _share_pair(keys["blend_a"], rng) + _share_pair(keys["blend_b"], rng)
    order = (0, 0, 1, 1, 2, 2, 3, 3)
    return [shares[k] @ base for base, k in zip(keys["rider_bases"], order)]


# --- dense encryption ------------------------------------------------------------


def split_vector(vec, pattern, role, rng):
    """Split `vec` into two halves directed by the shared 0/1 pattern.

    Drivers copy where the pattern is 0 and randomly split where it is 1;
    riders do the opposite. Split positions carry a uniform [-1, 1] draw
    and its exact complement, so the halves always sum back to `vec`. The
    draws of a stack of vectors are one call of `vec`'s shape.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if role not in ("driver", "rider"):
        raise ValueError(f"role must be 'driver' or 'rider', got {role!r}")
    split_here = pattern.astype(bool) if role == "driver" else ~pattern.astype(bool)
    rand = rng.uniform(-1.0, 1.0, vec.shape)
    return np.where(split_here, rand, vec), np.where(split_here, vec - rand, vec)


def dense_encrypt(vectors, parts, pattern, role, rng):
    """(rows, 8, dim) ciphertext parts: the split halves times each of the eight key parts.

    Part i of a row is K_i @ half as a column for a driver, half @ K_i for a
    rider, with the first half feeding parts 0-3 and the second parts 4-7.
    """
    first, second = split_vector(vectors, pattern, role, rng)
    return np.stack(
        [
            (first if i < 4 else second) @ (part.T if role == "driver" else part)
            for i, part in enumerate(parts)
        ],
        axis=1,
    )


# --- wire layouts ---------------------------------------------------------------


def user_key_file(parts, pattern):
    """A user key set's key file: the parts as little-endian float64
    row-major, then the split pattern, one byte per entry."""
    body = b"".join(np.asarray(p, dtype="<f8").tobytes(order="C") for p in parts)
    return body + bytes(int(v) for v in pattern)


def key_bundle_frame(epoch, fields, key_files, tokens):
    """A KEY_BUNDLE reply frame with the zero token.

    fields: (bundle epoch, salt, filter_bits, n_hashes, id_bits, time_bits,
    time_slots, max_items); key_files: the key files in plan order.
    Frame: u32 length | u8 msg_type (2) | u64 epoch | 32-byte token |
    payload. Payload: u64 epoch, u64 salt, six u32, u16 token count, the
    32-byte tokens, then the key files back to back.
    """
    payload = struct.pack("<QQIIIIIIH", *fields, len(tokens)) + b"".join(tokens)
    payload += b"".join(key_files)
    return struct.pack("<IBQ", 1 + 8 + 32 + len(payload), 2, epoch) + bytes(32) + payload


_WIRE_CASE = {"area": 0, "route": 1, "extended": 2}
_PREFERENCE_CODES = {
    name: code
    for code, name in enumerate((
        "min-cells", "min-transfers", "max-cells", "max-transfers", "min-cells-transfers",
        "min-transfers-max-cells", "min-cells-max-transfers", "max-cells-transfers",
    ))
}
_NO_LIMIT = 0xFFFFFFFF


# --- known-plaintext attack ------------------------------------------------------


def known_plaintext_attack(known_parts, known_plain, parts):
    """Plaintexts guessed from ciphertexts of one key set (Yao, Li and Xiao, ICDE 2013).

    All arrays are stacked: parts (n, 8, d), plaintexts (n, d). Parts 0 and 4
    of an index are the two halves of its split times two key matrices, and
    the halves sum to D·v with D diagonal of ones and twos, so the plaintext
    v is a linear function of those two parts. The attack fits that map by
    least squares to the known (ciphertext, plaintext) pairs and thresholds
    its output at 0.5. It needs no server secret: whoever sees the
    ciphertexts can run it.
    """

    def features(p):
        return np.concatenate([p[:, 0], p[:, 4]], axis=1)

    weights, *_ = np.linalg.lstsq(features(known_parts), known_plain, rcond=None)
    return (features(parts) @ weights > 0.5).astype(float)


def _blob(data):
    return struct.pack("<I", len(data)) + bytes(data)


def encrypted_index(parts):
    """An encrypted index on the wire: its (8, dim) parts as little-endian
    float64 row-major, with no length, form or width beside them."""
    return np.asarray(parts, dtype="<f8").tobytes(order="C")


def direct_offer_payload(capacity, cases, contact, indexes):
    """SUBMIT_OFFER, direct: u8 scheme 0, u16 capacity, u8 case count, one
    u8 per case (area 0, route 1, extended 2), the u32-prefixed contact,
    then the ciphertext block: the four index blobs (pick-up, drop-off,
    route, time) back to back. Honest filter blobs are 8*filter_bits
    float64 values each and the time blob 8*time_slots, so the block is
    192*filter_bits + 64*time_slots bytes; the blobs are written as given."""
    codes = bytes(_WIRE_CASE[c] for c in cases)
    return struct.pack("<BHB", 0, capacity, len(codes)) + codes + _blob(contact) + b"".join(indexes)


def transfer_offer_payload(capacity, contact, cells):
    """SUBMIT_OFFER, transfer: u8 scheme 1, u16 capacity, the u32-prefixed
    contact, u16 cell count, then the ciphertext block: per cell the plus
    and minus blobs, back to back."""
    body = b"".join(plus + minus for plus, minus in cells)
    return struct.pack("<BH", 1, capacity) + _blob(contact) + struct.pack("<H", len(cells)) + body


def direct_request_payload(contact, indexes):
    """SUBMIT_REQUEST, direct: u8 scheme 0, the u32-prefixed contact, then
    the ciphertext block: the four index blobs (pick-up, drop-off, route,
    time) back to back, at the widths `direct_offer_payload` gives."""
    return struct.pack("<B", 0) + _blob(contact) + b"".join(indexes)


def transfer_request_payload(contact, preference, cells_limit, transfers_limit, pickup, dropoff):
    """SUBMIT_REQUEST, transfer: u8 scheme 1, the u32-prefixed contact, u8
    preference code (declaration order of the preference names), u32 cells
    limit and u32 transfers limit (0xFFFFFFFF for none), then the
    ciphertext block: the pick-up and drop-off blobs back to back."""
    limits = [_NO_LIMIT if v is None else v for v in (cells_limit, transfers_limit)]
    head = struct.pack("<B", 1) + _blob(contact)
    head += struct.pack("<BII", _PREFERENCE_CODES[preference], *limits)
    return head + pickup + dropoff


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

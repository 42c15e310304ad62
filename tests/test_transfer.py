import copy
import itertools

import numpy as np
import pytest

import oracles
import support
from support import SMALL_CONFIG, graph_edge_sets
from ridecloak import crypto, kernels, transfer
from ridecloak.service import ServiceConfig, TosServer, TransferMatchRecord
from ridecloak.transfer import (
    Preference,
    PreferenceKind,
    TransferGraph,
    build_transfer_offer,
    build_transfer_request,
)


def make_offer(env, offer_id, cells, capacity=4, seed=0):
    return build_transfer_offer(
        offer_id, list(cells), env.keysets, env.params, capacity,
        np.random.default_rng(seed),
    )


def make_graph(env, routes, capacities=None):
    graph = TransferGraph(env.id_bits)
    for i, (oid, cells) in enumerate(routes.items()):
        cap = (capacities or {}).get(oid, 4)
        graph.add_offer(make_offer(env, oid, cells, capacity=cap, seed=i), env.scheme_secrets)
    return graph


def test_encode_cell_layout():
    vec = transfer.encode_cells([(5, 0)], id_bits=3, time_bits=2)
    assert vec.tolist() == [[1, 0, 1, 0, 1, 0, 1, 0]]
    vec = transfer.encode_cells([(0, 1)], id_bits=2, time_bits=3)
    assert vec.tolist() == [[0, 0, 1, 1, 0, 1, 0]]


def loop_encoded_cell(identifier, interval, id_bits, time_bits):
    """The reference: a cell vector written bit by bit."""
    vec = np.zeros(transfer.cell_vector_bits(id_bits, time_bits))
    for i in range(id_bits):
        bit = (identifier >> (id_bits - 1 - i)) & 1
        vec[i] = bit
        vec[id_bits + i] = 1 - bit
    vec[2 * id_bits + interval] = 1.0
    return vec


def test_encode_cell_equals_the_bit_loop():
    """Every identifier and interval at id_bits 6, and identifiers past 64 bits."""
    cells = list(itertools.product(range(1 << 6), range(4)))
    want = np.array([loop_encoded_cell(c, t, 6, 4) for c, t in cells])
    assert np.array_equal(transfer.encode_cells(cells, 6, 4), want)
    for c, t in cells:
        one = transfer.encode_cells([(c, t)], 6, 4)
        assert np.array_equal(one, [loop_encoded_cell(c, t, 6, 4)])
    for identifier in (0, 1, 2**64 + 5, 2**70 - 1):
        assert np.array_equal(
            transfer.encode_cells([(identifier, 2)], 70, 3)[0],
            loop_encoded_cell(identifier, 2, 70, 3),
        )


def test_encode_cell_dot_separates_exactly():
    """dot == id_bits+1 exactly when identifier and interval both agree."""
    k, l = 4, 3
    cells = list(itertools.product(range(1 << k), range(l)))
    vectors = transfer.encode_cells(cells, k, l)
    for (x, (a, i)), (y, (b, j)) in itertools.product(enumerate(cells), repeat=2):
        dot = vectors[x] @ vectors[y]
        if a == b and i == j:
            assert dot == k + 1
        elif a == b:
            assert dot == k
        else:
            assert dot <= k - 1 + (i == j)
            assert dot < k + 1


def test_encode_cell_range_checks():
    with pytest.raises(ValueError, match="identifier"):
        transfer.encode_cells([(8, 0)], id_bits=3, time_bits=2)
    with pytest.raises(ValueError, match="identifier"):
        transfer.encode_cells([(-1, 0)], id_bits=3, time_bits=2)
    with pytest.raises(ValueError, match="interval"):
        transfer.encode_cells([(0, 2)], id_bits=3, time_bits=2)


def test_offer_build_validation(transfer_env):
    env = transfer_env
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="cells"):
        build_transfer_offer("o", [(1, 1)], env.keysets, env.params, 2, rng)
    with pytest.raises(ValueError, match="2 to 60 cells, got 61"):
        build_transfer_offer("o", [(1, 1)] * 61, env.keysets, env.params, 2, rng)
    with pytest.raises(ValueError, match="capacity"):
        make_offer(env, "o", [(1, 1), (2, 1)], capacity=0)
    rider_keys = {("transfer", "rider"): env.rider}
    with pytest.raises(ValueError, match=r"no \('transfer', 'driver'\) key set"):
        build_transfer_offer("o", [(1, 1), (2, 1)], rider_keys, env.params, 2, rng)


def test_graph_matches_plain_construction(transfer_env):
    """Encrypted edge discovery equals the raw (cell, interval) comparison."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        routes = {}
        for d in range(5):
            length = int(rng.integers(2, 7))
            cells = [(int(rng.integers(0, 20)), int(rng.integers(0, 4))) for _ in range(length)]
            routes[f"d{d}"] = cells
        graph = make_graph(transfer_env, routes)
        want_route, want_transfer = oracles.transfer_graph_edges(routes)
        got_route, got_transfer = graph_edge_sets(graph)
        assert got_route == want_route
        assert got_transfer == want_transfer


def test_two_shared_cells_two_transfer_edges(transfer_env):
    routes = {
        "a": [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0)],
        "b": [(9, 0), (2, 0), (8, 0), (4, 0), (7, 0)],
    }
    graph = make_graph(transfer_env, routes)
    _, edges = graph_edge_sets(graph)
    assert edges == {
        frozenset((("a", 1), ("b", 1))),
        frozenset((("a", 3), ("b", 3))),
    }


def test_single_offer_no_transfer_edges(transfer_env):
    graph = make_graph(transfer_env, {"a": [(1, 0), (2, 0), (1, 0)]})
    assert graph.transfer_adj == {}
    assert {u: list(graph.neighbors(u)) for u in graph.nodes} == {
        ("a", 0): [(("a", 1), "route")],
        ("a", 1): [(("a", 2), "route")],
        ("a", 2): [],
    }


def test_no_self_offer_transfer_edges(transfer_env):
    """Repeated cells inside one route never create a transfer edge."""
    routes = {
        "a": [(1, 0), (2, 0), (1, 0), (2, 0)],
        "b": [(5, 1), (6, 1)],
    }
    _, edges = graph_edge_sets(make_graph(transfer_env, routes))
    assert all(u[0] != v[0] for u, v in (tuple(e) for e in edges))


def test_transfer_adjacency_symmetric(transfer_env):
    routes = {
        "a": [(1, 0), (2, 0), (3, 0)],
        "b": [(2, 0), (4, 0)],
        "c": [(4, 0), (2, 0), (3, 0)],
    }
    graph = make_graph(transfer_env, routes)
    for u, vs in graph.transfer_adj.items():
        for v in vs:
            assert u in graph.transfer_adj[v]


def test_duplicate_offer_id_rejected(transfer_env):
    graph = make_graph(transfer_env, {"a": [(1, 0), (2, 0)]})
    with pytest.raises(ValueError, match="already"):
        graph.add_offer(make_offer(transfer_env, "a", [(3, 0), (4, 0)]), transfer_env.scheme_secrets)


def test_incremental_add_equals_batch(transfer_env):
    routes = {
        "a": [(1, 0), (2, 0), (3, 0)],
        "b": [(2, 0), (3, 0), (4, 0)],
        "c": [(3, 0), (1, 0)],
    }
    offers = [make_offer(transfer_env, oid, cells, seed=i) for i, (oid, cells) in enumerate(routes.items())]
    batch = support.build_graph(offers, transfer_env.scheme_secrets, transfer_env.id_bits)
    reordered = support.build_graph(
        [make_offer(transfer_env, oid, routes[oid], seed=9) for oid in ("c", "b", "a")],
        transfer_env.scheme_secrets, transfer_env.id_bits,
    )
    assert graph_edge_sets(batch) == graph_edge_sets(reordered)


def test_dijkstra_single_edge():
    dist, preds = transfer.modified_dijkstra({1: [(2, 3.0)], 2: []}, [1])
    assert dist == {1: 0.0, 2: 3.0}
    assert preds == {1: [], 2: [1]}


def test_dijkstra_keeps_all_tied_predecessors():
    adj = {
        "s": [("a", 1.0), ("b", 1.0)],
        "a": [("t", 1.0)],
        "b": [("t", 1.0)],
        "t": [],
    }
    dist, preds = transfer.modified_dijkstra(adj, ["s"])
    assert dist["t"] == 2.0
    assert sorted(preds["t"]) == ["a", "b"]
    paths, truncated = transfer.enumerate_paths(preds, dist, ["s"], ["t"])
    assert not truncated
    assert sorted(paths) == [("s", "a", "t"), ("s", "b", "t")]


def random_digraph(rng, max_nodes=9):
    n = int(rng.integers(3, max_nodes + 1))
    adj = {i: [] for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.3:
                adj[u].append((v, float(rng.integers(1, 4))))
    return adj


def test_enumeration_matches_brute_force_on_random_digraphs():
    rng = np.random.default_rng(31)
    for _ in range(40):
        adj = random_digraph(rng)
        n = len(adj)
        sources = [0]
        destinations = [n - 1, n - 2]
        dist, preds = transfer.modified_dijkstra(adj, sources)
        got, truncated = transfer.enumerate_paths(preds, dist, sources, destinations)
        assert not truncated
        assert set(got) == oracles.min_weight_paths(adj, sources, destinations)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 1000])
def test_enumeration_equals_the_recursive_reference(limit):
    """Same paths in the same order, and the same truncation flag, as the recursive
    backtracker, on random predecessor graphs that may hold cycles."""
    rng = np.random.default_rng(47 + limit)
    flags = set()
    for _ in range(200):
        n = int(rng.integers(3, 9))
        preds = {
            v: [u for u in rng.permutation(n).tolist() if u != v and rng.random() < 0.4]
            for v in range(n)
        }
        dist = {v: float(rng.integers(0, 2)) for v in range(n) if rng.random() < 0.9}
        sources = rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()
        destinations = rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
        want = oracles.recursive_paths(preds, dist, sources, destinations, limit)
        assert transfer.enumerate_paths(preds, dist, sources, destinations, limit) == want
        flags.add(want[1])
    assert (True in flags) == (limit < 1000)  # small limits do truncate


def test_enumeration_follows_a_path_longer_than_the_recursion_limit():
    """A 2,000-node chain, the length of about 34 chained 60-cell offers."""
    n = 2000
    preds = {v: [v - 1] for v in range(1, n)}
    dist = {v: float(v) for v in range(n)}
    assert transfer.enumerate_paths(preds, dist, [0], [n - 1]) == ([tuple(range(n))], False)


def random_routes(rng, n_offers=4):
    routes = {}
    for d in range(n_offers):
        length = int(rng.integers(2, 6))
        routes[f"d{d}"] = [(int(rng.integers(0, 10)), 0) for _ in range(length)]
    return routes


def test_band_search_matches_brute_force_bands(transfer_env):
    rng = np.random.default_rng(53)
    for _ in range(8):
        routes = random_routes(rng)
        graph = make_graph(transfer_env, routes)
        route_edges, transfer_edges = oracles.transfer_graph_edges(routes)
        node_ids = sorted(graph.nodes)
        sources = [node_ids[0]]
        destinations = [node_ids[-1]]
        for kind, primary in (
            (PreferenceKind.MIN_CELLS, "cells"),
            (PreferenceKind.MIN_TRANSFERS, "transfers"),
        ):
            outcome = transfer.find_paths(graph, sources, destinations, Preference(kind))
            want = oracles.band_paths(route_edges, transfer_edges, sources, destinations, primary)
            assert {p.nodes for p in outcome.candidates} == want
            if want:
                lex = oracles.lexicographic_paths(
                    route_edges, transfer_edges, sources, destinations, primary
                )
                assert outcome.selected.nodes == min(lex)


def handoff_graph(env, capacities=None):
    return make_graph(env, oracles.HANDOFF_ROUTES, capacities)


HANDOFF_MIXED = (
    ("d1", 0), ("d1", 1), ("d1", 2), ("d3", 0), ("d3", 1),
    ("d2", 1), ("d2", 2), ("d2", 3),
)


def test_handoff_graph_shape(transfer_env):
    graph = handoff_graph(transfer_env)
    _, edges = graph_edge_sets(graph)
    assert edges == oracles.HANDOFF_TRANSFER_EDGES
    counts = {  # (cells, transfers) per expected path
        oracles.HANDOFF_VIA_D2: (6, 1),
        oracles.HANDOFF_VIA_D3: (7, 1),
        HANDOFF_MIXED: (6, 2),
    }
    for nodes, (cells, transfers) in counts.items():
        result = transfer.annotate_path(nodes)
        assert (result.cell_count, result.transfer_count) == (cells, transfers)
        assert oracles.path_counts(nodes, *oracles.transfer_graph_edges(oracles.HANDOFF_ROUTES)[0:2]) == (cells, transfers)


def find_handoff(env, preference):
    graph = handoff_graph(env)
    return transfer.find_paths(
        graph, [("d1", 0)], [("d2", 3), ("d3", 4)], preference
    )


def test_handoff_min_cells(transfer_env):
    outcome = find_handoff(transfer_env, Preference(PreferenceKind.MIN_CELLS))
    # zero-cost transfer edges admit several 6-cell weaves between d2 and d3;
    # the exact band comes from the brute-force oracle
    want = oracles.band_paths(
        *oracles.transfer_graph_edges(oracles.HANDOFF_ROUTES),
        [("d1", 0)], [("d2", 3), ("d3", 4)], "cells",
    )
    got = {p.nodes for p in outcome.candidates}
    assert got == want
    assert {oracles.HANDOFF_VIA_D2, HANDOFF_MIXED} <= got
    assert all(p.cell_count == 6 for p in outcome.candidates)
    assert outcome.selected.nodes == oracles.HANDOFF_VIA_D2


def test_handoff_min_transfers_finds_both_routes(transfer_env):
    outcome = find_handoff(transfer_env, Preference(PreferenceKind.MIN_TRANSFERS))
    assert {p.nodes for p in outcome.candidates} == {
        oracles.HANDOFF_VIA_D2, oracles.HANDOFF_VIA_D3,
    }
    assert outcome.selected.nodes == oracles.HANDOFF_VIA_D2


def test_handoff_min_cells_transfers(transfer_env):
    outcome = find_handoff(transfer_env, Preference(PreferenceKind.MIN_CELLS_TRANSFERS))
    assert {p.nodes for p in outcome.candidates} == {oracles.HANDOFF_VIA_D2}
    assert outcome.selected.nodes == oracles.HANDOFF_VIA_D2


def test_handoff_bounded_preferences(transfer_env):
    none = find_handoff(transfer_env, Preference(PreferenceKind.MAX_TRANSFERS, transfers_limit=0))
    assert none.selected is None and none.candidates == []
    one = find_handoff(transfer_env, Preference(PreferenceKind.MAX_TRANSFERS, transfers_limit=1))
    assert one.selected.nodes == oracles.HANDOFF_VIA_D2
    tight = find_handoff(transfer_env, Preference(PreferenceKind.MAX_CELLS, cells_limit=5))
    assert tight.selected is None
    loose = find_handoff(transfer_env, Preference(PreferenceKind.MAX_CELLS, cells_limit=6))
    assert loose.selected.nodes == oracles.HANDOFF_VIA_D2
    combo = find_handoff(
        transfer_env, Preference(PreferenceKind.MAX_CELLS_TRANSFERS, cells_limit=6, transfers_limit=1)
    )
    assert combo.selected.nodes == oracles.HANDOFF_VIA_D2
    fewest = find_handoff(transfer_env, Preference(PreferenceKind.MIN_TRANSFERS_MAX_CELLS, cells_limit=6))
    assert {p.nodes for p in fewest.candidates} == {oracles.HANDOFF_VIA_D2}
    shortest = find_handoff(transfer_env, Preference(PreferenceKind.MIN_CELLS_MAX_TRANSFERS, transfers_limit=1))
    assert {p.nodes for p in shortest.candidates} == {oracles.HANDOFF_VIA_D2}


def test_encrypted_search_end_to_end(transfer_env):
    env = transfer_env
    graph = handoff_graph(env)
    request = build_transfer_request(
        "r1", oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF,
        env.keysets, env.params,
        preference=Preference(PreferenceKind.MIN_CELLS_TRANSFERS),
        rng=np.random.default_rng(5),
    )
    request.pickup, request.dropoff = transfer_env_unmask(env, request)
    outcome = transfer.search(graph, request, graph.pin([request.pickup, request.dropoff]))
    assert outcome.sources == [("d1", 0)]
    assert sorted(outcome.destinations) == [("d2", 3), ("d3", 4)]
    assert outcome.selected.nodes == oracles.HANDOFF_VIA_D2


def transfer_env_unmask(env, request):
    from ridecloak import crypto

    return crypto.unmask_indices([request.pickup, request.dropoff], env.secrets, "rider")


def test_update_graph_consumes_capacity(transfer_env):
    env = transfer_env
    graph = handoff_graph(env, capacities={"d1": 2, "d2": 1, "d3": 1})
    pref = Preference(PreferenceKind.MIN_CELLS_TRANSFERS)
    sources, dests = [("d1", 0)], [("d2", 3), ("d3", 4)]

    first = transfer.find_paths(graph, sources, dests, pref)
    assert first.selected.nodes == oracles.HANDOFF_VIA_D2
    assert transfer.update_graph(graph, first.selected) == ["d2"]
    assert graph.capacity == {"d1": 1, "d2": 0, "d3": 1}

    second = transfer.find_paths(graph, sources, dests, pref)
    assert second.selected.nodes == oracles.HANDOFF_VIA_D3
    assert sorted(transfer.update_graph(graph, second.selected)) == ["d1", "d3"]

    third = transfer.find_paths(graph, sources, dests, pref)
    assert third.selected is None and third.candidates == []


def brute_force_pins(graph, query):
    """Per-request pinning: one similarity per active node, in node order."""
    return [
        n.node_id
        for n in graph.active_nodes()
        if abs(support.match_similarity(query, n.plus) - graph.match_target) < kernels.INTEGER_TOL
    ]


def uncached_adjacency(graph, weights):
    return {
        nid: [(v, weights[kind]) for v, kind in graph.neighbors(nid)] for nid in graph.nodes
    }


def unmasked_queries(env, cells, seed):
    vectors = transfer.encode_cells(cells, env.id_bits, env.time_bits)
    rng = np.random.default_rng(seed)
    return crypto.unmask_indices(crypto.encrypt_indices(vectors, env.rider, rng), env.secrets, "rider")


def test_store_matches_brute_force_after_inserts_and_exhaustions(transfer_env):
    """Store pinning equals a per-node loop, and edges link only live offers."""
    env = transfer_env
    rng = np.random.default_rng(61)
    graph = TransferGraph(env.id_bits)
    routes, exhausted = {}, set()
    probes = [(c, t) for c in range(6) for t in range(2)]
    for step in range(30):
        if routes and rng.random() < 0.3:
            oid = list(routes)[int(rng.integers(0, len(routes)))]
            graph.exhaust(oid)
            exhausted.add(oid)
        else:
            oid = f"o{step}"
            length = int(rng.integers(2, 6))
            cells = [(int(rng.integers(0, 6)), int(rng.integers(0, 2))) for _ in range(length)]
            graph.add_offer(make_offer(env, oid, cells, seed=step), env.scheme_secrets)
            routes[oid] = cells
        live = {oid: cells for oid, cells in routes.items() if oid not in exhausted}
        want_route, want_transfer = oracles.transfer_graph_edges(live)
        assert graph_edge_sets(graph) == (want_route, want_transfer)
        assert graph.edge_count() == len(want_route) + len(want_transfer)
        queries = unmasked_queries(env, probes, seed=step)
        hits = graph.pin(queries)
        assert hits.shape == (len(probes), len(graph.nodes))
        for probe, query, row in zip(probes, queries, hits):
            want = oracles.pinned_nodes(routes, exhausted, probe)
            assert graph.pinned(row) == want
            assert brute_force_pins(graph, query) == want
    assert exhausted and len(routes) > len(exhausted)


def test_stale_pins_rejected(transfer_env):
    env = transfer_env
    graph = make_graph(env, {"a": [(1, 0), (2, 0)]})
    (query,) = unmasked_queries(env, [(1, 0)], seed=3)
    hits = graph.pin([query])
    assert graph.pinned(hits[0]) == [("a", 0)]
    graph.add_offer(make_offer(env, "b", [(1, 0), (3, 0)], seed=4), env.scheme_secrets)
    with pytest.raises(ValueError, match="rows"):
        graph.pinned(hits[0])


def assert_view_equals_uncached(graph, weights):
    view = transfer._weighted_adjacency(graph, weights)
    want = uncached_adjacency(graph, weights)
    assert all(node in view for node in want)
    assert {node: view.get(node) for node in want} == want


def test_adjacency_view_follows_inserts_and_exhaustion(transfer_env):
    env = transfer_env
    graph = make_graph(env, {"a": [(1, 0), (2, 0), (3, 0)], "b": [(2, 0), (4, 0)]})
    cells = {"route": 1.0, "transfer": 0.0}
    hops = {"route": 0.0, "transfer": 1.0}
    assert_view_equals_uncached(graph, cells)
    assert_view_equals_uncached(graph, hops)
    view = transfer._weighted_adjacency(graph, cells)
    assert ("c", 0) not in view and view.get(("c", 0), ()) == ()

    graph.add_offer(make_offer(env, "c", [(3, 0), (4, 0)], seed=5), env.scheme_secrets)
    # a view taken before the insert reads the new node's edges
    assert ("c", 0) in view
    assert view.get(("c", 0)) == uncached_adjacency(graph, cells)[("c", 0)]
    assert_view_equals_uncached(graph, cells)
    assert_view_equals_uncached(graph, hops)

    graph.exhaust("a")
    assert view.get(("a", 0)) == []
    assert_view_equals_uncached(graph, cells)
    assert_view_equals_uncached(graph, hops)
    assert ("zz", 0) not in view and view.get(("zz", 0), "none") == "none"


def test_exhaust_edits_no_edge(transfer_env):
    """Exhaustion only marks the offer: the walk skips it, the lists stay."""
    graph = handoff_graph(transfer_env)
    adjacency = copy.deepcopy(graph.transfer_adj)
    assert any(v[0] == "d2" for vs in adjacency.values() for v in vs)
    graph.exhaust("d2")
    assert graph.transfer_adj == adjacency
    assert graph.exhausted == {"d2"}
    assert [n.offer_id for n in graph.active_nodes()].count("d2") == 0
    for node in graph.nodes:
        reached = [v for v, _ in graph.neighbors(node)]
        assert all(v[0] != "d2" for v in reached)
        if node[0] == "d2":
            assert reached == []
    live = {oid: cells for oid, cells in oracles.HANDOFF_ROUTES.items() if oid != "d2"}
    assert graph_edge_sets(graph) == oracles.transfer_graph_edges(live)


ROUND_PREFERENCES = [
    "min-cells", "min-transfers", "min-cells-transfers", "max-cells:6",
    "max-transfers:1", "min-transfers-max-cells:7", "min-cells-max-transfers:1",
    "max-cells-transfers:8,1",
]


def grid_walk(rng, side=4):
    cell = int(rng.integers(0, side * side))
    interval = int(rng.integers(0, 2))
    walk = [cell]
    for _ in range(int(rng.integers(2, 6))):
        row, col = divmod(walk[-1], side)
        steps = [(row + dr, col + dc) for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))]
        steps = [(r, c) for r, c in steps if 0 <= r < side and 0 <= c < side]
        row, col = steps[int(rng.integers(0, len(steps)))]
        walk.append(row * side + col)
    return [(c, interval) for c in walk]


def reference_round(graph, requests):
    """Serve requests one at a time: per-request pinning, adjacency rebuilt per pass."""
    records = []
    for request_id, request in requests.items():
        outcome = transfer.find_paths(
            graph,
            brute_force_pins(graph, request.pickup),
            brute_force_pins(graph, request.dropoff),
            request.preference,
        )
        if outcome.selected is None:
            continue
        transfer.update_graph(graph, outcome.selected)
        records.append(TransferMatchRecord(request_id, outcome.selected, outcome.truncated))
    return records


@pytest.mark.parametrize("seed", range(5))
def test_round_matching_equals_per_request_reference(transfer_env, monkeypatch, seed):
    env = transfer_env
    rng = np.random.default_rng(700 + seed)
    server = TosServer(ServiceConfig(**SMALL_CONFIG), {"transfer": env.secrets}, 1, 0)
    stops = []
    for i in range(12):
        cells = grid_walk(rng)
        offer = make_offer(env, f"o{i}", cells, capacity=int(rng.integers(1, 3)), seed=100 * seed + i)
        server.graph.add_offer(offer, env.scheme_secrets)
        server.transfer_offers[offer.offer_id] = offer
        stops.extend(cells)
    for j in range(20):
        pickup, dropoff = (stops[int(k)] for k in rng.integers(0, len(stops), 2))
        request = build_transfer_request(
            f"r{j}", pickup, dropoff, env.keysets, env.params,
            Preference.parse(ROUND_PREFERENCES[j % len(ROUND_PREFERENCES)]),
            rng=np.random.default_rng(1000 * seed + j),
        )
        request.pickup, request.dropoff = crypto.unmask_indices(
            [request.pickup, request.dropoff], env.secrets, "rider"
        )
        server.transfer_requests[request.request_id] = request
    graph = copy.deepcopy(server.graph)
    requests = dict(server.transfer_requests)

    got = server.run_transfer_matching()
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "_weighted_adjacency", uncached_adjacency)
        want = reference_round(graph, requests)
    assert got == want
    assert server.graph.exhausted == graph.exhausted
    assert server.graph.capacity == graph.capacity
    # the round served riders and exhausted offers part-way through
    assert got and server.graph.exhausted


def test_update_graph_unknown_offer(transfer_env):
    graph = handoff_graph(transfer_env)
    bogus = transfer.PathResult((("zz", 0), ("zz", 1)), 2, 0)
    with pytest.raises(KeyError):
        transfer.update_graph(graph, bogus)


def test_enumeration_truncation_flag():
    adj = {
        "s": [("a", 1.0), ("b", 1.0)],
        "a": [("t", 1.0)],
        "b": [("t", 1.0)],
        "t": [],
    }
    dist, preds = transfer.modified_dijkstra(adj, ["s"])
    paths, truncated = transfer.enumerate_paths(preds, dist, ["s"], ["t"], limit=1)
    assert truncated and len(paths) == 1


@pytest.mark.parametrize("text", [
    "min-cells", "min-transfers", "min-cells-transfers",
    "max-cells:12", "max-transfers:2", "min-transfers-max-cells:9",
    "min-cells-max-transfers:1", "max-cells-transfers:12,2",
])
def test_preference_parse_render_round_trip(text):
    pref = Preference.parse(text)
    assert pref.render() == text
    assert Preference.parse(pref.render()) == pref


def test_preference_validation():
    with pytest.raises(ValueError, match="cells_limit"):
        Preference(PreferenceKind.MIN_CELLS, cells_limit=3)
    with pytest.raises(ValueError, match="transfers_limit"):
        Preference(PreferenceKind.MAX_TRANSFERS)
    with pytest.raises(ValueError, match=">= 0"):
        Preference(PreferenceKind.MAX_CELLS, cells_limit=-1)
    with pytest.raises(ValueError, match="no limit"):
        Preference.parse("min-cells:4")
    with pytest.raises(ValueError):
        Preference.parse("shortest")

"""End-to-end acceptance checks, printing one PASS/FAIL line per criterion.

Each test computes its verdict first, prints the roll-up line, and only
then asserts, so a failing run still reports every measured number.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
import support
from support import SMALL_CONFIG, make_crypto_env, make_direct_env, make_transfer_env
from ridecloak import bloom, crypto, direct, service, sim, transfer
from ridecloak.client import LoopbackTransport, ServiceClient
from ridecloak.direct import MatchCase, OfferSpec, RequestSpec
from ridecloak.protocol import Params
from ridecloak.service import RideService, ServiceConfig
from ridecloak.sim import ExperimentConfig, GridCity, ServicePool
from ridecloak.transfer import Preference, PreferenceKind, TransferGraph

TOL = 1e-3


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    support.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture
def wide_direct_env():
    """Full-width direct-scheme keys for criterion 2, freed once it has run."""
    return make_direct_env(Params(), 1, 4242, 9001)


@pytest.fixture(scope="module")
def wide_transfer_env():
    return make_transfer_env(11, 25, 9002)


def test_criterion_1_inner_product_correctness():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for dim in (16, 64, 256):
        env = make_crypto_env(dim, 1000 + dim)
        rng = np.random.default_rng(dim)
        for batch in (16, 64):
            pairs = 0
            while pairs < 10_000:
                q = (rng.random((batch, dim)) < 0.5).astype(float)
                p = (rng.random((batch, dim)) < 0.5).astype(float)
                rows = crypto.unmask_indices(
                    crypto.encrypt_indices(q, env.rider, rng), env.secrets, "rider"
                )
                cols = crypto.unmask_indices(
                    crypto.encrypt_indices(p, env.driver, rng), env.secrets, "driver"
                )
                got = np.array(
                    [[support.match_similarity(r, c) for c in cols] for r in rows]
                )
                worst = max(worst, float(np.abs(got - q @ p.T).max()))
                pairs += batch * batch
            checked += pairs
    elapsed = time.monotonic() - t0
    report(
        1, worst <= TOL and elapsed < 60.0,
        f"{checked} encrypted pairs at widths 16/64/256 x batches 16/64, "
        f"max |error| {worst:.2e}, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_direct_matching_equals_gate_oracle(wide_direct_env):
    env = wide_direct_env
    t0 = time.monotonic()
    city = GridCity(40, 40)
    total_pairs = 0
    divergent = 0
    mismatched = []
    for seed in range(30):
        wl = sim.generate_workload(
            city, 30, 50, seed, (6, 12), 48,
            transfer_rate=0.0, case_mix=(0.4, 0.35, 0.25),
        )
        offer_facts = [
            (o.offer_id, (o.pickup_cells, o.dropoff_cells, o.route,
                          o.depart_seconds, o.capacity,
                          tuple(c.value for c in o.cases)))
            for o in wl.offers
        ]
        request_facts = [
            (r.request_id, (r.pickup, r.dropoff, r.route, r.pickup_seconds))
            for r in wl.requests
        ]
        rng = np.random.default_rng(seed + 500)
        ospecs = [
            OfferSpec(o.offer_id, o.pickup_cells, o.dropoff_cells, o.route,
                      o.depart_seconds, o.capacity, o.cases)
            for o in wl.offers
        ]
        rspecs = [
            RequestSpec(r.request_id, r.pickup, r.dropoff, r.route, r.pickup_seconds)
            for r in wl.requests
        ]
        built_o = direct.build_offers(ospecs, env.driver, *env.enc, rng)
        built_r = direct.build_requests(rspecs, env.rider, *env.enc, rng)
        got = [
            (m.request_id, m.offer_id, m.case.value)
            for m in direct.match_all(*support.admit_pools(env, built_o, built_r), env.params.n_hashes)
        ]

        cache = {}

        def summary_gate(o, r):
            if (o, r) not in cache:
                cache[(o, r)] = oracles.summary_case(
                    o, r, env.params.time_slots, env.params.filter_bits, env.params.n_hashes,
                    env.epoch, env.salt,
                )
            return cache[(o, r)]

        if got != oracles.greedy_assign(offer_facts, request_facts, summary_gate):
            mismatched.append(seed)
        for _, ofacts in offer_facts:
            for _, rfacts in request_facts:
                total_pairs += 1
                if oracles.truth_case(ofacts, rfacts, 48) != summary_gate(ofacts, rfacts):
                    divergent += 1
    elapsed = time.monotonic() - t0
    rate = divergent / total_pairs
    report(
        2, not mismatched and rate < 0.02 and elapsed < 300.0,
        f"30/30 workloads equal to the plain gate oracle (mismatches: {mismatched or 'none'}), "
        f"{divergent}/{total_pairs} filter false-positive divergences ({100 * rate:.3f}%), "
        f"{elapsed:.0f}s (limit 300s)",
    )


def test_criterion_3_summary_bit_count_and_false_positive_rate():
    rng = np.random.default_rng(33)
    violations = 0
    for _ in range(1000):
        f = bloom.BloomFilter(
            2048, 24, epoch=int(rng.integers(1, 64)), salt=int(rng.integers(1, 10**6))
        )
        f.add(int(rng.integers(0, 10**9)))
        if int(f.array.sum()) != 24:
            violations += 1
    f = bloom.BloomFilter(2048, 24, epoch=7, salt=1234)
    members = {int(c) for c in rng.choice(10**7, size=60, replace=False)}
    for cell in members:
        f.add(cell)
    probes = 0
    false_pos = 0
    while probes < 100_000:
        cell = int(rng.integers(0, 10**9))
        if cell in members:
            continue
        probes += 1
        if support.membership_dot(f, cell) == 24:
            false_pos += 1
    fpp = false_pos / probes
    report(
        3, violations == 0 and fpp <= 0.015,
        f"{1000 - violations}/1000 single-cell summaries set exactly 24 bits, "
        f"false-positive rate {fpp:.6f} over {probes} probes at 60 items (limit 0.015)",
    )


def test_criterion_4_transfer_graph_equals_plain_construction(wide_transfer_env):
    env = wide_transfer_env
    city = GridCity(40, 40)
    mismatched = []
    total_edges = 0
    for seed in range(30):
        wl = sim.generate_workload(city, 10, 0, seed + 40, (6, 12), 48)
        routes = {
            o.offer_id: [
                (cell, bloom.slot_index(o.time_at(pos), env.time_bits))
                for pos, cell in enumerate(o.route)
            ]
            for o in wl.offers
        }
        graph = TransferGraph(env.id_bits)
        for i, (oid, cells) in enumerate(routes.items()):
            offer = transfer.build_transfer_offer(
                oid, cells, env.keysets, env.params, 4, np.random.default_rng(seed * 64 + i),
            )
            graph.add_offer(offer, env.scheme_secrets)
        route_edges, transfer_edges = support.graph_edge_sets(graph)
        if (route_edges, transfer_edges) != oracles.transfer_graph_edges(routes):
            mismatched.append(seed)
        total_edges += len(route_edges) + len(transfer_edges)
    report(
        4, not mismatched,
        f"30/30 encrypted graphs identical to the plain construction "
        f"({total_edges} edges total, mismatches: {mismatched or 'none'})",
    )


def test_criterion_5_minimal_path_enumeration_matches_brute_force():
    rng = np.random.default_rng(77)
    mismatches = 0
    nonempty = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        adj = {u: [] for u in range(n)}
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.30:
                    adj[u].append((v, float(rng.integers(1, 4))))
        labels = [int(x) for x in rng.permutation(n)]
        k_src = int(rng.integers(1, 3))
        k_dst = max(1, min(int(rng.integers(1, 3)), n - k_src))
        sources = labels[:k_src]
        destinations = labels[k_src:k_src + k_dst]
        dist, preds = transfer.modified_dijkstra(adj, sources)
        got, truncated = transfer.enumerate_paths(preds, dist, sources, destinations)
        want = oracles.min_weight_paths(adj, sources, destinations)
        if truncated or set(got) != want:
            mismatches += 1
        nonempty += bool(want)
    report(
        5, mismatches == 0,
        f"200/200 random digraphs (<=12 nodes) match the brute-force minimal-path "
        f"sets exactly, {nonempty} with at least one path",
    )


def test_criterion_6_handoff_fixture_preferences(wide_transfer_env):
    env = wide_transfer_env
    graph = TransferGraph(env.id_bits)
    for i, (oid, cells) in enumerate(oracles.HANDOFF_ROUTES.items()):
        offer = transfer.build_transfer_offer(
            oid, list(cells), env.keysets, env.params, 4, np.random.default_rng(60 + i),
        )
        graph.add_offer(offer, env.scheme_secrets)

    def run(kind):
        request = transfer.build_transfer_request(
            "r", oracles.HANDOFF_PICKUP, oracles.HANDOFF_DROPOFF, env.keysets,
            env.params, preference=Preference(kind),
            rng=np.random.default_rng(61),
        )
        request.pickup, request.dropoff = crypto.unmask_indices(
            [request.pickup, request.dropoff], env.secrets, "rider"
        )
        return transfer.search(graph, request, graph.pin([request.pickup, request.dropoff]))

    min_c = run(PreferenceKind.MIN_CELLS)
    min_t = run(PreferenceKind.MIN_TRANSFERS)
    min_ct = run(PreferenceKind.MIN_CELLS_TRANSFERS)
    ok = (
        len(oracles.HANDOFF_VIA_D2) == 7
        and min_c.selected.nodes == oracles.HANDOFF_VIA_D2
        and {p.nodes for p in min_t.candidates}
        == {oracles.HANDOFF_VIA_D2, oracles.HANDOFF_VIA_D3}
        and min_t.selected.nodes == oracles.HANDOFF_VIA_D2
        and {p.nodes for p in min_ct.candidates} == {oracles.HANDOFF_VIA_D2}
        and min_ct.selected.nodes == oracles.HANDOFF_VIA_D2
    )
    report(
        6, ok,
        "fewest-cells selects the 7-node driver-2 route, fewest-transfers yields "
        f"exactly {len(min_t.candidates)} routes, combined preference selects driver-2",
    )


def test_criterion_7_scheme_trends():
    t0 = time.monotonic()
    # a paper-width service holds ~750 MB of key material and the test
    # peaks near 1.56 GB while clients register, so run seed by seed:
    # the pool keeps only the last service
    pool = ServicePool()
    base = ExperimentConfig(
        rows=40, cols=40, filter_bits=2048, n_hashes=24,
        id_bits=11, time_bits=25, align_slots=25,
    )

    matrix = []
    cells = []
    for seed in (0, 1, 2):
        matrix += [
            sim.run_experiment(
                replace(base, scheme=scheme, n_offers=o, n_requests=q, seed=seed), pool=pool
            )
            for o in (10, 30)
            for q in (10, 30)
            for scheme in sim.SCHEMES
        ]
        cells += [  # 400, 1600 and 6400 cells
            sim.run_experiment(replace(base, rows=side, cols=side, seed=seed), pool=pool)
            for side in (20, 40, 80)
        ]
    rates = {
        (r.scheme, r.n_offers, r.n_requests, r.seed): r.success_rate for r in matrix
    }
    points = [(o, q, s) for o in (10, 30) for q in (10, 30) for s in (0, 1, 2)]
    dominated = sum(
        rates[("transfer", o, q, s)] >= rates[("direct", o, q, s)] for o, q, s in points
    )
    trs_30 = support.mean_success(matrix, scheme="transfer", n_offers=30, n_requests=30)
    nrs_30 = support.mean_success(matrix, scheme="direct", n_offers=30, n_requests=30)
    ratio = trs_30 / nrs_30 if nrs_30 else float("inf")

    sizes = [r.bytes_per_offer for r in cells]
    spread = (max(sizes) - min(sizes)) / min(sizes)
    model_ratio = sim.ccrs_size_model(6400) / sim.ccrs_size_model(400)

    narrow = replace(base, filter_bits=256, n_hashes=4)
    ltab = [
        sim.run_experiment(replace(narrow, scheme="transfer", seed=seed, time_bits=bits), pool=pool)
        for seed in (0, 1, 2)
        for bits in (25, 50, 100, 200)
    ]
    chains = {
        seed: [
            r.vehicle_service_rate
            for v in (25, 50, 100, 200)
            for r in ltab
            if r.seed == seed and r.time_bits == v
        ]
        for seed in (0, 1, 2)
    }
    strictly_falling = all(
        all(a > b for a, b in zip(chain, chain[1:])) for chain in chains.values()
    )
    elapsed = time.monotonic() - t0
    ok = (
        dominated == len(points) and ratio >= 1.3
        and spread <= 0.01 and abs(model_ratio - 16.0) <= 0.016
        and strictly_falling and elapsed < 900.0
    )
    report(
        7, ok,
        f"transfer >= direct success at {dominated}/{len(points)} sweep points "
        f"({ratio:.2f}x at 30x30); offer bytes flat to {100 * spread:.2f}% over "
        f"400-6400 cells while the full-vector model grows {model_ratio:.1f}x; "
        f"service rate strictly falls over finer time slots for 3/3 seeds "
        f"{[[round(r, 3) for r in c] for c in chains.values()]}; "
        f"{elapsed:.0f}s (limit 900s)",
    )


def test_criterion_8_privacy_properties():
    # (a) fresh randomness: re-encryption differs, outcomes do not
    env = make_crypto_env(320, 808)
    rng = np.random.default_rng(3)
    vec = (rng.random(320) < 0.2).astype(float)
    probe = (rng.random(320) < 0.2).astype(float)
    want = float(vec @ probe)
    first = crypto.encrypt_indices(np.tile(vec, (1000, 1)), env.rider, rng)
    second = crypto.encrypt_indices(np.tile(vec, (1000, 1)), env.rider, rng)
    distinct = sum(
        not np.array_equal(a.parts, b.parts) for a, b in zip(first, second)
    )
    offer = support.unmask_index(
        support.encrypt_index(probe, env.driver, rng), env.secrets, "driver"
    )
    stable = sum(
        abs(support.match_similarity(a, offer) - want) <= TOL
        and abs(support.match_similarity(b, offer) - want) <= TOL
        for a, b in zip(
            crypto.unmask_indices(first, env.secrets, "rider"),
            crypto.unmask_indices(second, env.secrets, "rider"),
        )
    )

    # (b) summaries from different epochs miss the similarity threshold
    env_b = make_crypto_env(576, 909)
    rng_b = np.random.default_rng(4)
    qvecs = np.zeros((1000, 576))
    pvecs = np.zeros((1000, 576))
    for i in range(1000):
        cell = int(rng_b.integers(0, 10**9))
        fq = bloom.BloomFilter(576, 7, epoch=2, salt=55)
        fq.add(cell)
        fp = bloom.BloomFilter(576, 7, epoch=1, salt=55)
        fp.add(cell)
        qvecs[i] = fq.vector()
        pvecs[i] = fp.vector()
    rows = crypto.unmask_indices(
        crypto.encrypt_indices(qvecs, env_b.rider, rng_b), env_b.secrets, "rider"
    )
    cols = crypto.unmask_indices(
        crypto.encrypt_indices(pvecs, env_b.driver, rng_b), env_b.secrets, "driver"
    )
    crossed = sum(
        abs(support.match_similarity(r, c) - 7.0) < 0.5 for r, c in zip(rows, cols)
    )

    # (c) skipping the unmasking step breaks matching
    agreements = 0
    for i in range(100):
        env_c = make_crypto_env(64, 6000 + i)
        rng_c = np.random.default_rng(i)
        q = (rng_c.random(64) < 0.5).astype(float)
        p = (rng_c.random(64) < 0.5).astype(float)
        raw = float(
            np.sum(
                support.encrypt_index(q, env_c.rider, rng_c).parts
                * support.encrypt_index(p, env_c.driver, rng_c).parts
            )
        )
        agreements += abs(raw - float(q @ p)) <= TOL

    # (d) nothing key- or plaintext-trip-shaped is reachable from server state
    svc = RideService(ServiceConfig(**SMALL_CONFIG), seed=23)
    driver = ServiceClient(LoopbackTransport(svc), rng=1)
    rider = ServiceClient(LoopbackTransport(svc), rng=2)
    driver.register("driver")
    rider.register("rider")
    driver.submit_direct_offer(OfferSpec(
        offer_id="", pickup_cells=(1, 2, 3), dropoff_cells=(9,),
        route_cells=(3, 4, 5, 9), depart_seconds=18900.0, capacity=2,
    ))
    driver.submit_transfer_offer([(1, 1), (2, 1), (3, 1)], capacity=2)
    rider.submit_direct_request(RequestSpec(
        request_id="", pickup_cell=2, dropoff_cell=9,
        route_cells=(2, 5, 9), pickup_seconds=18900.0,
    ))
    rider.submit_transfer_request((1, 1), (3, 1))
    svc.run_matching()
    state = oracles.reachable_instances(svc.server)
    forbidden = (
        service.TrustedAuthority, crypto.KeyDeriver, crypto.UserKeySet,
        bloom.BloomFilter, sim.PlainOffer, sim.PlainRequest, GridCity,
    )
    leaks = sorted({type(o).__name__ for o in state if isinstance(o, forbidden)})
    holds_ciphertext = any(isinstance(o, crypto.EncryptedIndex) for o in state)

    ok = (
        distinct == 1000 and stable == 1000
        and crossed < 10 and agreements < 1
        and not leaks and holds_ciphertext
    )
    report(
        8, ok,
        f"re-encryption distinct {distinct}/1000 with stable outcomes {stable}/1000; "
        f"cross-epoch threshold hits {crossed}/1000; raw masked-index agreement "
        f"{agreements}/100; server state leaks: {leaks or 'none'}",
    )

"""Constants and helpers shared by the test modules.

They live outside conftest.py because the suite is collected together
with ridebench/tests, whose own conftest.py would shadow a plain
`import conftest`.
"""

import io
import math
from types import SimpleNamespace

import numpy as np

from ridecloak import crypto, direct, kernels, protocol, sim, transfer

SMALL_CONFIG = dict(
    filter_bits=320, n_hashes=4, id_bits=6, time_bits=4,
    time_slots=48, max_items=60,
)

# one roll-up line per acceptance check, echoed after the test summary
ACCEPTANCE_LINES = []


def make_crypto_env(dim: int, seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    derivers, secrets = crypto.generate_keys({"env": dim}, rng)
    deriver = derivers["env"]
    return SimpleNamespace(
        dim=dim,
        rng=rng,
        secrets=secrets["env"],
        deriver=deriver,
        driver=deriver.derive("driver", rng),
        rider=deriver.derive("rider", rng),
    )


def make_direct_env(cfg: direct.SummaryConfig, seed: int) -> SimpleNamespace:
    """Direct-scheme keys at the widths of `cfg`, set up as the service sets them up.

    `secrets` maps "direct" and "time" to the server's secrets, as the pools'
    `admit` takes them; `dims` is a pool row's index widths; `driver` and
    `rider` are each a (filter keys, time keys) pair, as
    `direct.build_offers` / `build_requests` take them.
    """
    rng = np.random.default_rng(seed)
    widths = {"direct": cfg.bits, "time": cfg.time_slots}
    derivers, secrets = crypto.generate_keys(widths, rng)
    keys = {
        role: tuple(derivers[scheme].derive(role, rng) for scheme in ("direct", "time"))
        for role in ("driver", "rider")
    }
    dims = protocol.layout_dims(protocol.DIRECT_TRIP, widths)
    return SimpleNamespace(cfg=cfg, rng=rng, secrets=secrets, dims=dims, **keys)


def admit_pools(env, offers, requests):
    """Direct pools holding client-built, still-masked offers and requests.

    Each one enters through the pool's `admit`, in list order, as the
    server's own submissions do.
    """
    offer_pool = direct.OfferPool(env.dims)
    for o in offers:
        offer_pool.admit(o.indexes(), env.secrets, o.offer_id, o.capacity, o.cases)
    request_pool = direct.RequestPool(env.dims)
    for r in requests:
        request_pool.admit(r.indexes(), env.secrets, r.request_id)
    return offer_pool, request_pool


def unmask_direct(indexes, secrets, role):
    """A direct trip's four `role` indexes through `crypto.unmask_indices`,
    each under its scheme's secrets: the three filters, then the time index."""
    return [
        *crypto.unmask_indices(indexes[:3], secrets["direct"], role),
        *crypto.unmask_indices(indexes[3:], secrets["time"], role),
    ]


def graph_edge_sets(graph):
    """(route edges, undirected transfer edges) as neighbors() walks them."""
    route_edges, transfer_edges = set(), set()
    for u in graph.nodes:
        for v, kind in graph.neighbors(u):
            if kind == "route":
                route_edges.add((u, v))
            else:
                transfer_edges.add(frozenset((u, v)))
    return route_edges, transfer_edges


def encrypt_index(vec, keys, rng):
    """One vector through `crypto.encrypt_indices`."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"encrypt_index takes a single vector, got shape {vec.shape}")
    return crypto.encrypt_indices(vec[None, :], keys, rng)[0]


def unmask_index(index, secrets, role):
    """One index, encrypted under a `role` key set, through `crypto.unmask_indices`."""
    return crypto.unmask_indices([index], secrets, role)[0]


def match_similarity(query, offer):
    """Inner product of the two plaintexts, through `kernels.paired_dots`.

    Both indexes must be unmasked: a rider-role query and a driver-role offer.
    """
    if query.dim != offer.dim:
        raise ValueError(f"dim mismatch: {query.dim} vs {offer.dim}")
    return float(kernels.paired_dots(query.parts, offer.parts).sum())


def build_graph(offers, secrets, id_bits):
    """A transfer graph holding `offers`, added in list order."""
    graph = transfer.TransferGraph(id_bits)
    for offer in offers:
        graph.add_offer(offer, secrets)
    return graph


def analytic_fpp(bits, n_hashes, items):
    """Standard false-positive estimate for a filter holding `items` cells."""
    return (1.0 - math.exp(-n_hashes * items / bits)) ** n_hashes


def mean_success(reports, **filters):
    """Mean success rate over reports matching the given field values."""
    rows = [
        r for r in reports
        if all(getattr(r, name) == value for name, value in filters.items())
    ]
    if not rows:
        raise ValueError(f"no reports match {filters}")
    return float(np.mean([r.success_rate for r in rows]))


def metrics_csv_text(reports):
    """The sweep CSV that `sim.write_metrics_csv` writes, as a string."""
    out = io.StringIO()
    sim.write_metrics_csv(out, reports)
    return out.getvalue()

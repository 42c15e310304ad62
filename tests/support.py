"""Constants and helpers shared by the test modules.

They live outside conftest.py because the suite is collected together
with ridebench/tests, whose own conftest.py would shadow a plain
`import conftest`.
"""

from types import SimpleNamespace

import numpy as np

from ridecloak import crypto, direct

SMALL_CONFIG = dict(
    filter_bits=320, n_hashes=4, id_bits=6, time_bits=4,
    time_slots=48, max_items=60,
)

# one roll-up line per acceptance check, echoed after the test summary
ACCEPTANCE_LINES = []


def make_crypto_env(dim: int, seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    master = crypto.generate_master_key(dim, rng)
    secrets = crypto.generate_tos_secrets(dim, rng)
    deriver = crypto.KeyDeriver(master, secrets)
    return SimpleNamespace(
        dim=dim,
        rng=rng,
        master=master,
        secrets=secrets,
        deriver=deriver,
        driver=deriver.derive("driver", rng),
        rider=deriver.derive("rider", rng),
    )


def admit_pools(env, offers, requests):
    """Direct pools holding client-built, still-masked offers and requests.

    Each one enters through the pool's `admit`, in list order, as the
    server's own submissions do.
    """
    offer_pool = direct.OfferPool(env.dim)
    for o in offers:
        offer_pool.admit(o.indexes(), env.secrets, o.offer_id, o.capacity, o.cases)
    request_pool = direct.RequestPool(env.dim)
    for r in requests:
        request_pool.admit(r.indexes(), env.secrets, r.request_id)
    return offer_pool, request_pool

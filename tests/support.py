"""Constants and helpers shared by the test modules.

They live outside conftest.py because the suite is collected together
with ridebench/tests, whose own conftest.py would shadow a plain
`import conftest`.
"""

from types import SimpleNamespace

import numpy as np

from ridecloak import crypto

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

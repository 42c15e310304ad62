"""Benchmark workloads: service widths, trip counts and round schedules.

Each workload fixes everything except the seed. The seed feeds
`sim.generate_workload`, and the service only ever sees the generated
trips, encrypted by the client.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ridecloak.service import ServiceConfig
from ridecloak.sim import GridCity, Workload, generate_workload


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scheme: str  # "direct" or "transfer": which kind of trips the timed phase submits
    why: str
    n_offers: int
    n_requests: int
    rounds: int
    filter_bits: int
    n_hashes: int
    id_bits: int = 11
    time_bits: int = 25
    tokens_per_bundle: int = 32
    rows: int = 40
    cols: int = 40
    setups: int = 5

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            filter_bits=self.filter_bits,
            n_hashes=self.n_hashes,
            id_bits=self.id_bits,
            time_bits=self.time_bits,
            tokens_per_bundle=self.tokens_per_bundle,
        )

    def city(self) -> GridCity:
        return GridCity(self.rows, self.cols)

    def trips(self, seed: int) -> Workload:
        """Trips of every pass of a run."""
        sub_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        return generate_workload(self.city(), self.n_offers, self.n_requests, sub_seed)

    def round_slices(self, count: int) -> list[slice]:
        """Split `count` trips into `rounds` contiguous, near-equal batches."""
        bounds = [count * k // self.rounds for k in range(self.rounds + 1)]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def tiny(self) -> "WorkloadSpec":
        """Same shape at toy size, for the benchmark's own tests."""
        return replace(
            self, n_offers=12, n_requests=16, rounds=2, filter_bits=128, n_hashes=3,
            id_bits=6, time_bits=4, tokens_per_bundle=5, rows=8, cols=8, setups=2,
        )

    def config_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("name", "why")}


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="direct-wide",
            scheme="direct",
            why="direct scheme at wide filters: key derivation, bundle framing and "
            "768-wide GEMMs dominate; the pool stays small",
            n_offers=120,
            n_requests=200,
            rounds=5,
            filter_bits=768,
            n_hashes=9,
            setups=3,
        ),
        WorkloadSpec(
            name="direct-crowd",
            scheme="direct",
            why="direct scheme at small width with a growing pool: per-frame overhead, "
            "Bloom encoding, re-stacking and the greedy gate loop dominate",
            n_offers=400,
            n_requests=800,
            rounds=6,
            filter_bits=320,
            n_hashes=4,
        ),
        WorkloadSpec(
            name="transfer-city",
            scheme="transfer",
            why="transfer scheme at paper id/time width: graph insert, request pinning "
            "and path search dominate",
            n_offers=150,
            n_requests=250,
            rounds=5,
            filter_bits=320,
            n_hashes=4,
        ),
    )
}

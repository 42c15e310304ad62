"""Closed-loop load, metric assembly and report for one benchmark run.

One process holds an in-process `service.SocketServer` on 127.0.0.1
and two `client.ServiceClient`s over `client.SocketTransport`: one
driver, one rider. The loop is closed, so at most one frame is in
flight. A pass submits the workload's offers and requests in fixed
rounds; after each round the harness calls `RideService.run_matching()`
in process and both clients poll for notifications. Passes repeat, each
in a fresh epoch, until the run's seconds are spent (at least one pass).
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from ridecloak.bloom import slot_index
from ridecloak.client import ServerError, ServiceClient, SocketTransport, TokenError
from ridecloak.direct import DEFAULT_CASES, OfferSpec, RequestSpec
from ridecloak.protocol import DirectNotification, ProtocolError
from ridecloak.service import DirectMatchRecord, RideService, SocketServer
from ridecloak.sim import Workload, identifier_permutation

from . import oracle, reference, tracing
from .workloads import WorkloadSpec

HOST = "127.0.0.1"
RUN_LIMIT_S = 150.0  # start no further pass that could push the run past this
MIN_PASSES = 3  # each step's median is taken over at least this many passes, however slow the host
MIN_COVERAGE = 0.95  # share of traced pass time the top-level spans must cover

END_TO_END = {
    "setup_s": "s",
    "register_s.p50": "s",
    "offer_submit_ms.p50": "ms",
    "offer_submit_ms.p90": "ms",
    "request_submit_ms.p50": "ms",
    "request_submit_ms.p90": "ms",
    "match_s": "s",
    "trips_per_s": "1/s",
    "peak_rss_mb": "MB",
    "offer_wire_bytes": "B",
    "request_wire_bytes": "B",
    "bundle_wire_bytes": "B",
    "served_fraction": "1",
}

OP_ERRORS = (ServerError, TokenError, ProtocolError, OSError)


class BenchError(Exception):
    """The service produced a result the benchmark cannot accept."""


class Session:
    """One set-up service: socket server, its thread and both clients."""

    def __init__(self, spec: WorkloadSpec, seed: int):
        self.threads_before = threading.active_count()
        service_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
        self.service = RideService(spec.service_config(), seed=service_seed)
        self.server = SocketServer(self.service, host=HOST, port=0)
        self.thread = self.server.serve_in_thread()
        port = self.server.server_address[1]
        self.driver = ServiceClient(SocketTransport(HOST, port), rng=np.random.default_rng([seed, 2]))
        self.rider = ServiceClient(SocketTransport(HOST, port), rng=np.random.default_rng([seed, 3]))

    def close(self) -> None:
        for c in (self.driver, self.rider):
            c.transport.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        # handler threads end once they read EOF from the closed clients
        deadline = time.monotonic() + 10
        while threading.active_count() > self.threads_before and time.monotonic() < deadline:
            time.sleep(0.005)


@dataclass
class Stats:
    """Step timings from a set of timed passes over the same trips.

    Every pass submits the same trips in the same rounds, and each pass
    starts with empty token lists, so the passes run the same steps. A
    step is keyed by what it does (its trip, round or registration
    number). Each step is followed by one reference unit, and its time is
    scaled by the reference units around it (`reference.local_scale`), so
    the host's changing speed drops out. A step's time is then its median
    over the passes; a minimum would read lower the more passes a run
    makes, and a slow host makes fewer. The metrics are percentiles and
    sums of these step times.
    """

    # one map per pass: step -> (seconds, seconds of the reference unit after it)
    passes: list[dict[tuple, tuple[float, float]]] = field(default_factory=list)
    bundle_bytes: list[int] = field(default_factory=list)
    offer_bytes: list[int] = field(default_factory=list)
    request_bytes: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    covered_s: float = 0.0  # traced passes: time inside top-level spans
    trips: int = 0  # per pass
    requests: int = 0
    served: int = 0

    def add(self, key: tuple, seconds: float, ref_s: float) -> None:
        self.passes[-1][key] = (seconds, ref_s)

    def step_times(self, scaled: bool) -> dict[tuple, float]:
        """Each step's median time over the passes."""
        samples: dict[tuple, list[float]] = {}
        for steps in self.passes:
            times = np.array([t for t, _ in steps.values()])
            if scaled:
                times *= reference.local_scale(times.tolist(), [r for _, r in steps.values()])
            for key, t in zip(steps, times.tolist()):
                samples.setdefault(key, []).append(t)
        return {key: statistics.median(ts) for key, ts in samples.items()}

    def metrics(self, scaled: bool = True) -> dict[str, float]:
        times = self.step_times(scaled)

        def of(kind: str) -> list[float]:
            return [v for k, v in times.items() if k[0] == kind]

        offer_ms = np.array(of("offer")) * 1000.0
        request_ms = np.array(of("request")) * 1000.0
        return {
            "register_s.p50": statistics.median(of("register")),
            "offer_submit_ms.p50": float(np.percentile(offer_ms, 50)),
            "offer_submit_ms.p90": float(np.percentile(offer_ms, 90)),
            "request_submit_ms.p50": float(np.percentile(request_ms, 50)),
            "request_submit_ms.p90": float(np.percentile(request_ms, 90)),
            "match_s": sum(of("match")),
            "trips_per_s": self.trips / sum(times.values()),
            "offer_wire_bytes": float(np.mean(self.offer_bytes)),
            "request_wire_bytes": float(np.mean(self.request_bytes)),
            "bundle_wire_bytes": float(np.mean(self.bundle_bytes)),
            "served_fraction": self.served / self.requests,
        }


def _contact_index(contact: bytes) -> int:
    return int(contact.decode().rsplit("-", 1)[1])


class ClosedLoop:
    """Runs the workload's operations on one session."""

    def __init__(self, spec: WorkloadSpec, session: Session, ref: reference.Reference):
        self.spec, self.s, self.ref = spec, session, ref
        self.ref_s = 0.0  # the reference unit after the last timed step
        self.paused_s = 0.0  # time of a pass outside the program: reference units, gauges
        self.city = spec.city()
        self.wl: Workload | None = None  # trips of the pass being run
        self.first_pass = False  # wire bytes are counted on a run's first pass only
        self.registrations: dict[str, int] = {}  # per role, in the pass being run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stats: Stats | None = None  # set while a timed pass records into it
        self.tracer: tracing.Tracer | None = None
        self.gauges: list[dict] = []

    def _op(self, kind: str, fn, side: str = "client"):
        """Run one operation; returns (result, seconds), result None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                with self.tracer.operation(kind, side) as span:
                    result = fn()
        except OP_ERRORS as exc:
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if self.stats is not None:
            if self.tracer is not None:
                self.stats.covered_s += span.duration
            self.ref_s = self.ref.unit()
            self.paused_s += self.ref_s
        return result, seconds

    def _submit(self, c: ServiceClient, kind: str, call, key: tuple, sizes: str):
        if not c.registration.tokens:
            role = c.registration.role
            received = c.transport.received_bytes
            reg, seconds = self._op("register", partial(c.register, role))
            if reg is not None and self.stats is not None:
                n = self.registrations[role] = self.registrations.get(role, 0) + 1
                self.stats.add(("register", role, n), seconds, self.ref_s)
                if self.first_pass:
                    self.stats.bundle_bytes.append(c.transport.received_bytes - received)
        sent = c.transport.sent_bytes
        server_id, seconds = self._op(kind, call)
        if server_id is not None and self.stats is not None:
            self.stats.add(key, seconds, self.ref_s)
            if self.first_pass:
                getattr(self.stats, sizes).append(c.transport.sent_bytes - sent)
        return server_id

    def _offer(self, call, i: int = -1):
        return self._submit(self.s.driver, "submit_offer", call, ("offer", i), "offer_bytes")

    def _request(self, call, i: int = -1):
        return self._submit(self.s.rider, "submit_request", call, ("request", i), "request_bytes")

    def _perm(self) -> np.ndarray:
        reg = self.s.driver.registration
        return identifier_permutation(self.city.cell_count, reg.epoch, reg.salt)

    # -- set-up -----------------------------------------------------------------

    def register(self) -> None:
        for c, role in ((self.s.driver, "driver"), (self.s.rider, "rider")):
            self._op("register", partial(c.register, role))
        if self.failed:
            raise BenchError(f"set-up registration failed: {self.errors}")

    def warm_up(self) -> None:
        """One matching offer and request per scheme, a round, polls, a fresh epoch.

        This fills every lazy cache the service has (such as the query mask
        inverses) before timing starts, whichever scheme the workload uses.
        """
        city = self.city
        perm = self._perm()
        cells = tuple(int(perm[c]) for c in city.path(city.cell_at(0, 0), city.cell_at(0, 5)))
        depart = 8 * 3600.0
        hops = [(c, slot_index(depart + 300.0 * pos, self.spec.time_bits)) for pos, c in enumerate(cells)]
        d, r = self.s.driver, self.s.rider
        offer = OfferSpec("warm-up", cells[:2], cells[-1:], cells, depart, 1, DEFAULT_CASES, b"w-0")
        request = RequestSpec("warm-up", cells[0], cells[-1], cells, depart, b"w-0")
        offers = [
            self._offer(partial(d.submit_direct_offer, offer)),
            self._offer(partial(d.submit_transfer_offer, hops, 1, b"w-0")),
        ]
        requests = [
            self._request(partial(r.submit_direct_request, request)),
            self._request(partial(r.submit_transfer_request, hops[0], hops[-1], None, b"w-0")),
        ]
        records, _ = self._op("match_round", self.s.service.run_matching, "server")
        self._op("poll", partial(d.poll, offers))
        self._op("poll", partial(r.poll, requests))
        if self.failed or records is None or len(records) != 2:
            raise BenchError(f"warm-up trips did not both match: {records} {self.errors}")
        self.new_epoch()

    def new_epoch(self) -> None:
        self._op("rotate", self.s.service.rotate_epoch, "server")
        self._op("sync", self.s.driver.sync_epoch)
        self._op("sync", self.s.rider.sync_epoch)

    # -- timed passes -----------------------------------------------------------

    def submit_offer(self, i: int, perm) -> str | None:
        o = self.wl.offers[i]
        contact = f"offer-{i}".encode()
        d = self.s.driver
        if self.spec.scheme == "direct":
            spec = OfferSpec(
                o.offer_id, tuple(int(perm[c]) for c in o.pickup_cells),
                tuple(int(perm[c]) for c in o.dropoff_cells), tuple(int(perm[c]) for c in o.route),
                o.depart_seconds, o.capacity, o.cases, contact,
            )
            return self._offer(partial(d.submit_direct_offer, spec), i)
        cells = [
            (int(perm[cell]), slot_index(o.time_at(pos), self.spec.time_bits))
            for pos, cell in enumerate(o.route)
        ]
        return self._offer(partial(d.submit_transfer_offer, cells, o.capacity, contact), i)

    def submit_request(self, i: int, perm) -> str | None:
        q = self.wl.requests[i]
        contact = f"request-{i}".encode()
        r = self.s.rider
        if self.spec.scheme == "direct":
            spec = RequestSpec(
                q.request_id, int(perm[q.pickup]), int(perm[q.dropoff]),
                tuple(int(perm[c]) for c in q.route), q.pickup_seconds, contact,
            )
            return self._request(partial(r.submit_direct_request, spec), i)
        bits = self.spec.time_bits
        pickup = (int(perm[q.pickup]), slot_index(q.pickup_seconds, bits))
        dropoff = (int(perm[q.dropoff]), slot_index(q.dropoff_seconds, bits))
        return self._request(
            partial(r.submit_transfer_request, pickup, dropoff, q.preference, contact), i
        )

    def run_pass(self, stats: Stats, wl: Workload) -> oracle.PassLog:
        """Submit every trip of `wl` in the workload's rounds; one epoch, one pass.

        Both clients start the pass without tokens, so every pass registers
        at the same submissions and runs the same steps.
        """
        self.stats, self.wl = stats, wl
        self.first_pass = not stats.passes
        stats.passes.append({})
        self.registrations = {}
        for c in (self.s.driver, self.s.rider):
            c.registration.tokens.clear()
        reg = self.s.driver.registration
        log = oracle.PassLog(reg.epoch, reg.salt)
        perm = self._perm()
        offer_of: dict[str, int] = {}
        request_of: dict[str, int] = {}
        seats: dict[str, int] = {}          # the driver's view of its offers
        waiting: dict[str, None] = {}       # the rider's unserved requests, in order
        self.paused_s = 0.0
        n_off, n_req = len(self.wl.offers), len(self.wl.requests)
        gc.collect()  # every pass starts from a collected heap, not from the last pass's garbage
        start = time.perf_counter()
        rounds = zip(self.spec.round_slices(n_off), self.spec.round_slices(n_req))
        for k, (osl, rsl) in enumerate(rounds):
            rnd = oracle.RoundLog()
            log.rounds.append(rnd)
            for i in range(n_off)[osl]:
                sid = self.submit_offer(i, perm)
                if sid is not None:
                    offer_of[sid], seats[sid] = i, self.wl.offers[i].capacity
                    rnd.offers.append(i)
            for i in range(n_req)[rsl]:
                sid = self.submit_request(i, perm)
                if sid is not None:
                    request_of[sid], waiting[sid] = i, None
                    rnd.requests.append(i)
            records, seconds = self._op("match_round", self.s.service.run_matching, "server")
            stats.add(("match", k), seconds, self.ref_s)
            rnd.matches = [self._record(m, offer_of, request_of) for m in records or ()]
            stats.served += len(rnd.matches)
            for note in self._poll(self.s.driver, [s for s, n in seats.items() if n > 0], k):
                seats[note.subject_id] -= 1
                peers = [note.peer_contact] if isinstance(note, DirectNotification) else note.peer_contacts
                rnd.notes += [("offer", offer_of[note.subject_id], _contact_index(p)) for p in peers]
            for note in self._poll(self.s.rider, list(waiting), k):
                waiting.pop(note.subject_id, None)
                peers = [note.peer_contact] if isinstance(note, DirectNotification) else note.peer_contacts
                rnd.notes.append(
                    ("request", request_of[note.subject_id], tuple(_contact_index(p) for p in peers))
                )
            if self.tracer is not None:
                t0 = time.perf_counter()
                self.gauges.append(read_gauges(self.s.service))
                self.paused_s += time.perf_counter() - t0
        stats.wall_s += time.perf_counter() - start - self.paused_s
        stats.trips = len(offer_of) + len(request_of)
        stats.requests += len(request_of)
        self.stats = None
        return log

    def _poll(self, c: ServiceClient, ids: list[str], k: int) -> list:
        if not ids:
            return []
        notes, seconds = self._op("poll", partial(c.poll, ids))
        if notes is not None and self.stats is not None:
            self.stats.add(("poll", c.registration.role, k), seconds, self.ref_s)
        return notes or []

    @staticmethod
    def _record(m, offer_of, request_of) -> tuple:
        try:
            if isinstance(m, DirectMatchRecord):
                return (request_of[m.request_id], offer_of[m.offer_id], m.case.value)
            nodes = tuple((offer_of[oid], pos) for oid, pos in m.path.nodes)
            return (request_of[m.request_id], nodes, m.path.cell_count)
        except KeyError as exc:
            raise BenchError(f"match record names an id this pass never submitted: {exc}") from None


def read_gauges(svc: RideService) -> dict:
    """Pool, graph and stored-ciphertext sizes, read from server state."""
    srv = svc.server
    graph = srv.graph
    stored = sum(ix.parts.nbytes for o in srv.direct_offers.values() for ix in o.indexes())
    stored += sum(ix.parts.nbytes for q in srv.direct_requests.values() for ix in q.indexes())
    stored += sum(n.plus.parts.nbytes + n.minus.parts.nbytes for n in graph.nodes.values())
    stored += sum(
        c.plus.parts.nbytes + c.minus.parts.nbytes
        for o in srv.transfer_offers.values() for c in o.cells
    )
    stored += sum(q.pickup.parts.nbytes + q.dropoff.parts.nbytes for q in srv.transfer_requests.values())
    return {
        "pending_requests": len(srv.direct_requests) + len(srv.transfer_requests),
        "active_offers": sum(1 for n in srv.direct_remaining.values() if n > 0)
        + len(srv.transfer_offers) - len(graph.exhausted),
        "stored_cipher_mb": stored / 1e6,
        "graph_nodes": len(graph.nodes),
        "graph_edges": graph.edge_count(),
        "graph_active_nodes": len(graph.active_nodes()),
    }


def run_passes(loop: ClosedLoop, stats: Stats, budget_s: float, wl: Workload,
               run_start: float, min_passes: int) -> list[tuple[Workload, oracle.PassLog]]:
    """Timed passes over `wl` until `budget_s` of timed time is spent and
    `min_passes` are made, or until the run could overrun RUN_LIMIT_S."""
    logs = []
    while True:
        t0 = time.perf_counter()
        logs.append((wl, loop.run_pass(stats, wl)))
        loop.new_epoch()
        last = time.perf_counter() - t0
        if time.perf_counter() - run_start + last > RUN_LIMIT_S:
            return logs
        if stats.wall_s >= budget_s and len(logs) >= min_passes:
            return logs


# -- provenance -------------------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" if absent."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_record() -> dict:
    out: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    out["threads"] = _openblas_threads()
    out["env_threads"] = {
        k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
    }
    return out


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded by numpy: same handle
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(spec: WorkloadSpec, seed: int, root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "workload": spec.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "config": spec.config_record(),
    }


# -- one run ------------------------------------------------------------------------


def _window(spans, start: float, end: float):
    return [s for s in spans if s.start >= start and s.end <= end]


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, out_dir: Path, root: Path):
    """Run one workload; returns (result line dict, report dict)."""
    run_start = time.perf_counter()
    setup_s = []
    ref = reference.Reference()
    session = None
    try:
        for _ in range(spec.setups):
            if session is not None:
                session.close()
                session = None
            t0 = time.perf_counter()
            session = Session(spec, seed)
            loop = ClosedLoop(spec, session, ref)
            loop.register()
            loop.warm_up()
            setup_s.append(time.perf_counter() - t0)
        budget = seconds / 2 if trace else seconds
        wl = spec.trips(seed)
        stats = Stats()
        logs = run_passes(loop, stats, budget, wl, run_start, MIN_PASSES)
        if trace:
            tracer = tracing.Tracer()
            loop.tracer = tracer
            tracer.install()
            try:
                window_start = time.perf_counter()
                loop.warm_up()  # every layer runs at least once under the tracer
                traced = Stats()
                # per-layer numbers are totals, not medians over passes: one pass will do
                logs += run_passes(loop, traced, budget, wl, run_start, 1)
                window_end = time.perf_counter()
            finally:
                tracer.uninstall()
                loop.tracer = None
    finally:
        if session is not None:
            session.close()
        ref.close()

    report: dict = {"provenance": provenance(spec, seed, root), "setup_s": setup_s}
    errors = list(loop.errors)
    for k, (wl, log) in enumerate(logs):
        errors += [f"pass {k}: {e}" for e in oracle.check_pass(spec, wl, log)]
    if loop.failed:
        errors.append(f"{loop.failed} operations failed")

    e2e = stats.metrics()
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(
        digest=oracle.digest(logs[0][1]), passes=len(logs), end_to_end=e2e,
        unscaled_end_to_end=stats.metrics(scaled=False),
        failed_ops=loop.failed / loop.attempted,
    )
    if trace:
        spans = _window(tracer.spans, window_start, window_end)
        traced_e2e = traced.metrics()
        coverage = traced.covered_s / traced.wall_s
        if coverage < MIN_COVERAGE:
            errors.append(f"top-level spans cover {coverage:.3f} of traced pass time")
        layers = tracing.layer_metrics(spans)
        layers.update(tracing.gauge_metrics(loop.gauges))
        layers.update({
            "trace.match_s": traced_e2e["match_s"],
            "trace.match_s_ratio": traced_e2e["match_s"] / e2e["match_s"],
            "trace.register_s_p50_ratio": traced_e2e["register_s.p50"] / e2e["register_s.p50"],
            "trace.trips_per_s_ratio": traced_e2e["trips_per_s"] / e2e["trips_per_s"],
            "trace.coverage": coverage,
        })
        report.update(per_layer=layers, traced_end_to_end=traced_e2e,
                      table=tracing.layer_table(spans), traced_wall_s=window_end - window_start)
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"{spec.name}-seed{seed}.spans.jsonl"))
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    report["errors"] = errors[:50]
    result = {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, report

"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the ridecloak modules from the
outside, for the duration of the traced run only, and restores them
afterwards. A span has a name, start, end, parent span, operation id
and side. Client and server run in one process and the load is a
closed loop with one frame in flight, so one process-wide "current
operation" id links each client operation to the server spans it
causes. Spans stay in memory and are written out when the run ends.

`read_frame` spans are waiting, not work: on the client they are time
spent waiting for the server, and on a server handler thread they are
idle time between frames. They are reported apart from busy time.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from ridecloak import bloom, crypto, direct, kernels, protocol, service, transfer


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    side: str
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, side: str | None = None, **attrs) -> Span:
        """Open a span; it inherits its parent's side, else the thread's."""
        stack = self._stack()
        if stack:
            side = stack[-1].side
        elif side is None:
            side = "client" if threading.current_thread() is self._main else "server"
        span = Span(
            next(self._ids), stack[-1].span_id if stack else 0, name, side,
            self.op, time.perf_counter(), attrs=attrs,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.op = self.op  # a server read ends inside the operation it serves
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def operation(self, name: str, side: str = "client"):
        """Top-level span on the driving thread that starts a new operation id.

        A matching round runs the service in process, so it is opened with
        side "server" and everything under it counts as server work.
        """
        self.op += 1
        span = self.begin(f"op.{name}", side)
        try:
            yield span
        finally:
            self.finish(span)

    # -- installing wrappers --------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap the layer boundaries named in ridebench/README.md."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        w(direct, "build_offers", "client.build_offer")
        w(direct, "build_requests", "client.build_request")
        w(transfer, "build_transfer_offer", "client.build_offer")
        w(transfer, "build_transfer_request", "client.build_request")
        w(bloom.BloomFilter, "of_cells", "bloom.encode")
        w(direct, "slot_vector", "bloom.encode")
        w(crypto, "encrypt_indices", "crypto.encrypt", _rows)
        w(crypto, "unmask_indices", "crypto.unmask", _rows)
        w(crypto.KeyDeriver, "derive", "crypto.derive")
        w(crypto, "key_material_to_bytes", "crypto.keyser")
        w(crypto, "key_material_from_bytes", "crypto.keyser")
        w(crypto, "similarity_matrix", "crypto.similarity")
        w(kernels, "cross_dots", "kernels.cross_dots", _gemm_flops)
        w(protocol, "encode_frame", "protocol.frame_codec")
        w(protocol, "decode_frame", "protocol.frame_codec")
        w(protocol, "encode_key_bundle", "protocol.bundle_codec")
        w(protocol, "decode_key_bundle", "protocol.bundle_codec")
        w(protocol, "read_frame", "protocol.read_frame", _frame_bytes)
        w(service.RideService, "dispatch", "service.dispatch", _dispatch_type)
        w(service.TrustedAuthority, "register", "service.register")
        w(direct, "match_all", "direct.match_all", _pairs_and_matches)
        w(transfer.TransferGraph, "add_offer", "transfer.add_offer", _insert_counts)
        w(transfer, "search", "transfer.search", _search_outcome)
        w(transfer, "find_paths", "transfer.find_paths")
        w(transfer, "_weighted_adjacency", "transfer.adjacency")  # rebuilt per band pass
        w(transfer, "modified_dijkstra", "transfer.dijkstra")
        w(transfer, "enumerate_paths", "transfer.enumerate")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "name": s.name, "side": s.side,
                    "op": s.op, "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


# -- annotations: counts recorded where the work happens ------------------------


def _rows(span, args, result):
    span.attrs["rows"] = len(result)


def _gemm_flops(span, args, result):
    a, b = args[0], args[1]
    span.attrs["flops"] = 2 * a.shape[0] * b.shape[0] * a.shape[1]


def _frame_bytes(span, args, result):
    if result is not None:
        span.attrs["type"] = result.msg_type.name
        span.attrs["bytes"] = protocol.HEADER_SIZE + len(result.payload)


def _dispatch_type(span, args, result):
    frame_bytes = args[1]
    try:
        span.attrs["type"] = protocol.MsgType(frame_bytes[4]).name
    except (IndexError, ValueError):
        span.attrs["type"] = "INVALID"


def _pairs_and_matches(span, args, result):
    offers, requests = args[0], args[1]
    span.attrs["pairs"] = len(offers) * len(requests)
    span.attrs["matches"] = len(result)


def _insert_counts(span, args, result):
    graph, offer = args[0], args[1]
    active_before = sum(1 for n in graph.active_nodes() if n.offer_id != offer.offer_id)
    span.attrs["compared"] = len(offer.cells) * active_before
    span.attrs["edges"] = int(result)


def _search_outcome(span, args, result):
    span.attrs["served"] = int(result.selected is not None)
    span.attrs["truncated"] = int(result.truncated)


# -- per-layer metrics ----------------------------------------------------------

UP_TYPES = ("REGISTER_USER", "SUBMIT_OFFER", "SUBMIT_REQUEST", "MATCH_NOTIFICATION")
DOWN_TYPES = ("KEY_BUNDLE", "SUBMIT_OFFER", "SUBMIT_REQUEST", "MATCH_NOTIFICATION")
DISPATCH_TYPES = ("REGISTER_USER", "SUBMIT_OFFER", "SUBMIT_REQUEST", "MATCH_NOTIFICATION")
GAUGES = ("pending_requests", "active_offers", "stored_cipher_mb",
          "graph_nodes", "graph_edges", "graph_active_nodes")

# name -> (unit, better). Totals are summed over the traced window; gauges
# are the largest value seen after any round.
PER_LAYER: dict[str, tuple[str, str]] = {
    "client.build_offer_ms": ("ms", "lower"),
    "client.build_offer_calls": ("count", "lower"),
    "client.build_request_ms": ("ms", "lower"),
    "client.build_request_calls": ("count", "lower"),
    "bloom.encode_ms": ("ms", "lower"),
    "bloom.encode_calls": ("count", "lower"),
    "crypto.encrypt_ms": ("ms", "lower"),
    "crypto.encrypt_rows": ("count", "lower"),
    "crypto.unmask_ms": ("ms", "lower"),
    "crypto.unmask_rows": ("count", "lower"),
    "crypto.derive_s": ("s", "lower"),
    "crypto.derive_calls": ("count", "lower"),
    "crypto.keyser_s": ("s", "lower"),
    "crypto.similarity_s": ("s", "lower"),
    "crypto.similarity_self_s": ("s", "lower"),
    "crypto.similarity_calls": ("count", "lower"),
    "kernels.cross_dots_s": ("s", "lower"),
    "kernels.cross_dots_gflop": ("GFLOP", "lower"),
    "kernels.cross_dots_calls": ("count", "lower"),
    "protocol.frame_codec_s": ("s", "lower"),
    "protocol.bundle_codec_s": ("s", "lower"),
    "protocol.read_wait_s": ("s", "lower"),
    "protocol.server_idle_s": ("s", "lower"),
    **{f"protocol.bytes_up.{t}": ("B", "lower") for t in UP_TYPES},
    **{f"protocol.bytes_down.{t}": ("B", "lower") for t in DOWN_TYPES},
    **{f"service.dispatch_ms.{t}": ("ms", "lower") for t in DISPATCH_TYPES},
    **{f"service.dispatch_calls.{t}": ("count", "lower") for t in DISPATCH_TYPES},
    "service.register_s": ("s", "lower"),
    "direct.match_all_s": ("s", "lower"),
    "direct.match_all_self_s": ("s", "lower"),
    "direct.pairs_scored": ("count", "lower"),
    "direct.matches": ("count", "higher"),
    "direct.matches_per_kpair": ("1/1000", "higher"),
    "transfer.add_offer_ms": ("ms", "lower"),
    "transfer.add_offer_calls": ("count", "lower"),
    "transfer.nodes_compared": ("count", "lower"),
    "transfer.edges_added": ("count", "lower"),
    "transfer.search_s": ("s", "lower"),
    "transfer.find_paths_s": ("s", "lower"),
    "transfer.pinning_s": ("s", "lower"),
    "transfer.adjacency_s": ("s", "lower"),
    "transfer.dijkstra_s": ("s", "lower"),
    "transfer.enumerate_s": ("s", "lower"),
    "transfer.searches": ("count", "lower"),
    "transfer.served": ("count", "higher"),
    "transfer.served_per_search": ("1", "higher"),
    "transfer.truncated": ("count", "lower"),
    **{f"gauge.{g}": ("MB" if g.endswith("_mb") else "count", "lower") for g in GAUGES},
    "trace.register_explained": ("1", "higher"),
    "trace.match_in_search": ("1", "higher"),
    "trace.match_s": ("s", "lower"),
    "trace.match_s_ratio": ("1", "lower"),
    "trace.register_s_p50_ratio": ("1", "lower"),
    "trace.trips_per_s_ratio": ("1", "higher"),
    "trace.coverage": ("1", "higher"),
}

# self time of these spans is the work a registration does in the
# derivation and serialization layers
REGISTER_WORK = ("crypto.derive", "crypto.keyser", "protocol.bundle_codec", "protocol.frame_codec")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its direct children cover."""
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child[s.parent] += s.duration
    return {s.span_id: s.duration - child[s.span_id] for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals, self times, counts and ratios from one traced window."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    mine: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[tuple[str, str], float] = defaultdict(float)
    for s in spans:
        key = s.name
        if key == "protocol.read_frame":
            key = f"{key}:{s.side}"
            if "type" in s.attrs:
                direction = "up" if s.side == "server" else "down"
                attr[(f"bytes_{direction}", s.attrs["type"])] += s.attrs["bytes"]
        elif key == "service.dispatch":
            key = f"{key}:{s.attrs['type']}"
        total[key] += s.duration
        mine[key] += own[s.span_id]
        calls[key] += 1
        for k, v in s.attrs.items():
            if isinstance(v, int):
                attr[(key, k)] += v

    pairs = attr[("direct.match_all", "pairs")]
    searches = calls["transfer.search"]
    out = {
        "client.build_offer_ms": 1e3 * total["client.build_offer"],
        "client.build_offer_calls": calls["client.build_offer"],
        "client.build_request_ms": 1e3 * total["client.build_request"],
        "client.build_request_calls": calls["client.build_request"],
        "bloom.encode_ms": 1e3 * total["bloom.encode"],
        "bloom.encode_calls": calls["bloom.encode"],
        "crypto.encrypt_ms": 1e3 * total["crypto.encrypt"],
        "crypto.encrypt_rows": attr[("crypto.encrypt", "rows")],
        "crypto.unmask_ms": 1e3 * total["crypto.unmask"],
        "crypto.unmask_rows": attr[("crypto.unmask", "rows")],
        "crypto.derive_s": total["crypto.derive"],
        "crypto.derive_calls": calls["crypto.derive"],
        "crypto.keyser_s": total["crypto.keyser"],
        "crypto.similarity_s": total["crypto.similarity"],
        "crypto.similarity_self_s": mine["crypto.similarity"],
        "crypto.similarity_calls": calls["crypto.similarity"],
        "kernels.cross_dots_s": total["kernels.cross_dots"],
        "kernels.cross_dots_gflop": attr[("kernels.cross_dots", "flops")] / 1e9,
        "kernels.cross_dots_calls": calls["kernels.cross_dots"],
        "protocol.frame_codec_s": total["protocol.frame_codec"],
        "protocol.bundle_codec_s": total["protocol.bundle_codec"],
        "protocol.read_wait_s": mine["protocol.read_frame:client"],
        "protocol.server_idle_s": mine["protocol.read_frame:server"],
        **{f"protocol.bytes_up.{t}": attr[("bytes_up", t)] for t in UP_TYPES},
        **{f"protocol.bytes_down.{t}": attr[("bytes_down", t)] for t in DOWN_TYPES},
        **{f"service.dispatch_ms.{t}": 1e3 * total[f"service.dispatch:{t}"] for t in DISPATCH_TYPES},
        **{f"service.dispatch_calls.{t}": calls[f"service.dispatch:{t}"] for t in DISPATCH_TYPES},
        "service.register_s": total["service.register"],
        "direct.match_all_s": total["direct.match_all"],
        "direct.match_all_self_s": mine["direct.match_all"],
        "direct.pairs_scored": pairs,
        "direct.matches": attr[("direct.match_all", "matches")],
        "direct.matches_per_kpair": 1e3 * attr[("direct.match_all", "matches")] / pairs if pairs else 0.0,
        "transfer.add_offer_ms": 1e3 * total["transfer.add_offer"],
        "transfer.add_offer_calls": calls["transfer.add_offer"],
        "transfer.nodes_compared": attr[("transfer.add_offer", "compared")],
        "transfer.edges_added": attr[("transfer.add_offer", "edges")],
        "transfer.search_s": total["transfer.search"],
        "transfer.find_paths_s": total["transfer.find_paths"],
        "transfer.pinning_s": total["transfer.search"] - total["transfer.find_paths"],
        "transfer.adjacency_s": total["transfer.adjacency"],
        "transfer.dijkstra_s": total["transfer.dijkstra"],
        "transfer.enumerate_s": total["transfer.enumerate"],
        "transfer.searches": searches,
        "transfer.served": attr[("transfer.search", "served")],
        "transfer.served_per_search": attr[("transfer.search", "served")] / searches if searches else 0.0,
        "transfer.truncated": attr[("transfer.search", "truncated")],
    }

    # attribution of two end-to-end costs to the layers that should explain them
    ops = {s.op: s for s in spans if s.parent == 0 and s.name in ("op.register", "op.match_round")}
    work: dict[int, float] = defaultdict(float)
    for s in spans:
        op = ops.get(s.op)
        if op is None:
            continue
        if op.name == "op.register" and s.name in REGISTER_WORK:
            work[s.op] += own[s.span_id]
        elif op.name == "op.match_round" and s.name == "transfer.search":
            work[s.op] += s.duration
    shares = [work[i] / o.duration for i, o in ops.items() if o.name == "op.register"]
    rounds = [o for o in ops.values() if o.name == "op.match_round"]
    out["trace.register_explained"] = statistics.median(shares) if shares else 0.0
    out["trace.match_in_search"] = (
        sum(work[o.op] for o in rounds) / sum(o.duration for o in rounds) if rounds else 0.0
    )
    return out


def gauge_metrics(gauges: list[dict]) -> dict[str, float]:
    return {f"gauge.{g}": max((row[g] for row in gauges), default=0) for g in GAUGES}


def layer_table(spans: list[Span]) -> list[tuple[str, str, int, float, float]]:
    """(side, span name, calls, total s, self s) rows, busiest self time first."""
    own = self_times(spans)
    rows: dict[tuple[str, str], list] = {}
    for s in spans:
        row = rows.setdefault((s.side, s.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.span_id]
    out = [(side, name, *vals) for (side, name), vals in rows.items()]
    out.sort(key=lambda r: -r[4])
    return out


def format_table(rows, wall: float) -> str:
    def pct(x):
        return 100.0 * x / wall if wall else 0.0

    lines = [f"{'side':<6} {'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for side, name, calls, total, own in rows:
        lines.append(f"{side:<6} {name:<24} {calls:>8} {total:>10.4f} {own:>10.4f} {pct(own):>6.1f}%")
    modules: dict[str, float] = defaultdict(float)
    for side, name, _calls, _total, own in rows:
        if name != "protocol.read_frame":  # waiting, not work
            modules[f"{side}:{name.split('.')[0]}"] += own
    lines.append(f"self time by side:module over {wall:.3f} s traced wall (waits excluded):")
    for key, own in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {key:<24} {own:>10.4f} s {pct(own):>6.1f}%")
    return "\n".join(lines)

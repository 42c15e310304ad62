"""Transfer (multi-driver) ride matching over an encrypted trip graph.

Every driver submits, per route cell, two encrypted indexes of the same
plaintext cell vector: a plus index under driver-role keys (matched
against riders and against other drivers' minus indexes) and a minus index
under rider-role keys. A cell vector is [id bits | complemented id bits |
one-hot time interval], so two vectors agree on id_bits+1 positions
exactly when they are the same cell in the same interval, and on at most
id_bits positions otherwise; the threshold id_bits+1 therefore has no
false positives.

The server keeps a graph whose nodes are the drivers' (offer, position)
cells, with directed route edges along each route and undirected transfer
edges between co-located, co-temporal cells of different offers, so a hop
inside one offer is a route edge and a hop between offers a transfer edge.
Edges are append-only: a route successor (offer, pos + 1) follows from the
offer's length, and an inserted offer's transfer edges are appended to
both ends' lists. Exhausting an offer only marks it exhausted and clears
its rows in the active mask; neighbors() skips every edge that touches an
exhausted offer. A rider's request pins source nodes (cells matching the
pick-up index) and destination nodes (matching the drop-off index); path
search honors the rider's preference over traversed cells and transfers.

The graph keeps every node's plus index, as the driver sent it, as one
row of a contiguous (N, 8*dim) matrix, in insertion order, grown by
doubling, with an active-row mask that exhaustion clears. Inserting an offer compares
its minus indexes against that matrix in one GEMM. A matching round
pins every pending request in one GEMM too (TransferGraph.pin) and hands
each search its two hit rows; search ANDs them with the active mask as it
stands, so offers exhausted earlier in the round drop out exactly as if
each request had been pinned on its own. A band pass reads each node's
weighted out-edges from the graph when Dijkstra visits it, so it costs
the nodes it reaches, and the graph holds no derived state that an insert
or an exhaustion must invalidate.

Preference passes run a multi-source Dijkstra that records every
equal-cost predecessor, then enumerate all minimal simple paths. The
primary metric is weighted 1 and the other 0 in the set-defining pass, so
the candidate set contains every path minimizing the primary count; the
secondary metric is applied as a tie-break at selection time.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import crypto, kernels
from .crypto import EncryptedIndex, KeySetId, Layout, MaskStock, TosSecrets, UserKeySet

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import Params

# Paths one band search enumerates before it stops and flags truncation.
DEFAULT_PATH_LIMIT = 10_000
# Swaps the ASCII digits 0 and 1: a cell vector's complemented id bits.
_FLIP = bytes.maketrans(b"01", b"10")

NodeId = tuple[str, int]


def cell_vector_bits(id_bits: int, time_bits: int) -> int:
    """Width of a cell vector: identifier bits, their complement, interval one-hot."""
    return 2 * id_bits + time_bits


def encode_cells(cells, id_bits: int, time_bits: int) -> np.ndarray:
    """Plaintext cell vectors, one row per (identifier, interval): id bits (MSB first),
    complement, interval one-hot, formatted as ASCII digits and converted in one numpy call."""
    rows = []
    for identifier, interval in cells:
        if not (0 <= identifier < (1 << id_bits)):
            raise ValueError(f"identifier {identifier} out of range for {id_bits} bits")
        if not (0 <= interval < time_bits):
            raise ValueError(f"interval {interval} out of range for {time_bits} bits")
        bits = format(identifier, "b").zfill(id_bits).encode()
        one_hot = b"0" * interval + b"1" + b"0" * (time_bits - 1 - interval)
        rows += (bits, bits.translate(_FLIP), one_hot)
    digits = np.frombuffer(b"".join(rows), np.uint8)
    return digits.reshape(len(cells), cell_vector_bits(id_bits, time_bits)) - 48.0  # ord("0")


class PreferenceKind(enum.Enum):
    MIN_CELLS = "min-cells"
    MIN_TRANSFERS = "min-transfers"
    MAX_CELLS = "max-cells"
    MAX_TRANSFERS = "max-transfers"
    MIN_CELLS_TRANSFERS = "min-cells-transfers"
    MIN_TRANSFERS_MAX_CELLS = "min-transfers-max-cells"
    MIN_CELLS_MAX_TRANSFERS = "min-cells-max-transfers"
    MAX_CELLS_TRANSFERS = "max-cells-transfers"


# Per kind: the counts the band pass minimises (min-cells-transfers keeps the
# paths minimal in both) and the limits the kind takes, in written order.
_KIND_RULES: dict[PreferenceKind, tuple[tuple[str, ...], tuple[str, ...]]] = {
    PreferenceKind.MIN_CELLS: (("cells",), ()),
    PreferenceKind.MIN_TRANSFERS: (("transfers",), ()),
    PreferenceKind.MAX_CELLS: (("cells",), ("cells",)),
    PreferenceKind.MAX_TRANSFERS: (("transfers",), ("transfers",)),
    PreferenceKind.MIN_CELLS_TRANSFERS: (("cells", "transfers"), ()),
    PreferenceKind.MIN_TRANSFERS_MAX_CELLS: (("transfers",), ("cells",)),
    PreferenceKind.MIN_CELLS_MAX_TRANSFERS: (("cells",), ("transfers",)),
    PreferenceKind.MAX_CELLS_TRANSFERS: (("cells",), ("cells", "transfers")),
}


@dataclass(frozen=True)
class Preference:
    kind: PreferenceKind
    cells_limit: int | None = None
    transfers_limit: int | None = None

    def __post_init__(self) -> None:
        takes = _KIND_RULES[self.kind][1]
        for count in ("cells", "transfers"):
            if (count in takes) != (getattr(self, f"{count}_limit") is not None):
                raise ValueError(f"{self.kind.value}: {count}_limit mismatch")
        for limit in (self.cells_limit, self.transfers_limit):
            if limit is not None and limit < 0:
                raise ValueError(f"limits must be >= 0, got {limit}")

    @classmethod
    def parse(cls, text: str) -> "Preference":
        """Parse e.g. 'min-cells', 'max-transfers:1', 'max-cells-transfers:12,2'."""
        name, _, arg = text.strip().partition(":")
        kind = PreferenceKind(name)
        takes = _KIND_RULES[kind][1]
        if not takes and arg:
            raise ValueError(f"{name} takes no limit, got {arg!r}")
        values = arg.split(",") if takes else []
        if len(values) != len(takes):
            raise ValueError(f"{name} takes {len(takes)} limits, got {arg!r}")
        return cls(kind, **{f"{count}_limit": int(v) for count, v in zip(takes, values)})

    def render(self) -> str:
        takes = _KIND_RULES[self.kind][1]
        if not takes:
            return self.kind.value
        return f"{self.kind.value}:" + ",".join(str(getattr(self, f"{c}_limit")) for c in takes)


DEFAULT_PREFERENCE = Preference(PreferenceKind.MIN_CELLS)

# The key sets of a transfer submission's block: an offer's is one
# TRANSFER_CELL per route cell (plus, minus), a request's one
# TRANSFER_QUERY (pick-up, drop-off).
TRANSFER_CELL: Layout = ((("transfer", "driver"), 1), (("transfer", "rider"), 1))
TRANSFER_QUERY: Layout = ((("transfer", "rider"), 2),)


@dataclass
class TransferCellCipher:
    """One route cell as submitted by a driver, encrypted under both roles' key sets."""

    plus: EncryptedIndex   # driver-role keys, matched against queries
    minus: EncryptedIndex  # rider-role keys, matched against other offers' plus


@dataclass
class TransferOffer:
    offer_id: str
    capacity: int
    cells: list[TransferCellCipher]
    contact: bytes = b""

    def indexes(self) -> list[EncryptedIndex]:
        """Its block's indexes: per cell, the plus then the minus."""
        return [idx for c in self.cells for idx in (c.plus, c.minus)]


@dataclass
class TransferRequest:
    request_id: str
    pickup: EncryptedIndex
    dropoff: EncryptedIndex
    preference: Preference = DEFAULT_PREFERENCE
    contact: bytes = b""


def build_transfer_offer(
    offer_id: str,
    cells: list[tuple[int, int]],
    keysets: dict[KeySetId, UserKeySet],
    params: Params,
    capacity: int,
    rng: np.random.Generator | MaskStock,
    contact: bytes = b"",
) -> TransferOffer:
    """Encrypt a driver's route of 2 to `max_items` (identifier, interval) cells."""
    if not 2 <= len(cells) <= params.max_items:
        raise ValueError(f"a transfer offer takes 2 to {params.max_items} cells, got {len(cells)}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    vectors = encode_cells(cells, params.id_bits, params.time_bits)
    plus, minus = crypto.encrypt_layout([vectors, vectors], TRANSFER_CELL, keysets, rng)
    pairs = [TransferCellCipher(p, m) for p, m in zip(plus, minus)]
    return TransferOffer(offer_id, capacity, pairs, contact)


def build_transfer_request(
    request_id: str,
    pickup: tuple[int, int],
    dropoff: tuple[int, int],
    keysets: dict[KeySetId, UserKeySet],
    params: Params,
    preference: Preference = DEFAULT_PREFERENCE,
    *,
    rng: np.random.Generator | MaskStock,
    contact: bytes = b"",
) -> TransferRequest:
    vectors = encode_cells([pickup, dropoff], params.id_bits, params.time_bits)
    (indexes,) = crypto.encrypt_layout([vectors], TRANSFER_QUERY, keysets, rng)
    return TransferRequest(request_id, *indexes, preference, contact)


@dataclass
class TransferNode:
    offer_id: str
    position: int
    plus: EncryptedIndex
    minus: EncryptedIndex

    @property
    def node_id(self) -> NodeId:
        return (self.offer_id, self.position)


@dataclass
class PathResult:
    nodes: tuple[NodeId, ...]
    cell_count: int      # route edges + 1: physical cells traversed
    transfer_count: int


@dataclass
class SearchOutcome:
    selected: PathResult | None
    candidates: list[PathResult]
    sources: list[NodeId]
    destinations: list[NodeId]
    truncated: bool = False


class TransferGraph:
    """Server-side graph of offer cells.

    Plus indexes are stored as sent, minus indexes and pinned queries
    (rider-role) as `crypto.unmask_indices` returns them, times the match
    mask, so each of their products is a plaintext similarity.
    """

    def __init__(self, id_bits: int):
        self.id_bits = id_bits
        self.nodes: dict[NodeId, TransferNode] = {}
        self.transfer_adj: dict[NodeId, list[NodeId]] = {}
        self.capacity: dict[str, int] = {}
        self.exhausted: set[str] = set()
        # Columnar store: row r holds the flattened plus index of _row_ids[r].
        self._row_ids: list[NodeId] = []
        self._offer_rows: dict[str, range] = {}
        self._plus = np.empty((0, 0))
        self._active = np.zeros(0, dtype=bool)

    @property
    def match_target(self) -> int:
        return self.id_bits + 1

    @property
    def active_mask(self) -> np.ndarray:
        """One flag per stored row: False once the row's offer is exhausted."""
        return self._active[: len(self._row_ids)]

    def active_nodes(self) -> list[TransferNode]:
        return [n for n in self.nodes.values() if n.offer_id not in self.exhausted]

    def edge_count(self) -> int:
        """Live edges: route edges plus undirected transfer edges, each once."""
        kinds = [kind for node in self.nodes for _, kind in self.neighbors(node)]
        routes = kinds.count("route")
        return routes + (len(kinds) - routes) // 2

    def neighbors(self, node: NodeId):
        """Live out-edges of `node` as (successor, kind); none once its offer is exhausted."""
        offer_id, pos = node
        exhausted = self.exhausted
        if offer_id in exhausted:
            return
        if pos + 1 < len(self._offer_rows[offer_id]):
            yield (offer_id, pos + 1), "route"
        for other in self.transfer_adj.get(node, ()):
            if other[0] not in exhausted:
                yield other, "transfer"

    def _hits(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), N) flags: which stored plus rows each rider-role query matches."""
        sims = kernels.cross_dots(rows, self._plus[: len(self._row_ids)])
        return kernels.hits(sims, self.match_target)

    def pin(self, queries: list[EncryptedIndex]) -> np.ndarray:
        """Match rider-role queries, in stored form, against every stored row, active or not.

        Returns a (len(queries), N) boolean array. The similarities do not
        change while the graph only loses active rows, so a round pins all
        its requests once and masks the result per search.
        """
        if not queries or not self._row_ids:
            return np.zeros((len(queries), len(self._row_ids)), dtype=bool)
        return self._hits(np.array([q.flat() for q in queries]))

    def pinned(self, hits: np.ndarray) -> list[NodeId]:
        """Active nodes among one row of pin() hits, in insertion order."""
        if hits.shape != (len(self._row_ids),):
            raise ValueError(f"pin row covers {hits.shape} rows, graph holds {len(self._row_ids)}")
        return [self._row_ids[j] for j in np.flatnonzero(hits & self.active_mask)]

    def _append_rows(self, rows: np.ndarray) -> range:
        start = len(self._row_ids)
        stop = start + len(rows)
        if stop > len(self._plus):
            size = max(stop, 2 * len(self._plus), 64)
            plus = np.empty((size, rows.shape[1]))
            active = np.zeros(size, dtype=bool)
            if start:
                plus[:start] = self._plus[:start]
                active[:start] = self._active[:start]
            self._plus, self._active = plus, active
        self._plus[start:stop] = rows
        self._active[start:stop] = True
        return range(start, stop)

    def add_offer(self, offer: TransferOffer, secrets: dict[str, TosSecrets]) -> int:
        """Check and insert one offer; returns the number of transfer edges added.

        `secrets` maps each scheme to the server's secrets; `TRANSFER_CELL`
        picks the scheme and role of each cell's plus and minus index.
        Incremental by construction: the new cells' minus indexes are
        compared in one GEMM against the columnar store of plus rows,
        masked to the active ones; then the new plus rows are appended to
        the store.
        """
        if offer.offer_id in self.capacity:
            raise ValueError(f"offer id {offer.offer_id!r} already in graph")
        plus, minus = crypto.unmask_layout(
            [[c.plus for c in offer.cells], [c.minus for c in offer.cells]], TRANSFER_CELL, secrets
        )
        new_nodes = [
            TransferNode(offer.offer_id, pos, p, m) for pos, (p, m) in enumerate(zip(plus, minus))
        ]
        added = 0
        if self.active_mask.any():
            hits = self._hits(np.array([n.minus.flat() for n in new_nodes])) & self.active_mask
            for i, j in zip(*np.nonzero(hits)):
                u = new_nodes[int(i)].node_id
                v = self._row_ids[int(j)]
                self.transfer_adj.setdefault(u, []).append(v)
                self.transfer_adj.setdefault(v, []).append(u)
                added += 1
        rows = self._append_rows(np.array([n.plus.flat() for n in new_nodes]))
        self._offer_rows[offer.offer_id] = rows
        for node in new_nodes:
            self.nodes[node.node_id] = node
            self._row_ids.append(node.node_id)
        self.capacity[offer.offer_id] = offer.capacity
        return added

    def exhaust(self, offer_id: str) -> None:
        """Take an offer out of matching; its nodes and edges stay stored."""
        self.exhausted.add(offer_id)
        rows = self._offer_rows[offer_id]
        self._active[rows.start : rows.stop] = False


class _WeightedEdges:
    """Weighted out-edges of a graph's nodes, read from it on each lookup."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: TransferGraph, weights: dict[str, float]):
        self.graph = graph
        self.weights = weights

    def __contains__(self, node: NodeId) -> bool:
        return node in self.graph.nodes

    def get(self, node: NodeId, default=None):
        """`node`'s out-edges in `graph.neighbors` order, or `default` off the graph."""
        if node not in self.graph.nodes:
            return default
        weights = self.weights
        return [(v, weights[kind]) for v, kind in self.graph.neighbors(node)]


def _weighted_adjacency(graph: TransferGraph, weights: dict[str, float]) -> _WeightedEdges:
    """Weighted out-edges of every node, as a view Dijkstra reads per visited node."""
    return _WeightedEdges(graph, weights)


def modified_dijkstra(
    adj: dict[NodeId, list[tuple[NodeId, float]]] | _WeightedEdges,
    sources: list[NodeId],
) -> tuple[dict[NodeId, float], dict[NodeId, list[NodeId]]]:
    """Multi-source Dijkstra keeping every equal-cost predecessor.

    Relaxation that strictly improves a distance resets the predecessor
    list; relaxation that exactly ties appends. Weights must be
    non-negative; zero weights are fine because enumeration walks simple
    paths only.

    `adj` maps a node to its (successor, weight) out-edges: a dict, or the
    view `_weighted_adjacency` returns. Only `in` and `get` are used.
    """
    dist: dict[NodeId, float] = {}
    preds: dict[NodeId, list[NodeId]] = {}
    heap: list[tuple[float, NodeId]] = []
    for s in sources:
        if s in adj:
            dist[s] = 0.0
            preds[s] = []
            heapq.heappush(heap, (0.0, s))
    done: set[NodeId] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            cand = d + w
            old = dist.get(v)
            if old is None or cand < old:
                dist[v] = cand
                preds[v] = [u]
                heapq.heappush(heap, (cand, v))
            elif cand == old and u not in preds[v]:
                preds[v].append(u)
    return dist, preds


def enumerate_paths(
    preds: dict[NodeId, list[NodeId]],
    dist: dict[NodeId, float],
    sources: list[NodeId],
    destinations: list[NodeId],
    limit: int = DEFAULT_PATH_LIMIT,
) -> tuple[list[tuple[NodeId, ...]], bool]:
    """All distinct minimal simple paths from any source to a nearest destination.

    Backtracks the predecessor DAG depth first on an explicit stack, so a
    path of any length fits; an on-path visited set guards against the
    cycles that zero-weight ties can introduce. Stops with a truncation
    flag after `limit` paths.
    """
    reachable = [d for d in destinations if d in dist]
    if not reachable:
        return [], False
    best = min(dist[d] for d in reachable)
    targets = [d for d in reachable if dist[d] <= best + 1e-9]
    source_set = set(sources)
    if limit <= 0:
        return [], True
    paths: list[tuple[NodeId, ...]] = []
    tail: list[NodeId] = []  # the path so far, destination first
    on_path: set[NodeId] = set()
    stack = [iter(targets)]  # untried predecessors of each node of `tail`, targets first
    while stack:
        for node in stack[-1]:
            if node not in on_path:
                break
        else:
            stack.pop()
            if tail:
                on_path.discard(tail.pop())
            continue
        tail.append(node)
        on_path.add(node)
        if node in source_set:
            paths.append(tuple(reversed(tail)))
            if len(paths) >= limit:
                return paths, True
        stack.append(iter(preds.get(node, ())))
    return paths, False


def annotate_path(nodes: tuple[NodeId, ...]) -> PathResult:
    """Counts of a graph path: a hop that changes offer is a transfer edge."""
    transfers = sum(u[0] != v[0] for u, v in zip(nodes, nodes[1:]))
    return PathResult(nodes, len(nodes) - transfers, transfers)


def _band_paths(
    graph: TransferGraph,
    sources: list[NodeId],
    destinations: list[NodeId],
    primary: str,
) -> tuple[list[PathResult], bool]:
    """Every simple path minimizing the primary count (secondary unweighted)."""
    weights = {"route": 1.0, "transfer": 0.0} if primary == "cells" else {"route": 0.0, "transfer": 1.0}
    adj = _weighted_adjacency(graph, weights)
    dist, preds = modified_dijkstra(adj, sources)
    raw, truncated = enumerate_paths(preds, dist, sources, destinations)
    return [annotate_path(nodes) for nodes in raw], truncated


def find_paths(
    graph: TransferGraph,
    sources: list[NodeId],
    destinations: list[NodeId],
    preference: Preference,
) -> SearchOutcome:
    """Candidate set and deterministic selection for a preference.

    Candidates are the preference's minimal paths after bound filtering;
    selection minimizes (secondary count, node sequence) so equal outcomes
    are ordered lexicographically and results are reproducible.
    """
    sources = [s for s in sources if s in graph.nodes]
    destinations = [d for d in destinations if d in graph.nodes]
    if not sources or not destinations:
        return SearchOutcome(None, [], sources, destinations)

    minimised = _KIND_RULES[preference.kind][0]
    bands = [_band_paths(graph, sources, destinations, count) for count in minimised]
    candidates = bands[0][0]
    for paths, _ in bands[1:]:
        also_minimal = {p.nodes for p in paths}
        candidates = [p for p in candidates if p.nodes in also_minimal]
    truncated = any(t for _, t in bands)
    if preference.cells_limit is not None:
        candidates = [p for p in candidates if p.cell_count <= preference.cells_limit]
    if preference.transfers_limit is not None:
        candidates = [p for p in candidates if p.transfer_count <= preference.transfers_limit]
    # a path minimal in both counts ties on either, so its node sequence decides
    if minimised[0] == "cells":
        tie_break = lambda p: (p.transfer_count, p.nodes)
    else:
        tie_break = lambda p: (p.cell_count, p.nodes)
    selected = min(candidates, key=tie_break) if candidates else None
    return SearchOutcome(selected, candidates, sources, destinations, truncated)


def search(
    graph: TransferGraph,
    request: TransferRequest,
    pins: np.ndarray,
) -> SearchOutcome:
    """Match a rider: pin source/destination nodes, then run the preference.

    pins is the request's two rows of graph.pin() (pick-up, drop-off),
    computed earlier in the round.
    """
    sources = graph.pinned(pins[0])
    destinations = graph.pinned(pins[1])
    return find_paths(graph, sources, destinations, request.preference)


def update_graph(graph: TransferGraph, path: PathResult) -> list[str]:
    """Consume one seat on every offer along a served path.

    Offers that reach zero capacity are exhausted and take no further
    part in matching. Returns the offer ids that were exhausted.
    """
    exhausted = []
    for offer_id in dict.fromkeys(oid for oid, _ in path.nodes):
        graph.capacity[offer_id] -= 1
        if graph.capacity[offer_id] <= 0:
            graph.exhaust(offer_id)
            exhausted.append(offer_id)
    return exhausted

"""Reference work: how fast the host runs the kinds of work the program does.

The benchmark shares a few cores of a host with other tenants, and their
load changes how fast the same code runs by half or more within minutes.
A timed step of a pass is therefore followed by one reference unit: a
fixed mix of interpreter work, a row gather and a small matrix product,
and one upload of a frame-sized message over a local socket to a thread
that acknowledges it, the kinds of work a submission does. The unit's code never changes with the program, so the
ratio of a step's time to the reference units around it measures the
program alone, and `REF_UNIT_S` turns that ratio back into seconds on a
host that runs one unit in `REF_UNIT_S`.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

REF_UNIT_S = 0.4e-3  # seconds per unit on the host the scale is quoted for
MIN_HALF_S = 0.02  # a step's scale comes from the units within this or its own duration of it
_UPLOAD = b"r" * 65536  # about one small-width offer or request frame


class Reference:
    """Acknowledging thread and operands of the reference unit; close() ends the thread."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 320))
        self.b = rng.standard_normal((320, 96))
        self.table = rng.standard_normal((2048, 320))
        self.rows = rng.integers(0, len(self.table), 120)
        self.sock, peer = socket.socketpair()
        self.thread = threading.Thread(target=_acknowledge, args=(peer,), daemon=True)
        self.thread.start()

    def unit(self) -> float:
        """Seconds to run one reference unit."""
        t0 = time.perf_counter()
        table = {i: (i * 7) % 13 for i in range(400)}
        b"".join(bytes((v,)) for v in table.values())
        float((self.a @ self.b).sum() + self.table[self.rows].sum())
        self.sock.sendall(_UPLOAD)
        self.sock.recv(1)
        return time.perf_counter() - t0

    def close(self) -> None:
        self.sock.close()  # the echo thread reads EOF and ends
        self.thread.join(timeout=10)


def _acknowledge(peer: socket.socket) -> None:
    """Reply one byte to every full upload, until the other end closes."""
    with peer:
        got = 0
        while data := peer.recv(len(_UPLOAD)):
            got += len(data)
            if got >= len(_UPLOAD):
                got -= len(_UPLOAD)
                peer.sendall(b"k")


def local_scale(seconds: list[float], refs: list[float]) -> np.ndarray:
    """Scale of each step of a sequence in which every step is followed by a unit.

    The scale is REF_UNIT_S over the median of the units that lie within
    max(MIN_HALF_S, the step's own duration) of the step's middle, so a
    long step is judged by the host's speed over as long a time.
    """
    t = np.asarray(seconds, dtype=float)
    r = np.asarray(refs, dtype=float)
    ends = np.cumsum(t + r)
    step_mid = ends - r - t / 2
    unit_mid = ends - r / 2
    half = np.maximum(t, MIN_HALF_S)
    lo = np.searchsorted(unit_mid, step_mid - half)
    hi = np.searchsorted(unit_mid, step_mid + half, side="right")
    return np.array([REF_UNIT_S / np.median(r[a:b]) for a, b in zip(lo, hi)])

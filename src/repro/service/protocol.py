"""The persistent worker protocol: message tags, state machine, framing.

The always-on service runtime keeps workers alive across many runs, so
the one-shot batch/done exchange of the original pool grows into a
small state machine, spoken identically over every transport (inline
call, thread queue, process queue, TCP socket):

===========  ==========================  ================================
driver sends payload                     worker replies
===========  ==========================  ================================
INIT         spec (or pre-pickled        READY — plans ship **once** per
             bytes of it)                worker lifetime, not per run
RESET        epoch, task params          —   (new run: fresh TaskRunner)
SEED         epoch, events, now          —   (crash recovery: replay the
                                         acked window log through
                                         ``seed_from``)
BATCH        epoch, batch id, events     ACK with the batch id and the
                                         matches kept since the last ack
FINISH       epoch                       DONE with the WorkerResult
STOP         —                           —   (worker exits)
PING         token                       PONG echoing the token
                                         (liveness probe: epoch-free,
                                         valid in any state)
STATS        token, scope                STATS with the token and a list
                                         of worker snapshots (metrics +
                                         trace nodes; epoch-free,
                                         read-only, valid mid-stream)
===========  ==========================  ================================

Failures travel back as ERROR replies carrying the epoch and a
formatted traceback.  The **epoch** (one per run) makes staleness
harmless: after an aborted run, batches still queued for a worker are
dropped on arrival (wrong epoch) and their late acks are ignored by the
driver, so a dirty pool heals itself on the next RESET instead of
needing a restart.

:class:`WorkerState` is the transport-independent worker half; the
channels in :mod:`repro.service.transport` and the TCP server in
:mod:`repro.service.shard_server` all drive the same instance, which is
what keeps socket shards byte-identical to in-process workers.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, Optional, Tuple

from ..parallel.worker import TaskRunner, WorkerTask

# -- driver -> worker tags ---------------------------------------------------
MSG_INIT = "init"
MSG_RESET = "reset"
MSG_SEED = "seed"
MSG_BATCH = "batch"
MSG_FINISH = "finish"
MSG_STOP = "stop"
MSG_PING = "ping"
MSG_STATS = "stats"

# -- worker -> driver tags ---------------------------------------------------
REPLY_READY = "ready"
REPLY_ACK = "ack"
REPLY_DONE = "done"
REPLY_ERROR = "error"
REPLY_PONG = "pong"
REPLY_STATS = "stats"

#: STATS scopes: ``"self"`` snapshots the worker that received the
#: frame; ``"server"`` additionally folds in every sibling worker the
#: same shard server hosts (ignored — treated as ``"self"`` — on
#: transports without a server-side registry).
STATS_SELF = "self"
STATS_SERVER = "server"


class WorkerState:
    """One persistent worker's state machine (transport-independent).

    ``handle(message)`` consumes one protocol message and returns the
    replies to ship back (zero or one today; a list keeps the framing
    uniform).  Internal failures raise — the transport wrapper converts
    them into ERROR replies so the driver sees one shape everywhere.
    A STOP message returns ``None`` replies and flips :attr:`stopped`.
    """

    def __init__(self, worker_id: int, stats_scope=None) -> None:
        self.worker_id = worker_id
        self.stopped = False
        self._spec: Optional[object] = None
        self._runner: Optional[TaskRunner] = None
        self._epoch = -1
        # Optional zero-arg callable returning snapshots of *every*
        # worker sharing this one's host (a shard server injects it);
        # answers STATS frames with scope "server".
        self._stats_scope = stats_scope

    def snapshot(self) -> dict:
        """Read-only introspection: current epoch, merged metrics of the
        active runner (``None`` between runs), per-node trace counters
        (``None`` unless the task traces).  Safe to call mid-stream —
        nothing in the epoch machinery moves."""
        if self._runner is None:
            return {
                "worker_id": self.worker_id,
                "epoch": self._epoch,
                "metrics": None,
                "nodes": None,
            }
        stats = self._runner.stats()
        return {
            "worker_id": self.worker_id,
            "epoch": self._epoch,
            "metrics": stats["metrics"],
            "nodes": stats["nodes"],
        }

    def handle(self, message: Tuple) -> List[Tuple]:
        tag = message[0]
        if tag == MSG_STOP:
            self.stopped = True
            return []
        if tag == MSG_PING:
            # Liveness probe: epoch-free, valid in any state (even
            # before INIT).  The token travels back verbatim so the
            # driver can match a PONG to the PING that asked for it.
            return [(self.worker_id, REPLY_PONG, message[1])]
        if tag == MSG_STATS:
            # Introspection poll: epoch-free and read-only, valid in any
            # state — polling a live worker mid-stream disturbs nothing.
            token, scope = message[1], message[2]
            if scope == STATS_SERVER and self._stats_scope is not None:
                snapshots = self._stats_scope()
            else:
                snapshots = [self.snapshot()]
            return [(self.worker_id, REPLY_STATS, (token, snapshots))]
        if tag == MSG_INIT:
            payload = message[1]
            # Process/socket drivers pre-pickle the spec once (so a
            # pickling failure surfaces in the driver, typed, instead of
            # dying inside a queue feeder thread) and ship bytes.
            self._spec = (
                pickle.loads(payload)
                if isinstance(payload, bytes)
                else payload
            )
            self._runner = None
            return [(self.worker_id, REPLY_READY, None)]
        if tag == MSG_RESET:
            epoch, params = message[1], message[2]
            if self._spec is None:
                raise RuntimeError("RESET before INIT")
            self._epoch = epoch
            self._runner = TaskRunner(WorkerTask(self._spec, **params))
            return []
        if tag == MSG_SEED:
            epoch, events, now = message[1], message[2], message[3]
            if epoch == self._epoch and self._runner is not None:
                self._runner.seed(events, now)
            return []
        if tag == MSG_BATCH:
            epoch, batch_id, events = message[1], message[2], message[3]
            if epoch != self._epoch or self._runner is None:
                return []  # stale batch from an aborted run: drop, no ack
            self._runner.feed(events)
            return [
                (
                    self.worker_id,
                    REPLY_ACK,
                    (epoch, batch_id, self._runner.take_matches()),
                )
            ]
        if tag == MSG_FINISH:
            epoch = message[1]
            if epoch != self._epoch or self._runner is None:
                raise RuntimeError(
                    f"FINISH for epoch {epoch} but worker is at "
                    f"epoch {self._epoch}"
                )
            result = self._runner.finish()
            self._runner = None
            return [(self.worker_id, REPLY_DONE, (epoch, result))]
        raise RuntimeError(f"unknown service message tag {tag!r}")

    def fail(self, epoch_hint: Optional[int], traceback_text: str) -> Tuple:
        """Build the ERROR reply for an exception ``handle`` raised,
        and drop the active run (the driver aborts it anyway)."""
        epoch = self._epoch if epoch_hint is None else epoch_hint
        self._runner = None
        return (self.worker_id, REPLY_ERROR, (epoch, traceback_text))


def message_epoch(message: Tuple) -> Optional[int]:
    """The epoch a driver->worker message belongs to (None for
    INIT/STOP, which are epoch-free)."""
    if message[0] in (MSG_RESET, MSG_SEED, MSG_BATCH, MSG_FINISH):
        return message[1]
    return None


# -- socket framing ----------------------------------------------------------

_LENGTH = struct.Struct(">I")

#: Frames above this are refused at send time: a corrupt length prefix
#: must not make the receiver attempt a multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 30


class FrameTooLarge(EOFError):
    """A frame's length prefix exceeds the receiver's cap.

    The payload is unread, so the byte stream is unusable past this
    point — a receiver must reply (if it can) and close.  Subclasses
    :class:`EOFError` so transport-level catch-alls treat it as a dead
    peer, which is what it effectively is.
    """


class FrameCorrupt(EOFError):
    """A frame's payload failed to unpickle (truncated, poisoned, or
    not pickle at all).  Framing itself stayed in sync — the payload
    was fully consumed — but the peer cannot be trusted to speak the
    protocol, so receivers reply with a typed ERROR and close."""


def send_frame(sock, payload: object) -> None:
    """Ship one length-prefixed pickled frame over a socket."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds the 1 GiB cap")
    sock.sendall(_LENGTH.pack(len(blob)) + blob)


def recv_frame(sock, max_frame_bytes: int = MAX_FRAME_BYTES) -> object:
    """Read one frame; raises EOFError on a closed connection,
    :class:`FrameTooLarge` past the length cap, and
    :class:`FrameCorrupt` when the payload does not unpickle."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"frame length {length} exceeds the {max_frame_bytes} byte cap"
        )
    blob = _recv_exact(sock, length)
    try:
        return pickle.loads(blob)
    except Exception as error:  # noqa: BLE001 — loads can raise anything
        raise FrameCorrupt(
            f"frame payload of {length} bytes failed to unpickle: {error}"
        ) from error


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameDecoder:
    """Incremental frame reassembly for timeout-bounded socket reads.

    :func:`recv_frame` is only safe on a blocking socket: a timeout
    firing after it has consumed part of a frame would lose those bytes
    and desynchronize the stream.  A decoder instead accumulates
    whatever bytes have arrived (:meth:`feed`) and hands back a frame
    only once it is whole (:meth:`next_frame`), so a partially-received
    frame simply waits in the buffer for the next read.  Protocol
    frames are tuples, never ``None``, so ``None`` unambiguously means
    "incomplete".
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def mid_frame(self) -> bool:
        """True when buffered bytes form only part of a frame — an EOF
        now means the peer died mid-send, not a clean close."""
        return len(self._buffer) > 0

    def next_frame(self) -> Optional[Tuple]:
        buffer = self._buffer
        if len(buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack(bytes(buffer[: _LENGTH.size]))
        if length > self._max_frame_bytes:
            raise FrameTooLarge(
                f"frame length {length} exceeds the "
                f"{self._max_frame_bytes} byte cap"
            )
        end = _LENGTH.size + length
        if len(buffer) < end:
            return None
        blob = bytes(buffer[_LENGTH.size:end])
        del buffer[:end]
        try:
            return pickle.loads(blob)
        except Exception as error:  # noqa: BLE001 — loads can raise anything
            raise FrameCorrupt(
                f"frame payload of {length} bytes failed to unpickle: "
                f"{error}"
            ) from error

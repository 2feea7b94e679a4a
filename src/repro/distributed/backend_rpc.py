"""TCP/RPC backend: master-coordinated supersteps over framed sockets.

The layout follows the paper's actual deployment shape — one master
coordinating dumb workers over the network — and mirrors the multiprocess
backend's split of responsibilities:

* The **master** (calling process) runs the master program, routes message
  blobs between workers, reduces aggregators, assembles metrics, and also
  owns *fault handling*: per-worker snapshots once per protocol cycle,
  worker-death detection, and adopt / replay / retry against the
  surviving worker set.
* Each **worker peer** is a process reachable over TCP — auto-spawned on
  localhost (tests/CI, ``hosts=None``) or started externally with
  ``repro rpc-worker`` on real machines (``hosts=["host:port", ...]``) —
  running the shared service loop (:func:`repro.distributed.worker.serve`)
  per master connection.  A peer hosts one or more *logical workers*:
  logical worker ``w`` of a ``num_workers``-cluster lives on peer
  ``w % len(peers)``.
* Transport is the framed-pickle protocol of
  :mod:`repro.distributed.wire`: length-prefixed frames carrying pickled
  column batches, with per-superstep accounting of real bytes-on-wire and
  barrier round-trip time (``SuperstepMetrics.wire_bytes`` /
  ``round_trip_seconds``).  The master touches the wire in two places,
  :meth:`RpcBackend._send` and :meth:`RpcBackend._recv`, each adding the
  bytes it moved to the meter in the statement that moves them, and they
  meet in one function, :meth:`RpcBackend._round` — init, every barrier,
  every re-homing and the final ``exit`` go through them, so no byte is
  unmetered and no request is sent whose reply is not awaited.

Peers run the one :class:`~repro.distributed.worker.WorkerHost` every
backend runs, keyed by *logical* worker id — so for a given seed the
assignments and all logical meters are bitwise-identical to ``sim``/``mp``
regardless of how logical workers map onto peers, before or after a
failover.

Fault tolerance
---------------
This is the one transport that asks ``step`` for snapshots, and only on
the last superstep of the program's protocol cycle (``phase_cycle``; SHP:
S4, which sends nothing — a program that declares no cycle is cut at every
barrier by the same code): that reply carries, per logical worker, the
pickled ``(vids, state, held)`` — vertex ids, the mutable columns the
program's ``save_state`` names, the hop the worker sent itself.  The
master retains the last committed snapshot per logical worker plus a log
of what every barrier since delivered, ``(superstep, broadcasts,
inboxes)`` — references to blobs it forwarded anyway.  When a peer dies
(connection failure or barrier timeout) its logical workers are *adopted*
by surviving peers — partition rebuilt from the graph the adopter holds,
snapshot state loaded, the log replayed with replies discarded, the
current request re-dispatched — and the run continues with identical
results; the final ``collect`` is such a barrier too.  The run fails only
when every peer is gone.  See ``docs/running-distributed.md`` for the
operational walk-through.
"""

from __future__ import annotations

import pickle
import socket
import time

from ..api.spec import ExecutionSpec
from .backend import Backend
from .backend_mp import PipeWorkers
from .shared_pool import default_mp_context
from .wire import WireError, recv_obj, send_obj
from .worker import WorkerHost

__all__ = ["RpcBackend", "parse_endpoint", "serve_worker"]

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _SocketChannel:
    """Worker end of a master connection, as :func:`serve` sees it: one
    framed object per request and per reply (a dead master surfaces as
    :class:`WireError`, an ``OSError``).  Un-metered by design: the master
    meters each request as it sends it and each reply on receipt."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def recv(self):
        return recv_obj(self._sock)[0]

    def send(self, reply) -> None:
        send_obj(self._sock, reply)


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    serve_forever: bool = False,
    ready=None,
) -> None:
    """Run an RPC worker server (the ``repro rpc-worker`` entry point).

    Binds ``host:port`` (``port=0`` picks a free port), then accepts master
    connections and serves each until the master's ``exit``.
    ``serve_forever=True`` keeps accepting after a master disconnects, so
    one long-lived worker process can serve many sequential jobs; the
    default serves exactly one connection (what the auto-spawned localhost
    workers use).  ``ready(actual_port)`` is called once listening — the
    hook the backend uses to learn auto-assigned ports.
    """
    srv = socket.create_server((host, port))
    try:
        if ready is not None:
            ready(srv.getsockname()[1])
        while True:
            sock, _ = srv.accept()
            try:
                WorkerHost().serve(_SocketChannel(sock))
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - teardown race
                    pass
            if not serve_forever:
                return
    finally:
        srv.close()


def _spawned_worker_main(conn) -> None:
    """Entry point of an auto-spawned localhost worker process."""

    def ready(port: int) -> None:
        conn.send(("ok", port))
        conn.close()

    serve_worker("127.0.0.1", 0, ready=ready)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` as ``(host, port)``: a non-empty host without a
    colon and an ASCII-decimal port in 1-65535 — anything else is a
    ``ValueError`` here, not a wrapped or transliterated port at connect
    (``socket`` dials 99999 as 34463 and ``int`` reads ``"٣٣٣٣"``)."""
    host, _, port = text.rpartition(":")
    port_ok = port.isascii() and port.isdigit() and len(port) <= 5 and 1 <= int(port) <= 65535
    if not host or ":" in host or not port_ok:
        raise ValueError(f"{text!r} is not of the form 'host:port' with a port in 1-65535")
    return host, int(port)


class _Peer:
    """One TCP connection to a worker process (possibly auto-spawned)."""

    __slots__ = ("sock", "proc", "alive", "label")

    def __init__(self, sock, proc, label):
        self.sock = sock
        self.proc = proc
        self.alive = True
        self.label = label


class RpcBackend(Backend):
    """Superstep execution on worker processes reachable over TCP.

    Parameters
    ----------
    hosts:
        ``["host:port", ...]`` of externally launched ``repro rpc-worker``
        processes.  ``None`` (default) auto-spawns one localhost worker
        process per cluster worker — zero-configuration for tests and CI.
    connect_timeout:
        Seconds allowed for each TCP connect (and spawned-worker startup).
    step_timeout:
        Seconds to wait for a peer at each superstep barrier before
        declaring it dead (an auto-spawned one is terminated) and
        re-homing its logical workers elsewhere.
    mp_context:
        Multiprocessing start method for auto-spawned workers (default:
        ``fork`` where available, overridable via ``REPRO_MP_CONTEXT``).
    chaos_kill:
        Optional ``(superstep, peer_index)`` fault-injection hook: right
        before dispatching that superstep the backend kills that peer,
        exercising the adopt-replay-retry path deterministically (used by
        the failover tests; harmless in production).
    """

    name = "rpc"

    def __init__(
        self,
        hosts: list[str] | None = None,
        connect_timeout: float = ExecutionSpec.connect_timeout,  # the spec keys' defaults,
        step_timeout: float = ExecutionSpec.step_timeout,  # read from their declarations
        mp_context: str | None = None,
        chaos_kill: tuple[int, int] | None = None,
    ):
        self.hosts = list(hosts) if hosts else None
        for spec in self.hosts or ():
            parse_endpoint(spec)  # a bad entry fails here, not at connect
        self.connect_timeout = float(connect_timeout)
        self.step_timeout = float(step_timeout)
        self.mp_context = mp_context or default_mp_context()
        self.chaos_kill = chaos_kill
        # Per-run state (reset by _open/_close).
        self._peers: list[_Peer] = []
        self._spawned: PipeWorkers | None = None
        self._wid_peer: list[int] = []
        #: supersteps per checkpoint: the program's cycle length.
        self._cycle = 1
        #: per logical worker, its last committed snapshot (pickled) ...
        self._checkpoints: list[bytes] = []
        #: ... and what every barrier since delivered: ``(superstep,
        #: broadcasts, inboxes)``, fewer than ``_cycle`` entries, each a
        #: reference to blobs the master forwarded anyway.
        self._log: list[tuple] = []
        #: the meter: every byte :meth:`_send` / :meth:`_recv` moved since
        #: it was last zeroed (per superstep; then for the final collect) ...
        self._wire = 0
        self._rtt = 0.0
        #: ... and its reading after the init handshake (graph + program
        #: shipping): in no superstep's meter but still real traffic.
        self._setup_wire_bytes = 0

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _open(self, engine, program, combiner) -> None:
        shared, snapshots = self._plan(engine, program, combiner)
        num_workers = self._num_workers
        self._connect_peers(num_workers)
        num_peers = len(self._peers)
        self._wid_peer = [wid % num_peers for wid in range(num_workers)]
        # The cadence is the program's: cut after the last superstep of
        # each protocol cycle, after every superstep if it declares none.
        self._cycle = getattr(program, "phase_cycle", 1)
        # Pristine checkpoints are what init ships, and what lets any peer
        # adopt a logical worker that dies before its first cut.
        self._checkpoints = [
            pickle.dumps(snapshot, protocol=_PICKLE_PROTO) for snapshot in snapshots
        ]
        self._log = []
        self._wire = 0
        inits = {
            peer_idx: (
                "init", shared,
                {wid: self._checkpoints[wid] for wid in range(num_workers)
                 if self._wid_peer[wid] == peer_idx},
            )
            for peer_idx in range(num_peers)
        }
        for peer_idx, hosted in self._round(inits, "init").items():
            if hosted is None:  # nothing to fail over from yet
                raise ConnectionError(
                    f"rpc worker {self._peers[peer_idx].label} hung up during init"
                )
        self._setup_wire_bytes = self._wire

    def _connect_peers(self, num_workers: int) -> None:
        self._peers = []
        if self.hosts is not None:
            for spec in self.hosts:
                self._peers.append(_Peer(self._connect(*parse_endpoint(spec)), None, spec))
            return
        # Auto-spawn one localhost worker process per cluster worker; each
        # reports the port it bound as its start-up reply.
        self._spawned = PipeWorkers(
            self.mp_context, _spawned_worker_main, [()] * num_workers,
            "spawned rpc worker", self.connect_timeout,
        )
        for proc, port in zip(self._spawned.procs, self._spawned.gather()):
            self._peers.append(
                _Peer(self._connect("127.0.0.1", port), proc, f"localhost:{port}")
            )

    def _connect(self, host: str, port: int) -> socket.socket:
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise ConnectionError(
                f"cannot reach rpc worker at {host}:{port} "
                f"(is `repro rpc-worker` running there?): {exc}"
            ) from exc
        sock.settimeout(self.step_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    # ------------------------------------------------------------------
    def _execute_superstep(self, superstep: int, broadcasts: dict):
        if self.chaos_kill is not None and self.chaos_kill[0] == superstep:
            self._kill_peer(self.chaos_kill[1])
            self.chaos_kill = None
        start = time.perf_counter()
        self._wire = 0
        checkpoint = (superstep + 1) % self._cycle == 0
        inboxes = self._inboxes
        replies = self._barrier(
            lambda wids: (
                "step", superstep, broadcasts,
                {wid: inboxes[wid] for wid in wids}, checkpoint,
            ),
            f"superstep {superstep}",
        )
        # What a failover restores and replays moves on only now that the
        # whole barrier completed.
        results = self._commit(replies)
        if checkpoint:
            self._checkpoints = [replies[wid][2] for wid in range(self._num_workers)]
            self._log = []
        else:
            self._log.append((superstep, broadcasts, inboxes))
        self._rtt = time.perf_counter() - start
        return results

    def _barrier(self, request_for, what: str) -> dict:
        """One answer per logical worker, whatever dies on the way.

        Sends ``request_for(wids)`` to every peer for the workers it hosts,
        gathers the ``wid -> answer`` payloads, and re-homes the workers of
        peers that failed until none is pending."""
        pending = set(range(self._num_workers))
        replies: dict[int, object] = {}
        while pending:
            by_peer: dict[int, list[int]] = {}
            for wid in sorted(pending):
                by_peer.setdefault(self._wid_peer[wid], []).append(wid)
            requests = {peer_idx: request_for(wids) for peer_idx, wids in by_peer.items()}
            for peer_idx, payload in self._round(requests, what).items():
                if payload is not None:
                    replies.update((wid, payload[wid]) for wid in by_peer[peer_idx])
            pending -= replies.keys()
            if pending:
                self._reassign(sorted(pending))
        return replies

    def _reassign(self, orphans: list[int]) -> None:
        """Re-home orphaned logical workers onto surviving peers."""
        survivors = [i for i, peer in enumerate(self._peers) if peer.alive]
        if not survivors:
            raise RuntimeError(
                "all rpc workers are gone; no peer is left to re-home their "
                "logical workers onto"
            )
        by_peer: dict[int, list[int]] = {}
        for j, wid in enumerate(orphans):
            by_peer.setdefault(survivors[j % len(survivors)], []).append(wid)
        for peer_idx, wids in sorted(by_peer.items()):
            # Adopt the last snapshots, then replay what was delivered
            # since — deterministic, so the replies are discarded.  If this
            # peer dies too, its orphans stay pending and the caller's loop
            # reassigns them.
            requests = [
                *(("adopt", wid, self._checkpoints[wid]) for wid in wids),
                *(
                    ("step", superstep, broadcasts, {wid: inboxes[wid] for wid in wids}, False)
                    for superstep, broadcasts, inboxes in self._log
                ),
            ]
            what = f"re-homing workers {wids}"
            if all(
                self._round({peer_idx: request}, what)[peer_idx] is not None
                for request in requests
            ):
                for wid in wids:
                    self._wid_peer[wid] = peer_idx

    def _round(self, requests: dict[int, tuple], what: str) -> dict[int, object]:
        """The one exchange: send each listed peer its request, then
        receive one reply from each peer that took it.  Returns ``peer ->
        reply payload``, ``None`` for a peer that died on either leg (it is
        marked dead and its connection closed, so a failed exchange is
        never resumed)."""
        took = [peer_idx for peer_idx, request in requests.items() if self._send(peer_idx, request)]
        return {
            peer_idx: self._recv(peer_idx, what) if peer_idx in took else None
            for peer_idx in requests
        }

    def _send(self, peer_idx: int, request: tuple) -> bool:
        """Send one metered request; a peer that cannot take it is dead."""
        try:
            self._wire += send_obj(self._peers[peer_idx].sock, request)
        except (WireError, OSError):
            self._mark_dead(peer_idx)
            return False
        return True

    def _recv(self, peer_idx: int, what: str):
        """One metered reply payload — ``None`` from a peer that hung up or
        timed out, now marked dead; a shipped worker error is re-raised."""
        peer = self._peers[peer_idx]
        try:
            self._wire += (received := recv_obj(peer.sock))[1]
        except (WireError, OSError):
            self._mark_dead(peer_idx)
            return None
        return self._payload(received[0], f"rpc worker {peer.label} ({what})")

    def _mark_dead(self, peer_idx: int) -> None:
        peer = self._peers[peer_idx]
        if not peer.alive:
            return
        peer.alive = False
        try:
            peer.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        if peer.proc is not None:
            # A stalled (not crashed) spawned server would otherwise live
            # on until _close, which then waits out its grace on it.
            peer.proc.terminate()

    def _kill_peer(self, peer_idx: int) -> None:
        """Chaos hook: hard-kill one peer (process if spawned, else socket)."""
        peer = self._peers[peer_idx]
        if peer.proc is not None and peer.proc.is_alive():
            peer.proc.terminate()
            peer.proc.join(timeout=10)
        else:  # external worker: sever the connection instead
            self._mark_dead(peer_idx)

    # ------------------------------------------------------------------
    def _finish(self) -> dict:
        # A barrier like any other: a peer that died after its last step
        # is re-homed and replayed before it answers.
        self._wire = 0
        return self._barrier(lambda wids: ("collect",), "collect")

    def _annotate_step(self, step) -> None:
        step.wire_bytes = self._wire
        step.round_trip_seconds = self._rtt

    def _annotate_job(self, metrics) -> None:
        metrics.collect_wire_bytes = self._wire

    def _close(self) -> None:
        for peer_idx, peer in enumerate(self._peers):
            # ``exit`` is the one kind serve() answers with nothing.
            if peer.alive and self._send(peer_idx, ("exit",)):
                try:
                    peer.sock.close()
                except OSError:  # pragma: no cover - teardown race
                    pass
        if self._spawned is not None:
            # Spawned servers leave once their one connection has ended.
            self._spawned.close(grace=10.0)
            self._spawned = None
        self._peers = []
        self._wid_peer = []
        self._inboxes = []
        self._checkpoints = []
        self._log = []
        self._engine = None

"""Warm worker pool for MTT labeling (Section 7.1).

The paper labels each commitment's MTT on ``c`` commitment threads.  The
first real pool here pickled a per-subtree op list through a fresh
``ProcessPoolExecutor`` every round, which made multiprocess labeling a
*regression*: per-round pool spawn plus IPC serialization cost more
than the hashing it parallelized (serial 0.46 s vs 0.97–1.23 s pooled).
What fixed it is a warm pool and one message per worker per round:

* **A warm pool.**  :class:`LabelPool` forks its workers once — owned
  by the recorder / proof generator for as long as the deployment lives
  (``SpiderConfig.commit_workers`` wide, shut down by
  ``Recorder.close()``) — so steady-state rounds pay dispatch, not
  ``fork``/``exec``.

* **One round trip per worker.**  The tree is cut :data:`CUT_DEPTH`
  branch levels below the root into contiguous post-order slot blocks
  (:func:`~repro.mtt.tree.subtree_jobs`), packed longest-first onto the
  workers.  Each engaged worker gets one ``run`` message over its pipe:
  the :class:`~repro.mtt.tree.FlatSchedule`'s slot arrays (kinds,
  committed bits, CSR child indices), its jobs, and each job's slice of
  the round's draw (the draw is in leaf order and every block's leaves
  are consecutive).  It runs :func:`~repro.mtt.labeling.label_slots` —
  the serial labeling pass — over each block and replies once with the
  blocks' labels, one joined byte string per job.  The parent hashes
  the few inner slots above the cut and fills the tree's label list.
  Every round ships its own shape: the recorder and the proof generator
  label a freshly built tree every time, so there is nothing to cache.

Workers are always processes: ``hashlib`` holds the GIL for inputs
under 2048 bytes and every label input is shorter, so threads could
never beat the serial pass.  A worker that does not answer within
:data:`REPLY_TIMEOUT` seconds counts as dead.  Messages are sent from a
helper thread, so a worker that stops reading (its pipe full) is caught
by the same timeout instead of blocking the round.

Failure model: if a worker cannot be spawned, the workers already
started are stopped and the constructor raises :class:`PoolBrokenError`
naming the cause.  A worker death (OOM kill, SIGKILL, crash), hang or
error reply surfaces as :class:`PoolBrokenError`; the pool marks itself
broken, kills its workers, and the caller
(:func:`repro.mtt.labeling.label_tree_with_workers`) falls back to a
serial relabel from the same draw, so a commitment round never fails or
produces a partially labeled tree; the recorder respawns a fresh pool
on the next round.

Determinism: randomness is drawn serially by the caller in the fixed
CSPRNG order before any hashing, and every label is a pure function of
its subtree, so pool, serial, and fallback labeling are byte-identical
per slot (property-tested in ``tests/mtt/test_label_pool.py``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, List, Sequence, Tuple

from ..crypto.hashing import DIGEST_SIZE
from ..obs.registry import get_registry
from .labeling import label_slots, label_upper
from .tree import FlatSchedule, Mtt, subtree_jobs, upper_slots

#: Branch levels below the MTT root at which the tree is cut into
#: per-worker subtree jobs.
CUT_DEPTH = 4

#: Seconds to wait for a worker's reply before declaring the pool broken.
REPLY_TIMEOUT = 30.0

#: One job: slot block ``[lo, hi)`` and its leaves' draw indices
#: ``[first_leaf, end_leaf)``.
Job = Tuple[int, int, int, int]


class PoolBrokenError(RuntimeError):
    """A pool worker could not be spawned, died, or stopped responding;
    the pool is unusable.

    Mid-round, callers must fall back to serial labeling (the round's
    draw is already in hand, so a serial relabel is always possible)
    and discard the pool; the owning recorder spawns a fresh one lazily.
    """


def _split(blob: bytes) -> List[bytes]:
    """Cut a joined run of :data:`DIGEST_SIZE`-byte strings apart."""
    size = DIGEST_SIZE
    return [blob[i:i + size] for i in range(0, len(blob), size)]


# ----------------------------------------------------------------------
# Worker process side


def _worker_main(conn: Connection) -> None:
    """Pool worker loop: block on control messages, label slot blocks.

    Runs until a ``stop`` message or parent EOF.  A ``run`` message
    carries the slot arrays and ``(lo, hi, draws)`` jobs, each job's
    draws joined into one byte string; the reply holds each job's
    labels, joined the same way.  The ``die`` message is a test hook
    simulating a crashed worker (OOM kill / SIGKILL) without racing the
    dispatcher.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        try:
            if command == "run":
                _, arrays, jobs = message
                conn.send(("ok", [
                    b"".join(label_slots(*arrays, _split(draws), lo, hi))
                    for lo, hi, draws in jobs]))
            elif command == "die":  # test hook: simulated worker crash
                os._exit(17)
            elif command == "stop":
                conn.send(("ok",))
                break
            else:
                raise RuntimeError(f"unknown pool command {command!r}")
        except Exception as exc:  # surface, don't kill the worker
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break


# ----------------------------------------------------------------------
# Parent side


@dataclass(frozen=True)
class RoundResult:
    """Accounting of one warm-pool labeling round."""

    root_label: bytes
    jobs: int
    dispatches: int


class LabelPool:
    """A persistent pool of labeling worker processes.

    Create once (``SpiderConfig.commit_workers`` wide), call
    :meth:`label` once per commitment round, :meth:`close` on recorder
    shutdown.  The pool spawns processes eagerly so the one-time cost is
    attributable (``spinup_seconds``); each round is one message and
    one reply per engaged worker.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.broken = False
        self._procs: List[Any] = []
        self._conns: List[Connection] = []
        self._closed = False
        self._obs = get_registry()
        start = time.perf_counter()
        self._spawn()
        self.spinup_seconds = time.perf_counter() - start
        self._obs.counter("mtt_pool_spinups_total").inc()
        self._obs.histogram("mtt_pool_spinup_seconds").observe(
            self.spinup_seconds)

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> None:
        """Fork the workers; on any failure stop those already started
        and raise :class:`PoolBrokenError` naming the cause."""
        import multiprocessing
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            context = multiprocessing.get_context()  # type: ignore[assignment]
        try:
            for _ in range(self.workers):
                parent_end, child_end = context.Pipe()
                self._conns.append(parent_end)
                try:
                    proc = context.Process(target=_worker_main,
                                           args=(child_end,), daemon=True)
                    proc.start()
                finally:
                    child_end.close()
                self._procs.append(proc)
        except Exception as exc:
            for proc in self._procs:
                proc.terminate()
                proc.join()
            for conn in self._conns:
                conn.close()
            raise PoolBrokenError(
                f"pool spawn failed: {type(exc).__name__}: {exc}") from exc

    def worker_pids(self) -> List[int]:
        """PIDs of the worker processes."""
        return [proc.pid for proc in self._procs
                if proc.pid is not None]

    def close(self) -> None:
        """Shut the pool down; idempotent, safe on a broken pool.

        Every worker is reaped before this returns: one that ignores the
        ``stop`` message and SIGTERM (hung, or stopped by a signal) is
        killed, so no worker outlives the pool and blocks interpreter
        exit.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def _mark_broken(self, reason: str) -> PoolBrokenError:
        """Mark the pool broken and kill its workers.

        SIGKILL, not SIGTERM: a stopped worker ignores SIGTERM, and its
        death is what unblocks a send stuck on its full pipe.
        """
        self.broken = True
        self._obs.counter("mtt_pool_failures_total").inc()
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        return PoolBrokenError(reason)

    # -- dispatch ------------------------------------------------------

    def _roundtrip(self, messages: Sequence[Tuple[Any, ...]]
                   ) -> List[Any]:
        """Send one message to each of the first ``len(messages)``
        workers and return their reply payloads, in worker order."""
        conns = self._conns[:len(messages)]

        def send_all() -> None:
            for conn, message in zip(conns, messages):
                try:
                    conn.send(message)
                except (BrokenPipeError, OSError):
                    return  # the reply loop reports the dead worker

        sender = threading.Thread(target=send_all, daemon=True)
        sender.start()
        try:
            return [self._reply(conn) for conn in conns]
        finally:
            sender.join()

    def _reply(self, conn: Connection) -> Any:
        try:
            if not conn.poll(REPLY_TIMEOUT):
                raise self._mark_broken(
                    f"pool worker unresponsive after {REPLY_TIMEOUT}s")
            reply = conn.recv()
        except (EOFError, OSError):
            raise self._mark_broken("pool worker died") from None
        if reply[0] != "ok":
            raise self._mark_broken(f"pool worker error: {reply[1]}")
        return reply[1]

    def _assignments(self, schedule: FlatSchedule,
                     cut: Sequence[Tuple[int, int, int]]
                     ) -> List[List[Job]]:
        """Greedy longest-first packing of the cut's jobs onto workers.

        Pure-dummy jobs still dispatch: their slots must be copied from
        the draw by *someone*, and a worker doing it is free compared to
        the parent doing it.
        """
        kinds = schedule.slot_kinds
        # All leaves lie inside some job (only inner slots sit above the
        # cut), so each job's draws end where the next job's begin.
        ends = [first for _, _, first in cut[1:]] + [schedule.n_leaves]
        jobs = [(lo, hi, first, end)
                for (lo, hi, first), end in zip(cut, ends)]
        # Hash ops (bit + interior slots) per job.
        costs = [hi - lo - kinds.count(0, lo, hi) for lo, hi, _ in cut]
        bins: List[List[Job]] = [[] for _ in range(self.workers)]
        loads = [0] * self.workers
        for i in sorted(range(len(jobs)), key=costs.__getitem__,
                        reverse=True):
            target = loads.index(min(loads))
            bins[target].append(jobs[i])
            loads[target] += costs[i]
        busiest = max(loads) if loads else 0
        if busiest:
            self._obs.gauge("mtt_pool_occupancy").set(
                sum(loads) / (self.workers * busiest))
        return [assigned for assigned in bins if assigned]

    # -- the per-round entry point -------------------------------------

    def label(self, tree: Mtt, draws: List[bytes]) -> RoundResult:
        """Label ``tree`` from the round's ``draws`` on the warm pool.

        ``draws`` is the serial CSPRNG draw, one bitstring per leaf in
        leaf order.  On return ``tree.labels`` holds every slot's label,
        exactly as serial labeling would have left it.  Raises
        :class:`PoolBrokenError` if a worker died, hung or failed; the
        draw is untouched, so a serial relabel remains valid.
        """
        if self._closed:
            raise PoolBrokenError("pool is closed")
        if self.broken:
            raise PoolBrokenError("pool is broken")
        schedule = tree.schedule()
        cut = subtree_jobs(schedule, CUT_DEPTH)
        bins = self._assignments(schedule, cut)
        arrays = (schedule.slot_kinds, schedule.slot_bits,
                  schedule.child_offsets, schedule.child_slots)
        replies = self._roundtrip([
            ("run", arrays, [(lo, hi, b"".join(draws[first:end]))
                             for lo, hi, first, end in jobs])
            for jobs in bins])
        labels: List[bytes] = [b""] * schedule.n_slots
        for jobs, blocks in zip(bins, replies):
            for (lo, hi, _, _), blob in zip(jobs, blocks):
                labels[lo:hi] = _split(blob)
        # Merge: the inner slots above the cut, in-process.
        label_upper(schedule, labels, upper_slots(cut, schedule.n_slots))
        tree.draws, tree.labels = draws, labels
        self._obs.counter("mtt_pool_dispatches_total").inc(
            max(len(bins), 1))
        return RoundResult(root_label=labels[-1], jobs=len(cut),
                           dispatches=len(bins))

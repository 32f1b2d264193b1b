"""Shared-memory warm worker pool for MTT labeling (Section 7.1).

The paper labels each commitment's MTT on ``c`` commitment threads.  The
first real pool here pickled a per-subtree op list through a fresh
``ProcessPoolExecutor`` every round, which made multiprocess labeling a
*regression*: per-round pool spawn plus IPC serialization cost more
than the hashing it parallelized (serial 0.46 s vs 0.97–1.23 s pooled).
This module replaces that design with two ideas:

* **Flat shared buffers, zero per-round pickling.**  Three
  ``multiprocessing.shared_memory`` blocks:

  - the *program* block, written once per tree shape — the
    :class:`~repro.mtt.tree.FlatSchedule`'s slot arrays (kinds,
    committed bits, CSR child indices);
  - the *label* block, one
    :data:`~repro.crypto.hashing.DIGEST_SIZE`-byte slot per node,
    written by whichever worker labels the slot;
  - the *randomness* block, refreshed each round with ONE ``memcpy`` of
    the CSPRNG draw.  The draw is in leaf order, and every subtree is
    a contiguous slot block, so each job's randomness is one
    contiguous slice of it.

  Workers run :func:`~repro.mtt.labeling.label_slots` — the serial
  labeling pass — over contiguous ``(lo, hi)`` post-order slot blocks
  and write each block's labels back with one slice assignment.  The
  only per-round IPC is a control message of a few block tuples per
  worker.  The parent then hashes the few inner slots above the cut
  and copies the label block out into the tree's label list.

* **A warm pool.**  :class:`LabelPool` spawns its workers once — owned
  by the recorder / proof generator for as long as the deployment lives
  (``SpiderConfig.commit_workers`` wide, shut down by
  ``Recorder.close()``) — so steady-state rounds pay dispatch, not
  ``fork``/``exec``.  Installing a new tree shape re-uses the same
  workers; only the buffers are replaced.

Workers are always processes: ``hashlib`` holds the GIL for inputs
under 2048 bytes and every label input is shorter, so threads could
never beat the serial pass.  The tree is cut :data:`CUT_DEPTH` branch
levels below the root, and a worker that does not answer within
:data:`REPLY_TIMEOUT` seconds counts as dead.

Failure model: if a worker cannot be spawned, the workers already
started are stopped and the constructor raises :class:`PoolBrokenError`
naming the cause.  A worker death (OOM kill, SIGKILL, crash) surfaces
as :class:`PoolBrokenError` on the next dispatch or reply.  The pool
marks itself broken and the caller
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
import time
from array import array
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, List, Optional, Sequence, Tuple

from ..crypto.hashing import DIGEST_SIZE
from ..obs.registry import get_registry
from .labeling import label_slots, label_upper
from .tree import FlatSchedule, Mtt, subtree_jobs, upper_slots

#: Branch levels below the MTT root at which the tree is cut into
#: per-worker subtree jobs.
CUT_DEPTH = 4

#: Seconds to wait for a worker's reply before declaring the pool broken.
REPLY_TIMEOUT = 30.0

#: Magic + version prefixing the static program block, so a worker that
#: attaches to a stale or foreign segment fails loudly.
_PROG_MAGIC = b"SPDRPOOL"
_PROG_VERSION = 3
_HEADER = 16  # magic (8) + version (4) + n_slots (4)

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


@dataclass(frozen=True)
class _Program:
    """One installed tree shape, cut into slot-block jobs."""

    schedule: FlatSchedule  # strong ref: identity key for the cache
    jobs: Tuple[Job, ...]
    #: Hash ops (bit + interior slots) per job, for balancing.
    costs: Tuple[int, ...]
    #: Inner slots above the cut, ascending (parent-side merge).
    upper: Tuple[int, ...]


def _build_program(schedule: FlatSchedule) -> _Program:
    kinds = schedule.slot_kinds
    cut = subtree_jobs(schedule, CUT_DEPTH)
    # All leaves lie inside some job (only inner slots sit above the
    # cut), so each job's draws end where the next job's begin.
    ends = [first for _, _, first in cut[1:]] + [schedule.n_leaves]
    jobs = tuple((lo, hi, first, end)
                 for (lo, hi, first), end in zip(cut, ends))
    # Pure-dummy jobs still dispatch: their slots must be copied from
    # the randomness block by *someone*, and a worker doing it is free
    # compared to the parent doing it.
    costs = tuple(hi - lo - kinds.count(0, lo, hi)
                  for lo, hi, _, _ in jobs)
    return _Program(schedule=schedule, jobs=jobs, costs=costs,
                    upper=tuple(upper_slots(cut, schedule.n_slots)))


# ----------------------------------------------------------------------
# Worker process side


class _WorkerState:
    """A worker's parsed view of the installed shared-memory program."""

    __slots__ = ("prog_shm", "label_shm", "rand_shm", "arrays", "labels")

    def __init__(self, prog_name: str, label_name: str,
                 rand_name: str):
        from multiprocessing import shared_memory
        self.prog_shm = shared_memory.SharedMemory(name=prog_name)
        self.label_shm = shared_memory.SharedMemory(name=label_name)
        self.rand_shm = shared_memory.SharedMemory(name=rand_name)
        buf = self.prog_shm.buf
        if bytes(buf[0:8]) != _PROG_MAGIC:
            raise RuntimeError("bad label-program magic")
        version = int.from_bytes(buf[8:12], "little")
        if version != _PROG_VERSION:
            raise RuntimeError(f"label-program version {version} != "
                               f"{_PROG_VERSION}")
        n_slots = int.from_bytes(buf[12:16], "little")
        pos = _HEADER
        kinds = bytes(buf[pos:pos + n_slots])
        pos += n_slots
        bits = bytes(buf[pos:pos + n_slots])
        pos += n_slots
        offsets = array("I")
        offsets.frombytes(bytes(buf[pos:pos + 4 * (n_slots + 1)]))
        pos += 4 * (n_slots + 1)
        children = array("I")
        children.frombytes(bytes(buf[pos:pos + 4 * offsets[n_slots]]))
        self.arrays = (kinds, bits, offsets, children)
        self.labels = self.label_shm.buf

    def execute(self, jobs: Sequence[Job]) -> None:
        size = DIGEST_SIZE
        rand = self.rand_shm.buf
        for lo, hi, first, end in jobs:
            blob = bytes(rand[first * size:end * size])
            draws = [blob[i:i + size] for i in range(0, len(blob), size)]
            self.labels[lo * size:hi * size] = b"".join(
                label_slots(*self.arrays, draws, lo, hi))

    def close(self) -> None:
        self.labels = memoryview(b"")
        self.prog_shm.close()
        self.label_shm.close()
        self.rand_shm.close()


def _worker_main(conn: Connection) -> None:
    """Pool worker loop: block on control messages, hash slot ranges.

    Runs until a ``stop`` message or parent EOF.  The ``die`` message is
    a test hook simulating a crashed worker (OOM kill / SIGKILL) without
    racing the dispatcher.
    """
    # The parent owns (and unlinks) every segment this worker attaches.
    # Python 3.11 has no opt-out on attach, so neuter shared-memory
    # registration here: with a worker-local tracker it would report
    # spurious "leaked shared_memory" warnings on exit, and with a
    # tracker inherited from the parent an unregister workaround would
    # corrupt the parent's bookkeeping instead.
    from multiprocessing import resource_tracker
    original_register = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = register
    state: Optional[_WorkerState] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        try:
            if command == "install":
                if state is not None:
                    state.close()
                state = _WorkerState(message[1], message[2], message[3])
                conn.send(("ok",))
            elif command == "run":
                if state is None:
                    raise RuntimeError("run before install")
                state.execute(message[1])
                conn.send(("ok",))
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
    if state is not None:
        state.close()


# ----------------------------------------------------------------------
# Parent side


@dataclass(frozen=True)
class RoundResult:
    """Timing/accounting of one warm-pool labeling round."""

    root_label: bytes
    jobs: int
    dispatches: int
    install_seconds: float  # 0.0 when the shape was already installed


class LabelPool:
    """A persistent pool of labeling workers over shared label buffers.

    Create once (``SpiderConfig.commit_workers`` wide), call
    :meth:`label` once per commitment round, :meth:`close` on recorder
    shutdown.  The pool spawns processes eagerly so the one-time cost is
    attributable (``spinup_seconds``); per-round dispatch is a few bytes
    of control messages per worker.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.broken = False
        self._procs: List[Any] = []
        self._conns: List[Connection] = []
        self._program: Optional[_Program] = None
        self._prog_shm: Optional[Any] = None
        self._label_shm: Optional[Any] = None
        self._rand_shm: Optional[Any] = None
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
        """Shut the pool down; idempotent, safe on a broken pool."""
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
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._release_shm()

    def _release_shm(self) -> None:
        for shm in (self._prog_shm, self._label_shm, self._rand_shm):
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        self._prog_shm = None
        self._label_shm = None
        self._rand_shm = None
        self._program = None

    def _mark_broken(self, reason: str) -> PoolBrokenError:
        self.broken = True
        self._obs.counter("mtt_pool_failures_total").inc()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        return PoolBrokenError(reason)

    # -- program install -----------------------------------------------

    def _ensure_program(self, schedule: FlatSchedule) -> float:
        """Install the shape's slot arrays; returns install time.

        Keyed by schedule identity: labeling the same tree again
        (benchmark rounds, proof-generator reconstructions against a
        cached tree) skips straight to dispatch.
        """
        program = self._program
        if program is not None and program.schedule is schedule:
            return 0.0
        from multiprocessing import shared_memory
        start = time.perf_counter()
        program = _build_program(schedule)
        self._release_shm()
        prog_blob = b"".join([
            _PROG_MAGIC, _PROG_VERSION.to_bytes(4, "little"),
            schedule.n_slots.to_bytes(4, "little"),
            schedule.slot_kinds, schedule.slot_bits,
            schedule.child_offsets.tobytes(),
            schedule.child_slots.tobytes()])
        prog_shm = shared_memory.SharedMemory(create=True,
                                              size=len(prog_blob))
        prog_shm.buf[:len(prog_blob)] = prog_blob
        label_shm = shared_memory.SharedMemory(
            create=True, size=schedule.n_slots * DIGEST_SIZE)
        rand_shm = shared_memory.SharedMemory(
            create=True, size=schedule.n_leaves * DIGEST_SIZE)
        self._prog_shm = prog_shm
        self._label_shm = label_shm
        self._rand_shm = rand_shm
        self._roundtrip([("install", prog_shm.name, label_shm.name,
                          rand_shm.name)] * len(self._conns))
        self._program = program
        seconds = time.perf_counter() - start
        self._obs.counter("mtt_pool_installs_total").inc()
        return seconds

    # -- dispatch ------------------------------------------------------

    def _roundtrip(self, messages: Sequence[Tuple[Any, ...]]) -> None:
        """Send one message per worker and collect every reply."""
        engaged: List[Connection] = []
        for conn, message in zip(self._conns, messages):
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                raise self._mark_broken("pool worker pipe closed") \
                    from None
            engaged.append(conn)
        for conn in engaged:
            try:
                if not conn.poll(REPLY_TIMEOUT):
                    raise self._mark_broken(
                        f"pool worker unresponsive after "
                        f"{REPLY_TIMEOUT}s")
                reply = conn.recv()
            except (EOFError, OSError):
                raise self._mark_broken("pool worker died") from None
            if reply[0] != "ok":
                raise self._mark_broken(f"pool worker error: {reply[1]}")

    def _assignments(self, program: _Program) -> List[List[Job]]:
        """Greedy longest-first packing of jobs onto workers."""
        bins: List[List[Job]] = [[] for _ in range(self.workers)]
        loads = [0] * self.workers
        order = sorted(range(len(program.jobs)),
                       key=lambda i: program.costs[i], reverse=True)
        for i in order:
            target = loads.index(min(loads))
            bins[target].append(program.jobs[i])
            loads[target] += program.costs[i]
        busiest = max(loads) if loads else 0
        if busiest:
            self._obs.gauge("mtt_pool_occupancy").set(
                sum(loads) / (self.workers * busiest))
        return [jobs for jobs in bins if jobs]

    # -- the per-round entry point -------------------------------------

    def label(self, tree: Mtt, draws: List[bytes]) -> RoundResult:
        """Label ``tree`` from the round's ``draws`` on the warm pool.

        ``draws`` is the serial CSPRNG draw, one bitstring per leaf in
        leaf order.  On return ``tree.labels`` holds every slot's label,
        exactly as serial labeling would have left it.  Raises
        :class:`PoolBrokenError` if a worker died; the draw is
        untouched, so a serial relabel remains valid.
        """
        if self._closed:
            raise PoolBrokenError("pool is closed")
        if self.broken:
            raise PoolBrokenError("pool is broken")
        schedule = tree.schedule()
        install_seconds = self._ensure_program(schedule)
        program = self._program
        assert program is not None
        bins = self._assignments(program)
        size = DIGEST_SIZE
        assert self._rand_shm is not None and self._label_shm is not None
        # The round's entire randomness traffic: one join + memcpy.
        rand_blob = b"".join(draws)
        self._rand_shm.buf[:len(rand_blob)] = rand_blob
        self._roundtrip([("run", jobs) for jobs in bins])
        blob = bytes(self._label_shm.buf[:schedule.n_slots * size])
        labels = [blob[i:i + size] for i in range(0, len(blob), size)]
        # Merge: the inner slots above the cut, in-process.
        label_upper(schedule, labels, program.upper)
        tree.draws, tree.labels = draws, labels
        self._obs.counter("mtt_pool_dispatches_total").inc(
            max(len(bins), 1))
        return RoundResult(root_label=labels[-1], jobs=len(program.jobs),
                           dispatches=len(bins),
                           install_seconds=install_seconds)

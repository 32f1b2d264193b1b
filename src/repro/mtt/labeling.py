"""Merkle labeling of MTTs (Section 5.3) with real multi-worker labeling.

Labels: each dummy node gets a random bitstring; each bit node gets
``H(b_i || x_i)`` with a fresh blinding ``x_i``; each interior node (prefix
or inner) gets the hash of the concatenation of its children's labels.
All random bitstrings come from the seeded CSPRNG so that the proof
generator can reconstruct a past MTT from the stored 32-byte seed
(Section 6.5).

A labeling is one ``Rc4Csprng.bitstrings`` draw — one bitstring per
leaf, consumed in the tree's leaf order (see
:class:`~repro.mtt.tree.FlatSchedule`) — followed by one serial pass
over the slot arrays (:func:`label_slots`) that cuts the draw into the
leaf labels and hashes every interior slot in post-order into a
per-commitment label list.  The list and the draw land on the tree
(``tree.labels``, ``tree.draws``) for :mod:`repro.mtt.proofs`; the
recorder drops both with the tree once it has the root.

The paper's prototype labels subtrees on ``c`` commitment threads
(Section 7.1).  :func:`label_tree_with_workers`, the one labeling entry
point, reproduces this for real when handed a
:class:`~repro.mtt.pool.LabelPool`, a warm pool of worker processes
that run :func:`label_slots` over contiguous subtree slot blocks sent
over their pipes; without a pool it is the serial pass.  Because the
randomness is drawn serially up front and every label is a pure
function of its subtree, serial, pool, and failure-fallback labeling
produce byte-identical labels on every slot from the same seed
(property-tested).

:func:`parallel_labeling_report` is retained as a *model* cross-check: it
measures real per-subtree labeling times and reports the makespan of a
greedy longest-first schedule over ``c`` workers — the same wall-clock
quantity the paper measures — which remains useful on machines whose
core count cannot support the real pool (see DESIGN.md).

:func:`assign_randomness` and :func:`compute_label` are the reference
implementation over the node view (:meth:`repro.mtt.tree.Mtt.nodes`):
pre-order randomness and recursive hashing, written independently of
the slot arrays so tests can pin the fast pass to them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..crypto.hashing import DIGEST_SIZE, bit_commitment, digest_concat
from ..crypto.rc4 import Rc4Csprng
from ..obs.registry import get_registry
from .nodes import BitNode, DummyNode, MttNode, PrefixNode
from .tree import FlatSchedule, Mtt, NodeCensus, SLOT_DUMMY, SLOT_INNER, \
    SLOT_PREFIX, subtree_jobs, upper_slots

if TYPE_CHECKING:
    from .pool import LabelPool

_PREFIX_BYTE = bytes([SLOT_PREFIX])


def _observe_labeling(mode: str, seconds: float, hashes: int,
                      jobs: int, workers: int) -> None:
    """Publish one labeling run to the instrumentation registry.

    Feeds the Section 7.5 cost attribution: ``mtt_label_seconds`` is the
    wall-clock of the whole labeling call — randomness draw plus hash
    pass — bucketed by pool mode, and the pool gauges record how the
    work was spread over the paper's ``c`` commitment workers.
    """
    registry = get_registry()
    registry.counter("mtt_labelings_total", mode=mode).inc()
    registry.counter("mtt_hashes_total").inc(hashes)
    registry.histogram("mtt_label_seconds", mode=mode).observe(seconds)
    registry.gauge("mtt_pool_workers").set(workers)
    registry.gauge("mtt_pool_jobs").set(jobs)


def _hash_count(census: NodeCensus) -> int:
    # One hash per bit node and per interior node (dummies are free).
    return census.bit + census.prefix + census.inner


def label_slots(kinds: bytes, bits: bytes, offsets: Sequence[int],
                children: Sequence[int], draws: Sequence[bytes],
                lo: int, hi: int, first_leaf: int = 0) -> List[bytes]:
    """Merkle labels of the slots ``[lo, hi)``, one whole subtree block
    (or the whole tree), given the slot arrays of a
    :class:`~repro.mtt.tree.FlatSchedule` and the draw.

    :spiderlint-contract: declassifier(merkle-label)

    Labels are hiding (§5.3): a label reveals neither the bit nor the
    blinding beneath it, so spiderlint treats this construction as a
    sanctioned declassifier for taint that flows into it.

    Leaves take consecutive draws from ``draws[first_leaf]`` on.  The
    result's item ``i`` is the label of slot ``lo + i``.  H is SHA-512
    truncated to :data:`DIGEST_SIZE`, identical to
    :func:`repro.crypto.hashing.digest`, inlined so each node costs one
    hash call; a run of bit slots and the prefix slot closing it are
    hashed in one step.
    """
    sha = hashlib.sha512
    size = DIGEST_SIZE
    join = b"".join
    tag = (b"\x00", b"\x01")
    out: List[bytes] = []
    append, extend = out.append, out.extend
    find = kinds.find
    leaf = first_leaf
    s = lo
    while s < hi:
        kind = kinds[s]
        if kind == SLOT_DUMMY:
            append(draws[leaf])
            leaf += 1
            s += 1
        elif kind == SLOT_INNER:
            o = offsets[s]
            append(sha(out[children[o] - lo] + out[children[o + 1] - lo]
                       + out[children[o + 2] - lo]).digest()[:size])
            s += 1
        else:  # a run of bit slots, closed by their prefix slot
            p = find(_PREFIX_BYTE, s, hi)
            end = leaf + p - s
            extend([sha(tag[b] + x).digest()[:size]
                    for b, x in zip(bits[s:p], draws[leaf:end])])
            append(sha(join(out[s - lo:p - lo])).digest()[:size])
            leaf = end
            s = p + 1
    return out


def label_upper(shape: FlatSchedule, labels: List[bytes],
                slots: Sequence[int]) -> None:
    """Hash the inner ``slots`` above a cut in place, children first."""
    sha = hashlib.sha512
    size = DIGEST_SIZE
    offsets, children = shape.child_offsets, shape.child_slots
    for s in slots:
        o = offsets[s]
        labels[s] = sha(labels[children[o]] + labels[children[o + 1]]
                        + labels[children[o + 2]]).digest()[:size]


def _label_serial(tree: Mtt, draws: List[bytes]) -> bytes:
    """Label the whole tree from ``draws``; returns the root label."""
    shape = tree.schedule()
    labels = label_slots(shape.slot_kinds, shape.slot_bits,
                         shape.child_offsets, shape.child_slots, draws,
                         0, shape.n_slots)
    tree.draws, tree.labels = draws, labels
    return labels[-1]


@dataclass(frozen=True)
class LabelingReport:
    """Result of one labeling call.

    ``seconds`` is the randomness draw plus the hash phase (on the pool:
    dispatch, hashing in the workers, replies, merge).
    ``mode`` is ``"serial"``, ``"process"``, or ``"serial-fallback"``
    (the pool broke mid-round and the same draw was relabeled serially).
    """

    root_label: bytes
    seconds: float
    hash_count: int
    mode: str
    jobs: int


def label_tree_with_workers(tree: Mtt, csprng: Rc4Csprng,
                            pool: Optional["LabelPool"] = None,
                            ) -> LabelingReport:
    """Draw the randomness and label the whole tree, timing both.

    The labeling entry point for the recorder and the proof generator.
    Without a pool it is one serial pass.  With a warm
    :class:`~repro.mtt.pool.LabelPool` (the recorder owns one,
    ``SpiderConfig.commit_workers`` wide) the draw is still serial, and
    the tree is cut into independent subtrees a few branch levels below
    the root; each worker labels whole subtree slot blocks sent over
    its pipe and the (small) remainder above the cut is merged
    in-process, exactly as the paper splits "the MTT into subtrees that
    are each labeled completely by one of the threads" (§7.1).  Either
    way the full label list lands on the tree, so proof generation is
    oblivious to how the tree was labeled.

    If the pool breaks mid-round (worker OOM-killed, crashed, or
    unresponsive) the round falls back to a serial relabel from the
    same draw, which yields byte-identical labels (mode
    ``"serial-fallback"``); the caller should discard the broken pool.
    """
    from .pool import PoolBrokenError

    shape = tree.schedule()
    hashes = _hash_count(shape.counts)
    start = time.perf_counter()
    draws = csprng.bitstrings(shape.n_leaves)
    mode, jobs = "serial", 1
    root_label: Optional[bytes] = None
    if pool is not None:
        try:
            result = pool.label(tree, draws)
            root_label, mode, jobs = result.root_label, "process", \
                result.jobs
        except PoolBrokenError:
            # Worker death must never corrupt a commitment round: one
            # serial pass over the same draw restores exactly the
            # labels the pool would have produced.
            mode = "serial-fallback"
    if root_label is None:
        root_label = _label_serial(tree, draws)
    seconds = time.perf_counter() - start
    _observe_labeling(mode, seconds, hashes, jobs=jobs,
                      workers=pool.workers if pool is not None else 1)
    return LabelingReport(root_label=root_label, seconds=seconds,
                          hash_count=hashes, mode=mode, jobs=jobs)


# ----------------------------------------------------------------------
# Makespan model (retained as a cross-check of the real pool)


@dataclass(frozen=True)
class ParallelReport:
    """Modeled labeling-time accounting for ``c`` commitment workers.

    ``makespan_seconds`` models the wall-clock time of the paper's
    multi-threaded labeling: subtree jobs are assigned longest-first to
    the least-loaded worker, plus the (serial) root-merge cost.  The
    real pool (:func:`label_tree_with_workers` with a
    :class:`~repro.mtt.pool.LabelPool`) should approach this bound on a
    machine with at least ``c`` free cores.
    """

    root_label: bytes
    workers: int
    sequential_seconds: float
    makespan_seconds: float
    subtree_seconds: Tuple[float, ...]

    @property
    def speedup(self) -> float:
        if self.makespan_seconds == 0:
            return float(self.workers)
        return self.sequential_seconds / self.makespan_seconds


#: Runs per subtree job in the makespan model (the best one counts).
_MODEL_REPEATS = 3


def parallel_labeling_report(tree: Mtt, csprng: Rc4Csprng, workers: int,
                             fanout_depth: int = 4) -> ParallelReport:
    """Label the tree and model the work as ``workers`` parallel jobs."""
    if workers < 1:
        raise ValueError("need at least one worker")
    shape = tree.schedule()
    arrays = (shape.slot_kinds, shape.slot_bits, shape.child_offsets,
              shape.child_slots)
    draws = csprng.bitstrings(shape.n_leaves)
    jobs = subtree_jobs(shape, fanout_depth)
    labels: List[bytes] = [b""] * shape.n_slots

    registry = get_registry()
    subtree_histogram = registry.histogram("mtt_subtree_seconds")
    job_times: List[float] = []
    for lo, hi, first_leaf in jobs:
        # Best of a few runs: a job is a few milliseconds, so one
        # scheduling blip would otherwise decide a whole bin.
        best = float("inf")
        for _ in range(_MODEL_REPEATS):
            start = time.perf_counter()
            block = label_slots(*arrays, draws, lo, hi, first_leaf)
            best = min(best, time.perf_counter() - start)
        labels[lo:hi] = block
        job_times.append(best)
        subtree_histogram.observe(best)
    merge_start = time.perf_counter()
    label_upper(shape, labels, upper_slots(jobs, shape.n_slots))
    merge_seconds = time.perf_counter() - merge_start
    sequential = sum(job_times) + merge_seconds
    tree.draws, tree.labels = draws, labels

    # Greedy longest-first schedule onto `workers` bins.
    bins = [0.0] * workers
    for job_time in sorted(job_times, reverse=True):
        bins[bins.index(min(bins))] += job_time
    makespan = max(bins) + merge_seconds
    if makespan > 0:
        # Modeled pool utilization: fraction of worker-seconds doing
        # hash work under the greedy schedule (1.0 = perfectly packed).
        registry.gauge("mtt_pool_utilization").set(
            sequential / (workers * makespan))
    return ParallelReport(root_label=labels[-1], workers=workers,
                          sequential_seconds=sequential,
                          makespan_seconds=makespan,
                          subtree_seconds=tuple(job_times))


# ----------------------------------------------------------------------
# Reference implementation over the node view


def assign_randomness(root: MttNode, csprng: Rc4Csprng) -> None:
    """Give every dummy node its random label and every bit node its
    blinding, one bitstring each in pre-order (edges 0, 1, E; bit nodes
    in class order) — the draw order the slot arrays reproduce."""
    stack: List[MttNode] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, DummyNode):
            node.label = csprng.bitstring()
        elif isinstance(node, BitNode):
            node.blinding = csprng.bitstring()
        elif isinstance(node, PrefixNode):
            stack.extend(reversed(node.bit_nodes))
        else:
            stack.extend(reversed([c for c in node.children
                                   if c is not None]))


def compute_label(node: MttNode) -> bytes:
    """Compute (and cache) the Merkle label of a node-view subtree.

    Generic iterative post-order traversal over node objects, the
    reference the slot-array pass (:func:`label_slots`) is tested
    against.  Interior nodes that already carry a label are skipped.
    """
    stack: List[Tuple[MttNode, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if isinstance(current, DummyNode):
            if current.label is None:
                raise RuntimeError("dummy node has no label; call "
                                   "assign_randomness first")
            continue
        if isinstance(current, BitNode):
            if current.blinding is None:
                raise RuntimeError("bit node has no blinding; call "
                                   "assign_randomness first")
            current.label = bit_commitment(current.bit, current.blinding)
            continue
        if isinstance(current, PrefixNode):
            children: List[MttNode] = list(current.bit_nodes)
        else:
            children = [c for c in current.children if c is not None]
        if expanded:
            current.label = digest_concat(
                *[child.label for child in children])
        elif current.label is None:
            stack.append((current, True))
            stack.extend((child, False) for child in children)
    assert node.label is not None
    return node.label

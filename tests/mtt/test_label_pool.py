"""Tests for the warm labeling pool (repro.mtt.pool).

The pool's contract has three legs — determinism (byte-identical to
serial labeling, per node), warmth (the same workers serve every
round), and survivability (a dead, hung or failing worker costs one
serial-fallback round, never a wrong or partial tree; a failed spawn
leaves no worker behind, and no worker outlives ``close()``).  Each
gets exercised here, plus the recorder-level lifecycle that owns the
pool in a deployment.
"""

import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import Announce
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.rc4 import Rc4Csprng
from repro.mtt import pool as pool_module
from repro.mtt.labeling import label_tree_with_workers
from repro.mtt.pool import LabelPool, PoolBrokenError
from repro.mtt.tree import Mtt, subtree_jobs, upper_slots
from repro.core.promise import total_order_promise
from repro.netsim.events import Simulator
from repro.spider.config import SpiderConfig
from repro.spider.node import evaluation_scheme
from repro.spider.proofgen import ProofGenerator
from repro.spider.recorder import Recorder
from repro.traces.workload import generate_prefixes


def entries_grid(n, k):
    return {Prefix.parse(f"10.{i}.0.0/16"): [(i >> j) & 1
                                             for j in range(k)]
            for i in range(n)}


def serial_snapshot(tree, seed):
    """Serial-label the tree and capture (root, per-slot labels)."""
    report = label_tree_with_workers(tree, Rc4Csprng(seed))
    return report.root_label, node_labels(tree)


def node_labels(tree):
    return list(tree.labels)


def is_running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture(scope="module")
def pools():
    """Warm pools shared across tests; keyed by worker count."""
    cache = {}

    def get(workers):
        if workers not in cache or cache[workers].broken:
            cache[workers] = LabelPool(workers)
        return cache[workers]

    yield get
    for pool in cache.values():
        pool.close()


class TestWarmPool:
    def test_rounds_match_serial_and_reuse_workers(self, pools):
        tree = Mtt.build(entries_grid(24, 5))
        root_a, _ = serial_snapshot(tree, b"round-a")
        root_b, _ = serial_snapshot(tree, b"round-b")
        pool = pools(2)
        pids = sorted(pool.worker_pids())
        report_a = label_tree_with_workers(tree, Rc4Csprng(b"round-a"),
                                           pool=pool)
        report_b = label_tree_with_workers(tree, Rc4Csprng(b"round-b"),
                                           pool=pool)
        assert report_a.root_label == root_a
        assert report_b.root_label == root_b
        assert report_a.mode == "process"
        # Warm: same workers served both rounds.
        assert sorted(pool.worker_pids()) == pids

    def test_per_node_labels_match_serial(self, pools):
        tree = Mtt.build(entries_grid(16, 4))
        _, expected = serial_snapshot(tree, b"per-node")
        pool = pools(2)
        tree.labels = None
        label_tree_with_workers(tree, Rc4Csprng(b"per-node"), pool=pool)
        assert node_labels(tree) == expected

    def test_dispatch_is_per_worker_not_per_job(self, pools):
        tree = Mtt.build(entries_grid(32, 4))
        label_tree_with_workers(tree, Rc4Csprng(b"dispatch"))  # draws
        pool = pools(2)
        result = pool.label(tree, tree.draws)
        # Many subtree jobs, but at most one dispatch per worker: a
        # dispatch per subtree would cost more than the hashing.
        assert result.jobs > pool.workers
        assert 0 < result.dispatches <= pool.workers

    def test_successive_shapes_match_serial(self, pools):
        pool = pools(2)
        for n in (8, 20):
            tree = Mtt.build(entries_grid(n, 3))
            root, _ = serial_snapshot(tree, b"reshape")
            report = label_tree_with_workers(
                tree, Rc4Csprng(b"reshape"), pool=pool)
            assert report.root_label == root

    def test_closed_pool_raises(self):
        pool = LabelPool(2)
        pool.close()
        tree = Mtt.build(entries_grid(4, 2))
        # draws the randomness
        label_tree_with_workers(tree, Rc4Csprng(b"closed"))
        with pytest.raises(PoolBrokenError):
            pool.label(tree, tree.draws)
        pool.close()  # idempotent

    def test_partial_spawn_failure_stops_started_workers(
            self, monkeypatch):
        process = multiprocessing.get_context("fork").Process
        real_start = process.start
        started = []

        def start(proc):
            if started:
                raise OSError("no more processes")
            real_start(proc)
            started.append(proc)

        before = {p.pid for p in multiprocessing.active_children()}
        monkeypatch.setattr(process, "start", start)
        with pytest.raises(PoolBrokenError, match="no more processes"):
            LabelPool(3)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert started[0].exitcode is not None
        assert {p.pid for p in multiprocessing.active_children()} == \
            before


class TestWorkerDeathRecovery:
    """Satellite: a killed worker degrades to one serial-fallback
    round with byte-identical output, and marks the pool broken."""

    def test_sigkill_mid_deployment_falls_back_serially(self):
        pool = LabelPool(2)
        tree = Mtt.build(entries_grid(20, 4))
        root, expected = serial_snapshot(tree, b"killed")
        # Warm the pool, then kill a worker the way an OOM-killer would.
        label_tree_with_workers(tree, Rc4Csprng(b"warmup"), pool=pool)
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 5.0
        while time.time() < deadline and is_running(victim):
            time.sleep(0.01)
        report = label_tree_with_workers(tree, Rc4Csprng(b"killed"),
                                         pool=pool)
        assert report.mode == "serial-fallback"
        assert report.root_label == root
        assert node_labels(tree) == expected
        assert pool.broken
        pool.close()

    def test_die_command_breaks_pool(self):
        pool = LabelPool(1)
        tree = Mtt.build(entries_grid(6, 2))
        # draws the randomness
        label_tree_with_workers(tree, Rc4Csprng(b"die"))
        pool.label(tree, tree.draws)  # one good round
        pool._conns[0].send(("die",))
        with pytest.raises(PoolBrokenError):
            pool.label(tree, tree.draws)
        assert pool.broken
        pool.close()

    def test_worker_error_reply_breaks_pool(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("labeling exploded")

        # Patched before the fork, so the workers inherit it; the
        # serial fallback uses repro.mtt.labeling's own label_slots.
        monkeypatch.setattr(pool_module, "label_slots", fail)
        tree = Mtt.build(entries_grid(12, 3))
        root, expected = serial_snapshot(tree, b"worker-error")
        pools = [LabelPool(2), LabelPool(2)]
        try:
            with pytest.raises(PoolBrokenError,
                               match="pool worker error"):
                pools[0].label(tree, tree.draws)
            assert pools[0].broken
            report = label_tree_with_workers(
                tree, Rc4Csprng(b"worker-error"), pool=pools[1])
            assert report.mode == "serial-fallback"
            assert report.root_label == root
            assert node_labels(tree) == expected
            assert pools[1].broken
        finally:
            for pool in pools:
                pool.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs procfs")
class TestHungWorker:
    """A stopped worker ignores SIGTERM; the pool must still fall back
    within REPLY_TIMEOUT and must not leave the worker running after
    ``close()`` (multiprocessing's exit-time join would block forever
    on it).  The victim is SIGKILLed in a ``finally`` so a failure
    cannot hang the suite."""

    def test_stopped_worker_falls_back_and_dies_on_close(
            self, monkeypatch):
        monkeypatch.setattr(pool_module, "REPLY_TIMEOUT", 0.5)
        # Big enough that one worker's run message overflows its pipe,
        # so sending to the stopped worker blocks as well.
        tree = Mtt.build({p: [1] * 50
                          for p in generate_prefixes(1000, seed=3)})
        root, expected = serial_snapshot(tree, b"hung")
        pool = LabelPool(2)
        pids = pool.worker_pids()
        victim = pids[0]
        try:
            os.kill(victim, signal.SIGSTOP)
            report = label_tree_with_workers(tree, Rc4Csprng(b"hung"),
                                             pool=pool)
            assert report.mode == "serial-fallback"
            assert report.root_label == root
            assert node_labels(tree) == expected
            assert pool.broken
            pool.close()
            assert not [pid for pid in pids if is_running(pid)]
        finally:
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass
            pool.close()

    def test_close_kills_a_stopped_worker(self):
        pool = LabelPool(2)
        pids = pool.worker_pids()
        victim = pids[0]
        try:
            os.kill(victim, signal.SIGSTOP)
            pool.close()
            assert not [pid for pid in pids if is_running(pid)]
        finally:
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestRecorderLifecycle:
    """The recorder owns one warm pool per deployment (§7.1's c
    commitment threads), shared with the proof generator."""

    ELECTOR, CONSUMER = 5, 7

    def make_recorder(self, **config_kwargs):
        registry = KeyRegistry()
        identity = make_identity(self.ELECTOR, registry=registry,
                                 bits=512, seed=910)
        make_identity(self.CONSUMER, registry=registry, bits=512,
                      seed=911)
        scheme = evaluation_scheme(5)
        sim = Simulator()
        return Recorder(
            identity=identity, registry=registry, scheme=scheme,
            promises={self.CONSUMER: total_order_promise(scheme)},
            config=SpiderConfig(**config_kwargs),
            clock=sim.clock,
            transport=lambda receiver, message: None,
            schedule=sim.after)

    def test_serial_config_has_no_pool(self):
        recorder = self.make_recorder(commit_workers=1)
        assert recorder.labeling_pool() is None
        recorder.close()

    def test_pool_survives_across_commitment_rounds(self):
        recorder = self.make_recorder(commit_workers=2)
        pool = recorder.labeling_pool()
        assert pool is not None and not pool.broken
        record_a = recorder.make_commitment()
        # A second commitment needs a later millisecond (§5.3 fresh
        # blinding: same-instant commitments are refused).
        recorder.clock.advance_to(recorder.clock.now + 1.0)
        record_b = recorder.make_commitment()
        assert record_a.root and record_b.root
        assert recorder.labeling_pool() is pool  # warm, not respawned
        recorder.close()

    def test_pooled_recorder_matches_serial_recorder(self):
        # Same identity and master seed: commitments, §6.5
        # reconstructions and signed proofs must not depend on the pool.
        recorders = [self.make_recorder(commit_workers=w) for w in (1, 2)]
        for recorder in recorders:
            for i, prefix in enumerate(generate_prefixes(60, seed=5)):
                # Paths of 1-4 hops put the offers in different classes,
                # so the consumer is due 0-proofs for the classes above.
                path = tuple(range(64500, 64501 + i % 4))
                recorder.mirror_sent_update(Announce(
                    sender=self.ELECTOR, receiver=self.CONSUMER,
                    route=Route(prefix, (self.ELECTOR,) + path,
                                neighbor=64500)))
        pool = recorders[1].labeling_pool()
        for _ in range(2):
            roots = [r.make_commitment().root for r in recorders]
            assert roots[0] == roots[1]
            for recorder in recorders:
                recorder.clock.advance_to(recorder.clock.now + 60.0)
        for record in recorders[1].commitments:
            proof_sets = []
            for recorder in recorders:
                generator = ProofGenerator(recorder)
                reconstruction = generator.reconstruct(record.commit_time)
                assert reconstruction.root == record.root
                proof_sets.append(generator.proofs_for(
                    reconstruction, self.CONSUMER).all_proofs())
            serial_proofs, pooled_proofs = proof_sets
            assert pooled_proofs
            assert [p.proof.encode() for p in pooled_proofs] == \
                [p.proof.encode() for p in serial_proofs]
            assert [p.envelope for p in pooled_proofs] == \
                [p.envelope for p in serial_proofs]
        # Every round and reconstruction ran on the one warm pool: a
        # serial fallback would have replaced it.
        assert recorders[1].labeling_pool() is pool
        for recorder in recorders:
            recorder.close()

    def test_broken_pool_is_replaced_next_round(self):
        recorder = self.make_recorder(commit_workers=2)
        pool = recorder.labeling_pool()
        assert pool is not None
        pool.broken = True
        replacement = recorder.labeling_pool()
        assert replacement is not pool
        assert not replacement.broken
        recorder.close()

    def test_close_is_idempotent_and_releases_pool(self):
        recorder = self.make_recorder(commit_workers=2)
        assert recorder.labeling_pool() is not None
        recorder.close()
        recorder.close()
        # The recorder stays usable: a later round respawns lazily.
        assert recorder.labeling_pool() is not None
        recorder.close()


@st.composite
def random_entries(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    prefixes = draw(st.sets(
        st.lists(st.integers(0, 1), min_size=0, max_size=9).map(
            lambda bits: Prefix.from_bits(tuple(bits))),
        min_size=1, max_size=n))
    return {
        p: [draw(st.integers(0, 1)) for _ in range(k)]
        for p in prefixes
    }


class TestPoolDeterminismProperty:
    """Serial and pool labeling agree byte for byte — roots AND
    per-node labels — over random tree shapes and worker counts, at the
    pool's fixed cut; the subtree partition holds at every cut depth."""

    @settings(max_examples=20, deadline=None)
    @given(random_entries(), st.integers(2, 4),
           st.binary(min_size=1, max_size=8))
    def test_all_modes_byte_identical(self, pools, entries, workers,
                                      seed):
        tree = Mtt.build(entries)
        root, expected = serial_snapshot(tree, seed)
        report = label_tree_with_workers(tree, Rc4Csprng(seed),
                                         pool=pools(workers))
        assert report.mode == "process"
        assert report.root_label == root
        assert node_labels(tree) == expected

    @settings(max_examples=10, deadline=None)
    @given(random_entries(), st.integers(0, 4))
    def test_job_partition_covers_tree(self, entries, cut_depth):
        schedule = Mtt.build(entries).schedule()
        jobs = subtree_jobs(schedule, cut_depth)
        kinds = schedule.slot_kinds
        seen = set()
        leaf = 0
        for lo, hi, first_leaf in jobs:
            block = set(range(lo, hi))
            assert not (block & seen)  # disjoint
            seen |= block
            assert first_leaf == leaf  # leaves stay in draw order
            leaf += sum(1 for s in range(lo, hi) if kinds[s] < 2)
        upper = upper_slots(jobs, schedule.n_slots)
        assert seen.isdisjoint(upper)
        assert len(seen) + len(upper) == schedule.n_slots
        # Only inner slots sit above the cut.
        assert all(kinds[s] == 2 for s in upper)

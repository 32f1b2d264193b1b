"""The three workloads: commit-steady, announce-stream, verify-churn.

Each workload is a closed loop with one operation in flight.  Inputs
(prefixes, paths, churn picks, key seeds) derive from the workload seed;
the nodes only ever see the generated updates, through public calls.
A workload's ``round`` does its untimed churn, then its timed
operations through ``timer.op(path, fn, *args)``; ``finish`` runs the
end-of-run correctness checks, outside every timed region.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bgp.prefix import Prefix
from repro.core.verdict import FaultKind
from repro.spider.proofgen import ProofGenerator, ProofSet
from repro.spider.recorder import CommitmentRecord
from repro.spider.wire import SpiderBitProof
from repro.store.recovery import recover
from repro.store.seglog import SegmentedLogStore
from repro.traces.workload import generate_prefixes

from harness import CONSUMER, ELECTOR, PRODUCERS, ROUND, Net, build_net, \
    derive_seed, filesystem_type, offer, producer_route, reexport, retract

#: (check name, passed, detail)
Check = Tuple[str, bool, str]


class Workload:
    """Shared bookkeeping: checks, prefix-set stability, wire counters."""

    name = ""
    #: Timed paths in the order a round runs them.
    paths: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(derive_seed(seed, self.name, "churn"))
        self.net: Optional[Net] = None
        self.checks: List[Check] = []
        self.ops_attempted = 0
        self.ops_failed = 0
        self._last_prefix_set: Optional[FrozenSet[Prefix]] = None
        self.commit_rounds = 0
        self.same_prefix_set_rounds = 0
        self._wire_start = (0, 0)

    # -- life cycle ------------------------------------------------------

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def round(self, timer: Any) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.net is not None:
            self.net.close()
            self.net = None

    def start_measuring(self) -> None:
        assert self.net is not None
        self._wire_start = self.net.frames_and_bytes()

    def store_bytes(self) -> int:
        """Bytes in the elector's durable store (none by default)."""
        return 0

    # -- helpers ---------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check (counted as an attempted op)."""
        self.checks.append((name, ok, detail))
        self.ops_attempted += 1
        if not ok:
            self.ops_failed += 1
        return ok

    def note_commit(self) -> None:
        """Track whether this round commits to the same prefix set."""
        assert self.net is not None
        prefixes = frozenset(
            self.net.elector.recorder.state.known_prefixes())
        if self._last_prefix_set is not None:
            self.commit_rounds += 1
            if prefixes == self._last_prefix_set:
                self.same_prefix_set_rounds += 1
        self._last_prefix_set = prefixes

    def same_prefix_set_share(self) -> float:
        if not self.commit_rounds:
            return 0.0
        return self.same_prefix_set_rounds / self.commit_rounds

    def wire(self) -> Tuple[int, int]:
        """(frames, bytes) sent over the hub since measuring began."""
        assert self.net is not None
        frames, sent = self.net.frames_and_bytes()
        return frames - self._wire_start[0], sent - self._wire_start[1]

    def delivery_totals(self) -> Tuple[int, int]:
        """(messages tracked for an ACK, retransmissions) so far."""
        assert self.net is not None
        tracked = retries = 0
        for rt in self.net.nodes.values():
            d = rt.delivery
            tracked += d.acks_matched + len(d.pending) + len(d.evidence)
            retries += d.retries_sent
        return tracked, retries

    def check_delivery(self) -> None:
        """§6.2: every message ACKed, no give-up, no alarm anywhere."""
        assert self.net is not None
        for asn, rt in sorted(self.net.nodes.items()):
            d = rt.delivery
            self.check(f"as{asn} every message acked", not d.pending,
                       f"{len(d.pending)} unacked")
            self.check(f"as{asn} no delivery give-ups", not d.evidence,
                       f"{len(d.evidence)} give-ups")
            self.check(f"as{asn} no alarms", not rt.recorder.alarms,
                       "; ".join(rt.recorder.alarms[:3]))

    def check_commitment(self, record: CommitmentRecord) -> None:
        """Every neighbour holds the broadcast root of ``record``."""
        assert self.net is not None
        for asn in sorted(self.net.nodes):
            if asn == ELECTOR:
                continue
            got = self.net.nodes[asn].node.commitment_from(
                ELECTOR, record.commit_time)
            self.check(f"as{asn} received the commitment",
                       got is not None and got.root == record.root)

    def check_fresh_root(self) -> None:
        """The last root equals an uncached §6.5 reconstruction."""
        assert self.net is not None
        recorder = self.net.elector.recorder
        last = recorder.commitments[-1]
        try:
            rebuilt = ProofGenerator(recorder).reconstruct(
                last.commit_time, use_cache=False)
            ok, detail = rebuilt.root == last.root, ""
        except (RuntimeError, ValueError) as exc:
            ok, detail = False, str(exc)
        self.check("last root equals a fresh reconstruction", ok, detail)

    def commit(self, timer: Any) -> CommitmentRecord:
        """One timed commitment, then its untimed broadcast delivery."""
        assert self.net is not None
        self.net.advance(ROUND)
        self.note_commit()
        record: CommitmentRecord = timer.op("commit",
                                            self.net.elector.commit)
        self.net.settle()
        self.check_commitment(record)
        return record

    def properties(self) -> Dict[str, Any]:
        """Workload properties later claims depend on."""
        return {"same_prefix_set_share": self.same_prefix_set_share(),
                "commit_rounds_compared": self.commit_rounds}


class CommitSteady(Workload):
    """Elector with 2000 multi-homed prefixes; 1% of routes change per
    round, the prefix set never does.  Timed: ``commit()``."""

    name = "commit-steady"
    paths = ("commit",)
    PREFIXES = 2000
    CHURN = 0.01

    def setup(self, rep: int) -> None:
        net = build_net(self.seed, rep, (ELECTOR,) + PRODUCERS + (CONSUMER,))
        self.net = net
        rng = random.Random(derive_seed(self.seed, self.name, "routes"))
        self.prefixes = generate_prefixes(
            self.PREFIXES, seed=derive_seed(self.seed, self.name, "prefixes"))
        for producer in PRODUCERS:
            for prefix in self.prefixes:
                offer(net, producer, producer_route(rng, producer, prefix))
        net.settle()
        reexport(net, self.prefixes)
        net.settle()
        self.commit(_Untimed())

    def round(self, timer: Any) -> None:
        net = self.net
        assert net is not None
        picks = self.rng.sample(self.prefixes,
                                int(self.PREFIXES * self.CHURN))
        for prefix in picks:
            producer = self.rng.choice(PRODUCERS)
            old = net.offered[producer][prefix]
            route = producer_route(self.rng, producer, prefix)
            while route.as_path == old.as_path:
                route = producer_route(self.rng, producer, prefix)
            offer(net, producer, route)
        net.settle()
        reexport(net, picks)
        net.settle()
        self.commit(timer)

    def finish(self) -> None:
        self.check_fresh_root()
        self.check_delivery()


class AnnounceStream(Workload):
    """One producer sends bursts of 32 updates (75% announces with new
    paths, 25% withdrawals) from a 200-prefix table to an elector whose
    log is a durable ``SegmentedLogStore`` (fsync=batch).  Timed: one
    burst until every ACK is processed."""

    name = "announce-stream"
    paths = ("announce",)
    PREFIXES = 200
    BURST = 32
    WITHDRAW_SHARE = 0.25

    def setup(self, rep: int) -> None:
        self.store_dir = os.path.join(self.workdir,
                                      f"store-{os.getpid()}-{rep}")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        net = build_net(self.seed, rep, (ELECTOR, PRODUCERS[0]),
                        store_dir=self.store_dir)
        self.net = net
        self.producer = PRODUCERS[0]
        self.prefixes = generate_prefixes(
            self.PREFIXES, seed=derive_seed(self.seed, self.name, "prefixes"))
        rng = random.Random(derive_seed(self.seed, self.name, "routes"))
        for prefix in self.prefixes:
            offer(net, self.producer, producer_route(rng, self.producer,
                                                     prefix))
        net.settle()
        self.updates = 0

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def store_bytes(self) -> int:
        assert self.net is not None and self.net.elector.store is not None
        return sum(s.size_bytes for s in self.net.elector.store.segments())

    def start_measuring(self) -> None:
        super().start_measuring()
        self._store_start = self.store_bytes()
        self._updates_start = self.updates

    def stored(self) -> Tuple[int, int]:
        """(store bytes, updates) since measuring began."""
        return (self.store_bytes() - self._store_start,
                self.updates - self._updates_start)

    def properties(self) -> Dict[str, Any]:
        props = super().properties()
        props["store_filesystem"] = filesystem_type(self.workdir)
        return props

    def _plan(self) -> List[Tuple[Prefix, Optional[Any]]]:
        """The next burst: (prefix, new route or None to withdraw)."""
        net = self.net
        assert net is not None
        table = net.offered[self.producer]
        withdrawals = round(self.BURST * self.WITHDRAW_SHARE)
        plan: List[Tuple[Prefix, Optional[Any]]] = []
        for prefix in self.rng.sample(self.prefixes, self.BURST):
            if withdrawals and prefix in table:
                withdrawals -= 1
                plan.append((prefix, None))
                continue
            old = table.get(prefix)
            route = producer_route(self.rng, self.producer, prefix)
            while old is not None and route.as_path == old.as_path:
                route = producer_route(self.rng, self.producer, prefix)
            plan.append((prefix, route))
        return plan

    def _burst(self, plan: List[Tuple[Prefix, Optional[Any]]]) -> None:
        net = self.net
        assert net is not None
        for prefix, route in plan:
            if route is None:
                retract(net, self.producer, prefix)
            else:
                offer(net, self.producer, route)
        net.settle()

    def round(self, timer: Any) -> None:
        net = self.net
        assert net is not None
        plan = self._plan()
        timer.op("announce", self._burst, plan)
        self.updates += len(plan)
        pending = net.nodes[self.producer].delivery.pending
        self.check("burst fully acked", not pending,
                   f"{len(pending)} unacked")

    def finish(self) -> None:
        net = self.net
        assert net is not None
        self.check_delivery()
        log = net.elector.recorder.log
        entries, head = len(log), log.head
        net.close()
        self.net = None
        store = SegmentedLogStore(self.store_dir, fsync="batch")
        try:
            recovered = recover(store)
            ok = len(recovered.entries) == entries and \
                recovered.head == head
            detail = f"{len(recovered.entries)} of {entries} entries"
        except Exception as exc:  # any failure to recover is the finding
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        finally:
            store.close()
        self.check("store recovers and chain-verifies to the log", ok,
                   detail)


class VerifyChurn(Workload):
    """Elector with 600 single-homed prefixes split between two
    producers, plus a consumer.  Each round withdraws 2% and announces
    2% new prefixes, commits (timed), then all three neighbours verify
    the commitment (timed)."""

    name = "verify-churn"
    paths = ("commit", "verify")
    PREFIXES = 600
    CHURN = 0.02

    def setup(self, rep: int) -> None:
        net = build_net(self.seed, rep, (ELECTOR,) + PRODUCERS + (CONSUMER,))
        self.net = net
        pool = generate_prefixes(
            2 * self.PREFIXES,
            seed=derive_seed(self.seed, self.name, "prefixes"))
        self.active: List[Prefix] = pool[:self.PREFIXES]
        self.inactive: List[Prefix] = pool[self.PREFIXES:]
        self.owner: Dict[Prefix, int] = {}
        rng = random.Random(derive_seed(self.seed, self.name, "routes"))
        for prefix in self.active:
            self._announce(rng, prefix)
        net.settle()
        reexport(net, self.active)
        net.settle()
        self.commit(_Untimed())
        self.proof_bytes = 0
        self.proofs = 0
        self.digest_hits = 0
        self.digest_lookups = 0
        self.last_proofs: Dict[int, ProofSet] = {}

    def _announce(self, rng: random.Random, prefix: Prefix) -> None:
        assert self.net is not None
        producer = rng.choice(PRODUCERS)
        self.owner[prefix] = producer
        offer(self.net, producer, producer_route(rng, producer, prefix))

    def round(self, timer: Any) -> None:
        net = self.net
        assert net is not None
        n = int(self.PREFIXES * self.CHURN)
        gone = self.rng.sample(self.active, n)
        fresh = self.rng.sample(self.inactive, n)
        for prefix in gone:
            retract(net, self.owner.pop(prefix), prefix)
            self.active.remove(prefix)
        for prefix in fresh:
            self._announce(self.rng, prefix)
            self.inactive.remove(prefix)
            self.active.append(prefix)
        self.inactive.extend(gone)
        net.settle()
        reexport(net, gone + fresh)
        net.settle()
        record = self.commit(timer)
        results = timer.op("verify", self.verify_all, record.commit_time)
        for asn, proofs, report in results:
            self.proof_bytes += proofs.wire_size()
            self.proofs += proofs.proof_count()
            self.digest_hits += report.digest_cache_hits
            self.digest_lookups += report.digest_cache_hits + \
                report.digest_cache_misses
            self.check(f"as{asn} honest check has no verdicts", report.ok,
                       "; ".join(v.description for v in report.verdicts[:3]))
        self.last_proofs = {asn: proofs for asn, proofs, _r in results}

    def verify_all(self, commit_time: float) -> List[Tuple[int, ProofSet,
                                                          Any]]:
        """Every neighbour requests its proofs and checks them against
        its own logged view; the elector's reconstruction is shared
        through the proof generator's LRU cache."""
        results = []
        for asn in PRODUCERS + (CONSUMER,):
            proofs, report = self._verify(asn, commit_time, None)
            results.append((asn, proofs, report))
        return results

    def _verify(self, asn: int, commit_time: float,
                proofs: Optional[ProofSet]) -> Tuple[ProofSet, Any]:
        net = self.net
        assert net is not None
        elector = net.elector.node
        if proofs is None:
            reconstruction = elector.proofgen.reconstruct(commit_time)
            proofs = elector.proofgen.proofs_for(reconstruction, asn)
        node = net.nodes[asn].node
        commitment = node.commitment_from(ELECTOR, commit_time)
        view = node.view_at(commit_time)
        report = node.checker.check(
            commitment, proofs,
            my_exports_to_elector=view.exports.get(ELECTOR, {}),
            my_imports_from_elector=view.imports.get(ELECTOR, {}),
            promise=elector.recorder.promises.get(asn),
            elector_scheme=elector.recorder.scheme)
        return proofs, report

    def tamper_control(self) -> None:
        """One proof with a flipped blinding byte, re-signed by the
        elector, must be reported as ``INVALID_PROOF``."""
        net = self.net
        assert net is not None
        asn = PRODUCERS[0]
        honest = self.last_proofs[asn]
        prefix = sorted(honest.producer_proofs)[0]
        original = honest.producer_proofs[prefix]
        blinding = bytearray(original.proof.blinding)
        blinding[0] ^= 0x01
        bad = dataclasses.replace(original.proof, blinding=bytes(blinding))
        forged = SpiderBitProof.make(net.elector.recorder.signer, asn,
                                     original.commit_time, bad)
        tampered = dataclasses.replace(
            honest, producer_proofs={**honest.producer_proofs,
                                     prefix: forged})
        _proofs, report = self._verify(asn, original.commit_time, tampered)
        kinds = [v.kind for v in report.verdicts]
        self.check("tampered proof yields INVALID_PROOF",
                   kinds == [FaultKind.INVALID_PROOF], str(kinds))

    def finish(self) -> None:
        self.check_fresh_root()
        self.tamper_control()
        self.check_delivery()

    def properties(self) -> Dict[str, Any]:
        assert self.net is not None
        props = super().properties()
        props["reconstruction_cache_hit_ratio"] = \
            self.net.elector.node.proofgen.cache_hit_rate
        props["digest_cache_hit_ratio"] = \
            self.digest_hits / max(self.digest_lookups, 1)
        return props


class _Untimed:
    """A timer for set-up operations: runs them, records nothing."""

    @staticmethod
    def op(_path: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)


WORKLOADS = {w.name: w for w in (CommitSteady, AnnounceStream, VerifyChurn)}

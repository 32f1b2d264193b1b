"""Which public functions the traced run wraps, and the per-layer
metrics computed from the spans.

Span names are ``<layer>.<operation>``; the layer names follow the
package's module names.  A function imported by name into another
module is wrapped where it is looked up (``repro.spider.recorder``
calls its own ``compute_bits`` binding, for instance).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import repro.mtt.tree as mtt_tree
import repro.runtime.transport as runtime_transport
import repro.spider.checker as spider_checker
import repro.spider.checkpoint as spider_checkpoint
import repro.spider.node as spider_node
import repro.spider.proofgen as spider_proofgen
import repro.spider.recorder as spider_recorder
from repro.crypto.rc4 import Rc4Csprng
from repro.crypto.signatures import Signer, Verifier
from repro.mtt.pool import LabelPool
from repro.runtime.node_runtime import NodeRuntime
from repro.runtime.transport import LoopbackHub, LoopbackTransport
from repro.spider.checker import Checker
from repro.spider.log import SpiderLog
from repro.spider.proofgen import ProofGenerator
from repro.spider.recorder import Recorder
from repro.store.seglog import SegmentedLogStore

from tracer import Tracer

#: The timed paths, in report order.
PATHS = ("commit", "announce", "verify")


def _count(name: str, of=lambda args, result: 1):  # type: ignore
    def after(tracer: Tracer, args: tuple, result: Any, _seen: Any) -> None:
        tracer.count(name, of(args, result))
    return after


def _sign_batch_payloads(tracer: Tracer, args: tuple, result: Any,
                         _seen: Any) -> None:
    # sign_batch of one payload delegates to sign(), which counts it.
    if len(args[1]) > 1:
        tracer.count("crypto.signatures.payloads", len(args[1]))


def _check_report(tracer: Tracer, _args: tuple, report: Any,
                  _seen: Any) -> None:
    tracer.count("spider.checker.proofs_checked", report.proofs_checked)
    tracer.count("mtt.proofs.digest_hits", report.digest_cache_hits)
    tracer.count("mtt.proofs.digest_lookups",
                 report.digest_cache_hits + report.digest_cache_misses)


def _reconstruct_seen(args: tuple) -> int:
    return args[0].cache_misses


def _reconstruct_after(tracer: Tracer, args: tuple, _result: Any,
                       misses_before: int) -> None:
    tracer.count("spider.proofgen.requests")
    tracer.count("spider.proofgen.rebuilds",
                 args[0].cache_misses - misses_before)


def _deliver_pending_seen(args: tuple) -> int:
    return len(args[0].inbox)


def _deliver_pending_after(tracer: Tracer, _args: tuple, _result: Any,
                           depth: int) -> None:
    tracer.high_water("runtime.node_runtime.inbox_depth", depth)


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper (undo with ``tracer.unwrap_all``)."""
    w = tracer.wrap
    # runtime: node runtime calls, transport, codec
    for attr in ("announce", "withdraw", "commit", "advance_to"):
        w(NodeRuntime, attr, "runtime.node_runtime." + attr)
    w(NodeRuntime, "deliver_pending", "runtime.node_runtime.deliver_pending",
      before=_deliver_pending_seen, after=_deliver_pending_after)
    w(LoopbackHub, "deliver_all", "runtime.transport.deliver")
    w(LoopbackTransport, "send", "runtime.transport.send")
    w(LoopbackTransport, "send_many", "runtime.transport.send")
    w(runtime_transport, "encode_message", "runtime.codec.encode",
      after=_count("runtime.codec.bytes", lambda a, r: len(r)))
    w(runtime_transport, "decode_message", "runtime.codec.decode")
    # spider: recorder, log, checkpoint replay, proof generator, checker
    w(Recorder, "make_commitment", "spider.recorder.commit")
    w(Recorder, "receive", "spider.recorder.receive")
    w(Recorder, "flush_outbox", "spider.recorder.flush")
    w(Recorder, "mirror_sent_update", "spider.recorder.mirror")
    w(Recorder, "mtt_entries", "spider.recorder.entries")
    w(SpiderLog, "append", "spider.log.append")
    w(SpiderLog, "sync", "spider.log.sync")
    w(spider_proofgen, "replay", "spider.checkpoint.replay")
    w(spider_node, "replay", "spider.checkpoint.replay")
    w(spider_checkpoint, "apply_entry", None,
      after=_count("spider.checkpoint.replayed_entries"))
    w(ProofGenerator, "reconstruct", "spider.proofgen.reconstruct",
      before=_reconstruct_seen, after=_reconstruct_after)
    w(ProofGenerator, "proofs_for", "spider.proofgen.proofs_for",
      after=_count("spider.proofgen.proofs",
                   lambda a, r: r.proof_count()))
    w(Checker, "check", "spider.checker.check", after=_check_report)
    # store
    w(SegmentedLogStore, "append", "store.seglog.append")
    w(SegmentedLogStore, "sync", "store.seglog.sync")
    # crypto
    w(Signer, "sign", "crypto.signatures.sign",
      after=_count("crypto.signatures.payloads"))
    w(Signer, "sign_batch", "crypto.signatures.sign",
      after=_sign_batch_payloads)
    w(Verifier, "verify", "crypto.signatures.verify")
    w(Rc4Csprng, "__init__", "crypto.rc4.init")
    w(Rc4Csprng, "bitstrings", "crypto.rc4.draw",
      after=_count("crypto.rc4.bytes", lambda a, r: 20 * len(r)))
    # commitment construction: bits, tree, labeling, pool, proofs
    w(spider_recorder, "compute_bits", "core.bits.compute")
    w(mtt_tree.Mtt, "build", "mtt.tree.build")
    w(mtt_tree.FlatSchedule, "__init__", "mtt.tree.schedule",
      after=_count("mtt.tree.nodes", lambda a, r: a[0].n_slots))
    for module in (spider_recorder, spider_proofgen):
        w(module, "label_tree_with_workers", "mtt.labeling.label",
          after=_count("mtt.labeling.hashes", lambda a, r: r.hash_count))
    w(LabelPool, "label", "mtt.pool.label")
    w(spider_proofgen, "generate_proof", "mtt.proofs.generate")
    w(spider_checker, "verify_proof", "mtt.proofs.verify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: Tracer, rounds: int,
                      extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures, as totals per timed round of the workload.

    A round is one commit on commit-steady, one burst on
    announce-stream and one commit-plus-verification on verify-churn.
    Times are self times unless the name says otherwise; ratios and
    ``mtt.pool.calls`` are over the whole traced phase.
    """
    n = max(rounds, 1)

    def s(name: str) -> float:
        return t.self_s.get(name, 0.0) / n

    def c(name: str) -> float:
        return t.calls.get(name, 0) / n

    def k(name: str) -> float:
        return t.counts.get(name, 0.0) / n

    sec, cnt, ratio = "s", "count", "ratio"
    m: Dict[str, Tuple[float, str]] = {
        "core.bits.s": (s("core.bits.compute"), sec),
        "core.bits.prefixes": (c("core.bits.compute"), cnt),
        "mtt.tree.build_s": (s("mtt.tree.build"), sec),
        "mtt.tree.nodes": (k("mtt.tree.nodes"), cnt),
        "mtt.tree.schedule_cold_s": (s("mtt.tree.schedule"), sec),
        "mtt.labeling.s": (t.total_s.get("mtt.labeling.label", 0.0) / n,
                           sec),
        "mtt.labeling.hash_s": (s("mtt.labeling.label"), sec),
        "mtt.labeling.hashes": (k("mtt.labeling.hashes"), cnt),
        "crypto.rc4.s": (s("crypto.rc4.draw") + s("crypto.rc4.init"), sec),
        "crypto.rc4.bytes": (k("crypto.rc4.bytes"), "B"),
        "mtt.pool.calls": (float(t.calls.get("mtt.pool.label", 0)), cnt),
        "crypto.signatures.sign_s": (s("crypto.signatures.sign"), sec),
        "crypto.signatures.sign_calls": (
            t.outer_calls.get("crypto.signatures.sign", 0) / n, cnt),
        "crypto.signatures.signed_payloads": (
            k("crypto.signatures.payloads"), cnt),
        "crypto.signatures.verify_s": (s("crypto.signatures.verify"), sec),
        "crypto.signatures.verify_calls": (
            c("crypto.signatures.verify"), cnt),
        "mtt.proofs.generate_s": (s("mtt.proofs.generate"), sec),
        "mtt.proofs.generated": (c("mtt.proofs.generate"), cnt),
        "mtt.proofs.verify_s": (s("mtt.proofs.verify"), sec),
        "mtt.proofs.verified": (c("mtt.proofs.verify"), cnt),
        "mtt.proofs.digest_cache_hit_ratio": (_ratio(
            t.counts.get("mtt.proofs.digest_hits", 0.0),
            t.counts.get("mtt.proofs.digest_lookups", 0.0)), ratio),
        "spider.proofgen.reconstruct_s": (
            s("spider.proofgen.reconstruct"), sec),
        "spider.proofgen.reconstructions": (
            k("spider.proofgen.rebuilds"), cnt),
        "spider.proofgen.cache_hit_ratio": (_ratio(
            t.counts.get("spider.proofgen.requests", 0.0)
            - t.counts.get("spider.proofgen.rebuilds", 0.0),
            t.counts.get("spider.proofgen.requests", 0.0)), ratio),
        "spider.proofgen.proofs_for_s": (
            s("spider.proofgen.proofs_for"), sec),
        "spider.proofgen.proofs": (k("spider.proofgen.proofs"), cnt),
        "spider.checkpoint.replay_s": (s("spider.checkpoint.replay"), sec),
        "spider.checkpoint.replayed_entries": (
            k("spider.checkpoint.replayed_entries"), cnt),
        "spider.checker.check_s": (s("spider.checker.check"), sec),
        "spider.checker.proofs_checked": (
            k("spider.checker.proofs_checked"), cnt),
        "spider.recorder.commit_self_s": (s("spider.recorder.commit"), sec),
        "spider.recorder.entries_s": (s("spider.recorder.entries"), sec),
        "spider.recorder.flush_s": (s("spider.recorder.flush"), sec),
        "spider.recorder.receive_s": (s("spider.recorder.receive"), sec),
        "spider.recorder.received": (c("spider.recorder.receive"), cnt),
        "spider.log.append_s": (s("spider.log.append"), sec),
        "spider.log.appends": (c("spider.log.append"), cnt),
        "spider.log.sync_s": (s("spider.log.sync"), sec),
        "runtime.codec.encode_s": (s("runtime.codec.encode"), sec),
        "runtime.codec.decode_s": (s("runtime.codec.decode"), sec),
        "runtime.codec.messages": (c("runtime.codec.encode"), cnt),
        "runtime.codec.bytes": (k("runtime.codec.bytes"), "B"),
        "runtime.transport.send_s": (s("runtime.transport.send"), sec),
        "runtime.transport.deliver_s": (s("runtime.transport.deliver"), sec),
        "runtime.transport.frames": (c("runtime.codec.decode"), cnt),
        "runtime.node_runtime.self_s": (sum(
            v for name, v in t.self_s.items()
            if name.startswith("runtime.node_runtime.")) / n, sec),
        "runtime.node_runtime.deliver_pending_s": (
            s("runtime.node_runtime.deliver_pending"), sec),
        "runtime.node_runtime.inbox_depth_max": (
            t.maxima.get("runtime.node_runtime.inbox_depth", 0.0), cnt),
        "runtime.delivery.tracked": (extra["delivery_tracked"] / n, cnt),
        "runtime.delivery.retry_ratio": (_ratio(
            extra["delivery_retries"], extra["delivery_tracked"]), ratio),
        "store.seglog.append_s": (s("store.seglog.append"), sec),
        "store.seglog.appends": (c("store.seglog.append"), cnt),
        "store.seglog.bytes": (extra["store_bytes"] / n, "B"),
        "store.seglog.sync_s": (s("store.seglog.sync"), sec),
        "store.seglog.syncs": (c("store.seglog.sync"), cnt),
        "workload.same_prefix_set_share": (
            extra["same_prefix_set_share"], ratio),
    }
    for path in PATHS:
        ops = t.ops.get(path, 0)
        figure = t.figure_s.get(path, 0.0)
        m[f"trace.{path}.figure_s"] = (_ratio(figure, ops), sec)
        m[f"trace.{path}.attributed_share"] = (
            _ratio(t.layer_self_s.get(path, 0.0), figure), ratio)
        m[f"trace.{path}.overhead_s"] = (
            extra.get(f"overhead.{path}", 0.0), sec)
    return m

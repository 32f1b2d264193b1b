"""Direct unit tests for the fault-injection primitives.

The campaign engine exercises these end to end; here each injector is
pinned in isolation so a regression points at the primitive, not at a
whole adversarial scenario.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.core.verdict import FaultKind
from repro.faults.adversaries import FEED_ASN, FILLER_PREFIX, GOOD_PREFIX
from repro.faults.injector import AckWithholdingRecorder, \
    EquivocatingRecorder, FilteringRecorder, install_export_filter, \
    install_export_leak, install_export_mutator, install_import_filter, \
    shorten_as_path, tamper_bit_proof, tamper_log_entry, \
    tamper_proof_set
from repro.netsim.network import Network, TraceEvent
from repro.netsim.topology import FOCUS_AS, INJECTION_AS, \
    figure5_topology
from repro.spider.config import SpiderConfig
from repro.spider.log import TamperError
from repro.spider.node import SpiderDeployment

OTHER_PREFIX = Prefix.parse("198.51.100.0/24")

_CONFIG = SpiderConfig(commit_interval=60.0)


def build(recorder_factories=None):
    network = Network(figure5_topology())
    deployment = SpiderDeployment(network, config=_CONFIG,
                                  recorder_factories=recorder_factories)
    network.attach_feed(INJECTION_AS, feed_asn=FEED_ASN)
    return network, deployment


def good_route_workload(network):
    network.originate(9, GOOD_PREFIX)
    network.settle()


# ----------------------------------------------------------------------
# FilteringRecorder


def _filtering_factory(**overrides):
    def factory(*args, **kwargs):
        return FilteringRecorder(*args, drop_from=7, **overrides,
                                 **kwargs)
    return {FOCUS_AS: factory}


def test_filtering_recorder_drops_but_still_acks():
    network, deployment = build(_filtering_factory())
    good_route_workload(network)
    recorder = deployment.node(FOCUS_AS).recorder
    assert recorder.dropped, "the filtered announce was never seen"
    assert all(m.sender == 7 for m in recorder.dropped)
    # The stealthy part: AS 7 got its ACKs, so no T_max sweep fires.
    assert deployment.node(7).recorder.overdue_acks() == []
    assert deployment.sweep_overdue_acks() == []
    # And the committed view really is missing the route.
    commit = deployment.commit_now(FOCUS_AS)
    view = deployment.node(FOCUS_AS).view_at(commit.commit_time)
    assert GOOD_PREFIX not in view.imports.get(7, {})


def test_filtering_recorder_prefix_scoping():
    network, deployment = build(
        _filtering_factory(drop_prefixes={OTHER_PREFIX}))
    good_route_workload(network)
    # Only OTHER_PREFIX (never announced) is in scope: nothing dropped.
    assert deployment.node(FOCUS_AS).recorder.dropped == []


def test_filtering_recorder_respects_active_from():
    network, deployment = build(
        _filtering_factory(active_from=1e9))
    good_route_workload(network)
    assert deployment.node(FOCUS_AS).recorder.dropped == []


# ----------------------------------------------------------------------
# AckWithholdingRecorder


def test_ack_withholding_trips_the_tmax_sweep():
    def factory(*args, **kwargs):
        return AckWithholdingRecorder(*args, withhold_from={7},
                                      **kwargs)

    network, deployment = build({FOCUS_AS: factory})
    good_route_workload(network)
    recorder = deployment.node(FOCUS_AS).recorder
    assert recorder.withheld, "nothing was withheld"
    network.run_until(network.sim.now + _CONFIG.ack_timeout + 2.0)
    records = deployment.sweep_overdue_acks()
    assert [(r.detector, r.accused, r.kind) for r in records] == \
        [(7, FOCUS_AS, FaultKind.MISSING_MESSAGE)]


# ----------------------------------------------------------------------
# EquivocatingRecorder


def test_equivocating_recorder_detected_by_lied_to_neighbor():
    def factory(*args, **kwargs):
        return EquivocatingRecorder(*args, lie_to={7}, **kwargs)

    network, deployment = build({FOCUS_AS: factory})
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    network.settle()
    lied_to = deployment.node(7).detections
    assert any(r.kind is FaultKind.EQUIVOCATION and
               r.accused == FOCUS_AS for r in lied_to)
    # A neighbor that saw only one root has nothing to report.
    assert deployment.node(8).detections == []


# ----------------------------------------------------------------------
# Speaker-side injectors


def test_install_import_filter_really_drops_the_route():
    network, deployment = build()
    install_import_filter(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: route.prefix == GOOD_PREFIX)
    good_route_workload(network)
    assert network.speaker(FOCUS_AS).best(GOOD_PREFIX) is None
    # Nothing to select means nothing to pass on to AS 8.
    assert network.speaker(8).received_from(FOCUS_AS,
                                            GOOD_PREFIX) is None


def test_install_export_filter_suppresses_one_neighbor():
    network, deployment = build()
    install_export_filter(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: route.prefix == GOOD_PREFIX and
        neighbor == 8)
    good_route_workload(network)
    speaker = network.speaker(FOCUS_AS)
    assert speaker.best(GOOD_PREFIX) is not None
    assert speaker.advertised_to(8, GOOD_PREFIX) is None
    # Other neighbors still get the customer route (Gao-Rexford).
    assert speaker.advertised_to(4, GOOD_PREFIX) is not None


def test_install_export_leak_sends_provider_routes_upstream():
    def filler(network):
        network.schedule_trace(FEED_ASN, [
            TraceEvent(1.0, FILLER_PREFIX, (FEED_ASN, 4000, 4001)),
        ])
        network.settle()

    # Honest valley-free baseline: the provider-learned FILLER route
    # never goes back up to a provider.
    network, _deployment = build()
    filler(network)
    assert network.speaker(FOCUS_AS).best(FILLER_PREFIX) is not None
    assert network.speaker(FOCUS_AS).advertised_to(
        6, FILLER_PREFIX) is None

    network, _deployment = build()
    install_export_leak(network.speaker(FOCUS_AS))
    filler(network)
    assert network.speaker(FOCUS_AS).advertised_to(
        6, FILLER_PREFIX) is not None


def test_shorten_as_path_collapses_to_exporter_and_origin():
    network, deployment = build()
    install_export_mutator(
        network.speaker(FOCUS_AS),
        lambda route, neighbor: shorten_as_path(route)
        if route.prefix == GOOD_PREFIX else route)
    good_route_workload(network)
    # The true path 5-7-9 arrives at the provider as 5-9.
    received = network.speaker(4).received_from(FOCUS_AS, GOOD_PREFIX)
    assert received is not None
    assert received.as_path == (FOCUS_AS, 9)


def test_shorten_as_path_is_identity_on_short_paths():
    network, _deployment = build()
    good_route_workload(network)
    short = network.speaker(7).received_from(9, GOOD_PREFIX)
    assert short is not None and len(short.as_path) <= 2
    assert shorten_as_path(short) is short


# ----------------------------------------------------------------------
# Proof and log tampering


@pytest.fixture(scope="module")
def verified_world():
    network, deployment = build()
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    outcomes = deployment.verify(FOCUS_AS)
    assert deployment.all_clean(outcomes)
    return network, deployment, outcomes


def _an_outcome_with_producer_proofs(outcomes):
    for outcome in outcomes:
        if outcome.proofs.producer_proofs:
            return outcome
    raise AssertionError("no outcome carried producer proofs")


def test_tamper_bit_proof_flips_only_the_bit(verified_world):
    _network, deployment, outcomes = verified_world
    outcome = _an_outcome_with_producer_proofs(outcomes)
    prefix, message = next(iter(
        sorted(outcome.proofs.producer_proofs.items(), key=str)))
    signer = deployment.node(FOCUS_AS).recorder.signer
    tampered = tamper_bit_proof(signer, message)
    assert tampered.proof.bit == 1 - message.proof.bit
    assert tampered.proof.prefix == prefix
    assert tampered.proof.steps == message.proof.steps
    assert tampered.proof.blinding == message.proof.blinding
    # The lie is freshly signed: only Merkle arithmetic can expose it.
    assert tampered.valid(deployment.node(FOCUS_AS).recorder.registry)


def test_tamper_proof_set_scopes_to_the_prefix(verified_world):
    _network, deployment, outcomes = verified_world
    outcome = _an_outcome_with_producer_proofs(outcomes)
    prefix = next(iter(
        sorted(outcome.proofs.producer_proofs, key=str)))
    signer = deployment.node(FOCUS_AS).recorder.signer
    doctored = tamper_proof_set(signer, outcome.proofs, prefix)
    for p, message in doctored.producer_proofs.items():
        original = outcome.proofs.producer_proofs[p]
        if p == prefix:
            assert message.proof.bit != original.proof.bit
        else:
            assert message is original
    for p, messages in doctored.consumer_proofs.items():
        originals = outcome.proofs.consumer_proofs[p]
        if p != prefix:
            assert messages == originals


def test_tamper_log_entry_breaks_the_hash_chain():
    network, deployment = build()
    good_route_workload(network)
    deployment.commit_now(FOCUS_AS)
    log = deployment.node(FOCUS_AS).recorder.log
    log.verify_chain()  # sanity: intact before tampering
    tampered = tamper_log_entry(log, -1)
    assert tampered is list(log)[-1]
    with pytest.raises(TamperError):
        log.verify_chain()

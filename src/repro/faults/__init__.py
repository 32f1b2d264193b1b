"""Fault injection: the attack classes and their primitives, the §7.4
functionality check pinned as campaign specs (``SEC74_SPECS``), and the
seeded adversarial campaign engine with its differential
SPIDeR↔NetReview oracle (``python -m repro.faults.campaign``)."""

from .adversaries import ATTACK_CLASSES, AckWithholdingAdversary, \
    Adversary, AttackSpec, CollusionAdversary, DetectResult, \
    EquivocationAdversary, InterceptionAdversary, LeakPromises, \
    ProofTamperAdversary, RouteDropAdversary, RouteLeakAdversary, \
    SEC74_SPECS, World, WrongfulExportAdversary, adversary_for, \
    standard_workload
# The campaign runner (.campaign) is a CLI module and is deliberately
# not imported here, like obs.dump and store.inspect: import it as
# repro.faults.campaign, or run python -m repro.faults.campaign.
from .injector import AckWithholdingNetReviewRecorder, \
    AckWithholdingRecorder, EquivocatingNetReviewRecorder, \
    EquivocatingRecorder, FilteringNetReviewRecorder, FilteringRecorder, \
    install_export_filter, install_export_leak, install_export_mutator, \
    install_import_filter, shorten_as_path, tamper_bit_proof, \
    tamper_log_entry, tamper_proof_set
from .oracle import PrivacyReport, SystemExpectation, check_clean, \
    check_detections, check_privacy, detectors

__all__ = [
    "ATTACK_CLASSES", "AckWithholdingAdversary", "Adversary",
    "AttackSpec", "CollusionAdversary", "DetectResult",
    "EquivocationAdversary", "InterceptionAdversary", "LeakPromises",
    "ProofTamperAdversary", "RouteDropAdversary", "RouteLeakAdversary",
    "SEC74_SPECS", "World", "WrongfulExportAdversary", "adversary_for",
    "standard_workload",
    "AckWithholdingNetReviewRecorder", "AckWithholdingRecorder",
    "EquivocatingNetReviewRecorder", "EquivocatingRecorder",
    "FilteringNetReviewRecorder", "FilteringRecorder",
    "install_export_filter", "install_export_leak",
    "install_export_mutator", "install_import_filter",
    "shorten_as_path", "tamper_bit_proof", "tamper_log_entry",
    "tamper_proof_set",
    "PrivacyReport", "SystemExpectation", "check_clean",
    "check_detections", "check_privacy", "detectors",
]

"""SPIDeR — Secure and Private Inter-Domain Routing (Section 6).

The companion protocol to BGP: recorders mirror the BGP message flow with
signatures and acknowledgments, commit periodically to the full routing
state via one MTT root, and reconstruct past state from a tamper-evident
log to answer verification requests.
"""

from .checker import Checker, CheckReport
from .checkpoint import RoutingState, apply_entry, replay, take_checkpoint
from .config import SpiderConfig
from .evidence import CommitmentEquivocationPoM, ExportEvidence, \
    ImportEvidence, MissingAckEvidence, \
    commitment_equivocation_valid, export_evidence_valid, \
    import_evidence_valid, missing_ack_evidence_valid, refute_export, \
    refute_import
from .extended import ExtendedVerificationResult, producer_reannounces, \
    run_extended_verification
from .promises import GaoRexfordPromises, GaoRexfordScheme
from .log import EntryKind, LogEntry, SpiderLog, TamperError
from .node import EVALUATION_CLASSES, PROOF_TRAFFIC, SPIDER_TRAFFIC, \
    SpiderDeployment, SpiderNode, VerificationOutcome, evaluation_scheme
from .proofgen import ProofGenerator, ProofSet, Reconstruction
from .recorder import CommitmentOrderError, CommitmentRecord, Recorder
from .windows import RouteChange, admissible_inputs, choose_input, \
    stable_in_window, value_at
from .wire import SpiderAck, SpiderAnnounce, SpiderBitProof, \
    SpiderCommitment, SpiderWithdraw, sign_route

__all__ = [
    "Checker", "CheckReport",
    "RoutingState", "apply_entry", "replay", "take_checkpoint",
    "SpiderConfig",
    "CommitmentEquivocationPoM", "ExportEvidence", "ImportEvidence",
    "MissingAckEvidence",
    "commitment_equivocation_valid", "export_evidence_valid",
    "import_evidence_valid", "missing_ack_evidence_valid",
    "refute_export", "refute_import",
    "ExtendedVerificationResult", "producer_reannounces",
    "run_extended_verification",
    "GaoRexfordPromises", "GaoRexfordScheme",
    "EntryKind", "LogEntry", "SpiderLog", "TamperError",
    "EVALUATION_CLASSES", "PROOF_TRAFFIC", "SPIDER_TRAFFIC",
    "SpiderDeployment", "SpiderNode", "VerificationOutcome",
    "evaluation_scheme",
    "ProofGenerator", "ProofSet", "Reconstruction",
    "CommitmentOrderError", "CommitmentRecord", "Recorder",
    "RouteChange", "admissible_inputs", "choose_input",
    "stable_in_window", "value_at",
    "SpiderAck", "SpiderAnnounce", "SpiderBitProof", "SpiderCommitment",
    "SpiderWithdraw", "sign_route",
]

"""The spiderlint rule catalogue.

=========  ============================================================
SPDR001    Determinism: no ambient wall-clock or entropy outside the
           entropy/clock-owning modules; no iteration over bare sets in
           wire/codec/MTT code (set order is salted per process).
SPDR002    Crypto hygiene: digest/signature/label/payload comparisons
           must go through ``repro.crypto.hashing.constant_time_eq``,
           never bare ``==``/``!=``.
SPDR003    Decoder discipline: ``from_bytes``/``decode_*`` functions in
           wire modules must bounds-check before indexing and must not
           leak ``IndexError``/``struct.error``.
SPDR004    Obs naming: metric/span names written to the ``repro.obs``
           registry must be literals declared in ``repro.obs.names``.
SPDR005    Wire-dataclass discipline: message dataclasses in wire
           modules declare ``frozen=True, slots=True``.
=========  ============================================================

SPDR006 (privacy flow) and SPDR008 (exception hygiene) are
whole-program dataflow rules and live in :mod:`repro.analysis.taint`;
run them with ``python -m repro.analysis --engine dataflow``.
"""

from __future__ import annotations

from typing import List

from ..engine import Rule
from .determinism import DeterminismRule
from .crypto_hygiene import CryptoHygieneRule
from .decoders import DecoderDisciplineRule
from .obs_names import ObsNamingRule
from .wire_dataclasses import WireDataclassRule


def all_rules() -> List[Rule]:
    """Fresh instances of every registered per-file rule, id-sorted."""
    rules: List[Rule] = [
        DeterminismRule(),
        CryptoHygieneRule(),
        DecoderDisciplineRule(),
        ObsNamingRule(),
        WireDataclassRule(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)


__all__ = [
    "DeterminismRule",
    "CryptoHygieneRule",
    "DecoderDisciplineRule",
    "ObsNamingRule",
    "WireDataclassRule",
    "all_rules",
]

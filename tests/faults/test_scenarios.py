"""The §7.4 functionality checks, one claim per test, on the pinned
campaign specs: every fault is detected by the right party, and the
honest control worlds stay clean.

The clean baseline is the control world of the route-drop spec (the
same Figure 5 network with AS 5 honest); the fixed export policy is the
control world of the wrongful-export spec.  The equivocation spec is
checked in ``test_campaign.test_sec74_spec_matches_the_paper``.
"""

import pytest

from repro.core.verdict import FaultKind
from repro.faults.adversaries import SEC74_SPECS, adversary_for
from repro.faults.campaign import run_spec
from repro.faults.oracle import detectors


@pytest.fixture(scope="module")
def runs():
    return {spec.attack: run_spec(adversary_for(spec.attack), spec)
            for spec in SEC74_SPECS if spec.attack != "equivocation"}


def _detected(result):
    return bool(result.spider or result.netreview)


class TestCleanBaseline:
    def test_no_detection(self, runs):
        assert not _detected(runs["route-drop"].control)

    def test_all_neighbors_checked(self, runs):
        outcomes = runs["route-drop"].control.outcomes
        assert sorted(o.neighbor for o in outcomes) == [2, 4, 6, 7, 8]


class TestOveraggressiveFilter:
    """Fault 1: 'the upstream AS raised an alarm because it did not
    receive a bit proof for the route it had supplied'."""

    def test_detected(self, runs):
        assert runs["route-drop"].ok
        assert _detected(runs["route-drop"].faulty)

    def test_upstream_as_detects(self, runs):
        assert 7 in detectors(runs["route-drop"].faulty.spider)

    def test_detection_is_about_the_missing_input(self, runs):
        kinds = detectors(runs["route-drop"].faulty.spider)[7]
        assert kinds == {FaultKind.MISSING_PROOF}

    def test_downstreams_do_not_false_alarm(self, runs):
        # Consumers see a consistent (if degraded) world; the producer is
        # the designated detector for this fault.
        assert set(detectors(runs["route-drop"].faulty.spider)) == {7}


class TestWronglyExporting:
    """Fault 2: 'the downstream AS noticed that it had a bit proof for
    the null route, which was better than the route it had actually
    received'."""

    def test_detected(self, runs):
        assert runs["wrongful-export"].ok
        assert _detected(runs["wrongful-export"].faulty)

    def test_downstream_ases_detect(self, runs):
        assert set(detectors(runs["wrongful-export"].faulty.spider)) == \
            {7, 8}

    def test_kind_is_broken_promise(self, runs):
        for kinds in detectors(
                runs["wrongful-export"].faulty.spider).values():
            assert FaultKind.BROKEN_PROMISE in kinds

    def test_fixed_policy_is_clean(self, runs):
        assert not _detected(runs["wrongful-export"].control)


class TestTamperedBitProof:
    """Fault 3: 'the downstream AS detected that the proof did not match
    the hash value from the commitment'."""

    def test_detected(self, runs):
        assert runs["proof-tamper"].ok
        assert _detected(runs["proof-tamper"].faulty)

    def test_tampered_recipient_sees_invalid_proof(self, runs):
        kinds = detectors(runs["proof-tamper"].faulty.spider)[8]
        assert FaultKind.INVALID_PROOF in kinds


class TestAllFaultsDetectedExactlyLikeThePaper:
    def test_summary(self, runs):
        """The §7.4 headline: 'in each case the fault was detected by
        one of the ASes'."""
        for name, run in runs.items():
            assert _detected(run.faulty), f"{name} went undetected"
            assert not _detected(run.control), f"{name} false-positived"

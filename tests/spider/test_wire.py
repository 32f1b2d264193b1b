"""Tests for SPIDeR wire messages: signing, validation, tampering."""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.crypto.keys import KeyRegistry, make_identity
from repro.crypto.signatures import Signer
from repro.mtt.labeling import label_tree_with_workers
from repro.mtt.proofs import generate_proof
from repro.mtt.tree import Mtt
from repro.crypto.rc4 import Rc4Csprng
from repro.spider.wire import SpiderAck, SpiderAnnounce, SpiderCommitment, \
    SpiderBitProof, SpiderWithdraw, sign_route

P = Prefix.parse("203.0.113.0/24")


@pytest.fixture(scope="module")
def registry():
    return KeyRegistry()


@pytest.fixture(scope="module")
def alice(registry):
    return make_identity(11, registry=registry, bits=512, seed=501)


@pytest.fixture(scope="module")
def bob(registry):
    return make_identity(12, registry=registry, bits=512, seed=502)


def route(path=(11, 9)):
    return Route(prefix=P, as_path=tuple(path), neighbor=path[0])


class TestSpiderAnnounce:
    def test_roundtrip(self, registry, alice):
        msg = SpiderAnnounce.make(Signer(alice), receiver=12,
                                  timestamp=10.0, route=route(),
                                  underlying=None)
        assert msg.valid(registry)
        assert msg.prefix == P

    def test_carries_underlying_signature(self, registry, alice, bob):
        underlying = sign_route(Signer(bob), route(path=(12, 9)))
        msg = SpiderAnnounce.make(Signer(alice), receiver=12,
                                  timestamp=10.0,
                                  route=route(path=(11, 12, 9)),
                                  underlying=underlying)
        assert msg.valid(registry)

    def test_tampered_route_rejected(self, registry, alice):
        import dataclasses
        msg = SpiderAnnounce.make(Signer(alice), receiver=12,
                                  timestamp=10.0, route=route(),
                                  underlying=None)
        forged = dataclasses.replace(msg, route=route(path=(11, 8)))
        assert not forged.valid(registry)

    def test_tampered_timestamp_rejected(self, registry, alice):
        import dataclasses
        msg = SpiderAnnounce.make(Signer(alice), receiver=12,
                                  timestamp=10.0, route=route(),
                                  underlying=None)
        forged = dataclasses.replace(msg, timestamp=99.0)
        assert not forged.valid(registry)

    def test_reannounce_distinct_from_announce(self, registry, alice):
        """§6.6: RE-ANNOUNCEs cannot substitute for originals."""
        import dataclasses
        original = SpiderAnnounce.make(Signer(alice), receiver=12,
                                       timestamp=10.0, route=route(),
                                       underlying=None)
        relabeled = dataclasses.replace(original, reannounce=True)
        assert not relabeled.valid(registry)
        genuine_re = SpiderAnnounce.make(Signer(alice), receiver=12,
                                         timestamp=10.0, route=route(),
                                         underlying=None, reannounce=True)
        assert genuine_re.valid(registry)

    def test_message_hash_changes_with_content(self, alice):
        a = SpiderAnnounce.make(Signer(alice), 12, 10.0, route(), None)
        b = SpiderAnnounce.make(Signer(alice), 12, 11.0, route(), None)
        assert a.message_hash() != b.message_hash()

    def test_negative_timestamp_rejected(self, alice):
        """Timestamps double as nonces; a negative one has no place on
        the millisecond grid and must fail fast at signing time."""
        with pytest.raises(ValueError, match="negative timestamp"):
            SpiderAnnounce.make(Signer(alice), receiver=12,
                                timestamp=-0.001, route=route(),
                                underlying=None)

    def test_wire_size_counts_signatures(self, alice, bob):
        plain = SpiderAnnounce.make(Signer(alice), 12, 10.0, route(),
                                    None)
        underlying = sign_route(Signer(bob), route(path=(12, 9)))
        nested = SpiderAnnounce.make(Signer(alice), 12, 10.0,
                                     route(path=(11, 12, 9)), underlying)
        assert nested.wire_size() > plain.wire_size()


class TestSpiderWithdrawAndAck:
    def test_withdraw_roundtrip(self, registry, alice):
        msg = SpiderWithdraw.make(Signer(alice), receiver=12,
                                  timestamp=20.0, prefix=P)
        assert msg.valid(registry)

    def test_withdraw_tamper_rejected(self, registry, alice):
        import dataclasses
        msg = SpiderWithdraw.make(Signer(alice), 12, 20.0, P)
        forged = dataclasses.replace(
            msg, prefix=Prefix.parse("10.0.0.0/8"))
        assert not forged.valid(registry)

    def test_ack_roundtrip(self, registry, alice, bob):
        announce = SpiderAnnounce.make(Signer(alice), 12, 10.0, route(),
                                       None)
        ack = SpiderAck.make(Signer(bob), sender=11, timestamp=10.1,
                             message_hash=announce.message_hash())
        assert ack.valid(registry)
        assert ack.message_hash == announce.message_hash()

    def test_ack_wrong_hash_detectable(self, registry, alice, bob):
        ack = SpiderAck.make(Signer(bob), sender=11, timestamp=10.1,
                             message_hash=b"x" * 20)
        assert ack.valid(registry)  # validly signed...
        announce = SpiderAnnounce.make(Signer(alice), 12, 10.0, route(),
                                       None)
        assert ack.message_hash != announce.message_hash()  # ...but
        # does not acknowledge this message.


class TestCommitmentAndProofMessages:
    def test_commitment_roundtrip(self, registry, alice):
        msg = SpiderCommitment.make(Signer(alice), commit_time=60.0,
                                    root=b"r" * 20)
        assert msg.valid(registry)

    def test_commitment_tamper_rejected(self, registry, alice):
        import dataclasses
        msg = SpiderCommitment.make(Signer(alice), 60.0, b"r" * 20)
        forged = dataclasses.replace(msg, root=b"s" * 20)
        assert not forged.valid(registry)

    def test_bit_proof_roundtrip(self, registry, alice):
        tree = Mtt.build({P: [1, 0]})
        label_tree_with_workers(tree, Rc4Csprng(b"s"))
        proof = generate_proof(tree, P, 0)
        msg = SpiderBitProof.make(Signer(alice), recipient=12,
                                  commit_time=60.0, proof=proof)
        assert msg.valid(registry)

    def test_bit_proof_recipient_bound(self, registry, alice):
        import dataclasses
        tree = Mtt.build({P: [1, 0]})
        label_tree_with_workers(tree, Rc4Csprng(b"s"))
        proof = generate_proof(tree, P, 0)
        msg = SpiderBitProof.make(Signer(alice), 12, 60.0, proof)
        forged = dataclasses.replace(msg, recipient=13)
        assert not forged.valid(registry)

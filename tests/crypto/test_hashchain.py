"""Tests for hash chains and freshness verification."""

import pytest

from repro.crypto import hashchain
from repro.crypto.hashchain import HashChain, chain_apply, statement_age, verify_freshness
from repro.crypto.hashing import hash_chain_link
from repro.errors import HashChainError


class TestChainApply:
    def test_zero_applications_is_identity(self):
        assert chain_apply(b"seed", 0) == b"seed"

    def test_one_application_matches_link(self):
        assert chain_apply(b"seed", 1) == hash_chain_link(b"seed")

    def test_composition(self):
        assert chain_apply(chain_apply(b"seed", 2), 3) == chain_apply(b"seed", 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chain_apply(b"seed", -1)


class TestHashChain:
    def test_anchor_is_m_applications_of_seed(self):
        chain = HashChain(length=5, seed=b"\x01" * 32)
        assert chain.anchor == chain_apply(b"\x01" * 32, 5)

    def test_statement_zero_is_anchor(self):
        chain = HashChain(length=5)
        assert chain.statement(0) == chain.anchor

    def test_statement_m_is_seed(self):
        chain = HashChain(length=5, seed=b"\x02" * 32)
        assert chain.statement(5) == b"\x02" * 32

    def test_each_statement_hashes_to_previous(self):
        chain = HashChain(length=8)
        for period in range(1, 9):
            assert hash_chain_link(chain.statement(period)) == chain.statement(period - 1)

    def test_out_of_range_statement_rejected(self):
        chain = HashChain(length=3)
        with pytest.raises(HashChainError):
            chain.statement(4)
        with pytest.raises(HashChainError):
            chain.statement(-1)

    def test_remaining(self):
        chain = HashChain(length=10)
        assert chain.remaining(0) == 10
        assert chain.remaining(10) == 0
        assert chain.remaining(15) == 0

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            HashChain(length=0)

    def test_random_seeds_differ(self):
        assert HashChain(length=3).anchor != HashChain(length=3).anchor


class TestVerifyFreshness:
    def test_current_statement_verifies(self):
        chain = HashChain(length=10)
        for period in range(0, 10):
            assert verify_freshness(chain.anchor, chain.statement(period), period, chain.length)

    def test_tolerance_accepts_one_period_newer(self):
        chain = HashChain(length=10)
        # Verifier believes 3 periods elapsed but CA already released period 4.
        assert verify_freshness(chain.anchor, chain.statement(4), 3, chain.length)

    def test_tolerance_accepts_one_period_older(self):
        chain = HashChain(length=10)
        # Verifier believes 3 periods elapsed; the CDN still serves period 2.
        assert verify_freshness(chain.anchor, chain.statement(2), 3, chain.length)

    def test_statement_older_than_required_is_rejected(self):
        chain = HashChain(length=10)
        # Only 2 periods released, but verifier expects at least 4.
        assert not verify_freshness(chain.anchor, chain.statement(2), 4, chain.length)

    def test_statement_two_periods_ahead_is_rejected(self):
        chain = HashChain(length=10)
        assert not verify_freshness(chain.anchor, chain.statement(5), 3, chain.length)

    def test_the_seed_is_fresh_until_one_period_past_the_chain(self):
        chain = HashChain(length=4)
        assert verify_freshness(chain.anchor, chain.statement(4), 5, chain.length)
        assert not verify_freshness(chain.anchor, chain.statement(4), 6, chain.length)

    def test_forged_statement_rejected(self):
        chain = HashChain(length=10)
        assert not verify_freshness(chain.anchor, b"\x00" * 20, 3, chain.length)

    def test_wrong_anchor_rejected(self):
        chain_a = HashChain(length=10)
        chain_b = HashChain(length=10)
        assert not verify_freshness(chain_b.anchor, chain_a.statement(2), 2, chain_b.length)

    def test_negative_elapsed_rejected(self):
        chain = HashChain(length=4)
        assert not verify_freshness(chain.anchor, chain.statement(0), -1, chain.length)

    @pytest.mark.parametrize("elapsed", [0, 3, 9, 40])
    def test_a_forged_value_costs_at_most_p_prime_plus_one_hashes(self, elapsed, monkeypatch):
        chain = HashChain(length=10)
        calls = []
        real = hashchain.hash_chain_link
        monkeypatch.setattr(
            hashchain, "hash_chain_link", lambda value, size: calls.append(1) or real(value, size)
        )
        assert not verify_freshness(chain.anchor, b"\x00" * 20, elapsed, chain.length)
        assert len(calls) == min(elapsed + 1, chain.length)


class TestStatementAge:
    def test_age_of_each_statement(self):
        chain = HashChain(length=6)
        for period in range(0, 7):
            assert statement_age(chain.anchor, chain.statement(period), 6) == period

    def test_unlinked_value_returns_none(self):
        chain = HashChain(length=6)
        assert statement_age(chain.anchor, b"\xff" * 20, 6) is None

    def test_age_beyond_max_periods_returns_none(self):
        chain = HashChain(length=6)
        assert statement_age(chain.anchor, chain.statement(6), 3) is None

"""Tests for the consistent hash H."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.consistent import ConsistentHash


class TestDeterminism:
    def test_same_key_same_value(self):
        h = ConsistentHash(8)
        assert h("cpu") == h("cpu")

    def test_stable_across_instances(self):
        assert ConsistentHash(11)("memory") == ConsistentHash(11)("memory")

    def test_str_and_bytes_agree(self):
        h = ConsistentHash(10)
        assert h("disk") == h(b"disk")

    @given(st.text(max_size=64))
    def test_always_in_range(self, key):
        h = ConsistentHash(9)
        assert 0 <= h(key) < 512


class TestUniformity:
    def test_spread_over_buckets(self):
        """Hashing many keys should touch a large share of a small space."""
        h = ConsistentHash(8)
        hits = {h(f"key-{i}") for i in range(2000)}
        assert len(hits) > 220  # of 256

    def test_chi_square_not_catastrophic(self):
        """Coarse uniformity: no bucket grossly over-represented."""
        h = ConsistentHash(4)  # 16 buckets
        counts = np.zeros(16)
        n = 4800
        for i in range(n):
            counts[h(f"k{i}")] += 1
        expected = n / 16
        assert counts.max() < expected * 1.5
        assert counts.min() > expected * 0.5

    def test_top_bits_used(self):
        """IDs must cover the high end of the space, proving we take the
        top bits of the digest rather than the low ones mod size."""
        h = ConsistentHash(3)
        values = {h(f"{i}") for i in range(100)}
        assert values == set(range(8))


class TestDigest:
    def test_call_matches_digest_top_bits(self):
        h = ConsistentHash(12)
        full = int.from_bytes(hashlib.sha1(b"xyz").digest(), "big")
        assert h("xyz") == full >> (160 - 12)

    @pytest.mark.parametrize("bits", [1, 8, 11, 32, 160])
    def test_all_widths_work(self, bits):
        h = ConsistentHash(bits)
        assert 0 <= h("k") < (1 << bits)

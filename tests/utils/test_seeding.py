"""Tests for deterministic hierarchical seeding."""

from __future__ import annotations

from repro.utils.seeding import SeedFactory


class TestChildSeeds:
    def test_same_label_same_seed(self):
        f = SeedFactory(42)
        assert f.child_seed("a") == f.child_seed("a")

    def test_different_labels_differ(self):
        f = SeedFactory(42)
        assert f.child_seed("a") != f.child_seed("b")

    def test_different_roots_differ(self):
        assert SeedFactory(1).child_seed("a") != SeedFactory(2).child_seed("a")

    def test_reproducible_across_instances(self):
        assert SeedFactory(42).child_seed("x") == SeedFactory(42).child_seed("x")

    def test_seed_is_nonnegative_63bit(self):
        for label in ("a", "workload", "chord", "很长的标签"):
            seed = SeedFactory(123456789).child_seed(label)
            assert 0 <= seed < (1 << 63)


class TestGenerators:
    def test_numpy_streams_reproducible(self):
        g1 = SeedFactory(7).numpy("stream")
        g2 = SeedFactory(7).numpy("stream")
        assert g1.integers(1 << 40) == g2.integers(1 << 40)

    def test_numpy_streams_independent_by_label(self):
        f = SeedFactory(7)
        a = f.numpy("a").integers(1 << 40, size=16)
        b = f.numpy("b").integers(1 << 40, size=16)
        assert list(a) != list(b)

    def test_python_rng_reproducible(self):
        r1 = SeedFactory(9).python("p")
        r2 = SeedFactory(9).python("p")
        assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]

    def test_fork_changes_streams(self):
        f = SeedFactory(11)
        direct = f.numpy("x").integers(1 << 40)
        forked = f.fork("child").numpy("x").integers(1 << 40)
        assert direct != forked

    def test_fork_reproducible(self):
        a = SeedFactory(11).fork("child").child_seed("x")
        b = SeedFactory(11).fork("child").child_seed("x")
        assert a == b

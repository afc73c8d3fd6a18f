"""Tests for argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import require, require_positive


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken invariant"):
            require(False, "broken invariant")


class TestRequirePositive:
    @pytest.mark.parametrize("value", [1, 0.001, 1e12])
    def test_accepts_positive(self, value):
        require_positive(value, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_nonpositive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(value, "x")

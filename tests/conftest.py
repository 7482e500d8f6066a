"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from circle_cs import hilbert


@pytest.fixture
def no_window(monkeypatch):
    """Make building any window array fail the test, so a cap is checked before allocation."""

    def refuse(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(hilbert, "_window", refuse)

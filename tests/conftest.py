"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from circle_cs import hilbert


@pytest.fixture
def no_window(monkeypatch):
    """Make building any window fail the test, so a cap is checked before allocation.

    hilbert._window builds every constant of a window, the operator columns,
    the Gaussian column and the JSON text too: up to 83 KB an entry at the
    widest window, and at most 32 entries, 2.7 MB.
    """

    def refuse(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(hilbert, "_window", refuse)

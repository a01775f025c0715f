"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the n-D transforms that Field makes: {"fftn": k, "ifftn": k}."""
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls

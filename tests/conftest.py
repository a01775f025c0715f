"""Shared fixtures."""

import numpy as np
import pytest

# the n-D transforms that Field makes, and the direction each counts as:
# a real field's rfftn is a forward transform and its irfftn an inverse one
_TRANSFORMS = {"fftn": "fftn", "rfftn": "fftn", "ifftn": "ifftn", "irfftn": "ifftn"}


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the n-D transforms that Field makes by direction:
    {"fftn": forward, "ifftn": inverse}, complex and real alike."""
    calls = {"fftn": 0, "ifftn": 0}
    for name, direction in _TRANSFORMS.items():
        original = getattr(np.fft, name)

        def counted(*args, _direction=direction, _original=original, **kwargs):
            calls[_direction] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls

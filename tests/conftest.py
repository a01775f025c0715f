"""Shared fixtures."""

import numpy as np
import pytest

# the transforms that Field makes, and the direction each counts as: a
# real field's rfftn is a forward transform and its irfftn an inverse
# one, and on a 1-D grid it calls rfft and irfft themselves.  numpy's
# n-D routines call their 1-D ones inside numpy.fft, not through the
# attributes patched here, so no transform is counted twice.
_TRANSFORMS = {"fftn": "fftn", "rfftn": "fftn", "rfft": "fftn",
               "ifftn": "ifftn", "irfftn": "ifftn", "irfft": "ifftn"}


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

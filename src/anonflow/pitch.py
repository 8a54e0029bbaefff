"""Semitone pitch normalization with unvoiced-frame masking."""

from __future__ import annotations

import numpy as np

from .errors import InputError

F_REF = 440.0   # Hz; semitones are counted from it before median-centering


def normalize_pitch(f0_hz) -> np.ndarray:
    """Convert an F0 contour (Hz, 0 = unvoiced) to median-centered semitones.

    Voiced frames map to 12*log2(f0/F_REF) minus the median over voiced
    frames (even counts use the mean of the two central values); unvoiced
    frames are excluded from the median and set to exactly 0.  A contour
    without a voiced frame is an InputError.
    """
    f0 = np.asarray(f0_hz, dtype=float)
    if not np.all(np.isfinite(f0)):
        raise InputError("f0 values must be finite")
    if np.any(f0 < 0):
        raise InputError("f0 values must be >= 0 (0 denotes unvoiced)")
    voiced = f0 > 0
    if not np.any(voiced):
        raise InputError("contour has no voiced frames")
    s = 12.0 * np.log2(f0[voiced] / F_REF)
    # the one or two central values of the sorted contour: subtracting a
    # constant keeps the order, so they stay central after each centering,
    # and their mean is np.median's, bit for bit
    mid = np.sort(s)[(s.size - 1) // 2:s.size // 2 + 1]
    # one rounding of the median can leave the centered median a few ulps
    # off zero for even counts; iterate until it is exactly zero
    for _ in range(5):
        m = (mid[0] + mid[-1]) / 2
        if m == 0.0:
            break
        s -= m
        mid -= m
    p_norm = np.zeros_like(f0)
    p_norm[voiced] = s
    return p_norm

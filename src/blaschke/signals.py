"""Boundary samples and the analytic signal map.

A real signal sampled uniformly on the circle, s_k = s(2 pi k / K),
maps to the disk-analytic function

    F = c_0 + 2 sum_{n=1}^{cap} c_n z^n,   c = DFT(s) / K,

whose real part on the boundary reproduces the signal exactly whenever
s is a trigonometric polynomial of degree <= cap.  A cosine becomes a
pure power: cos theta -> z.
"""

from __future__ import annotations

import numpy as np

from .errors import CapTooLarge, KTooSmall, NonFinite
from .series import CoefficientSeries, _integral, as_series


class BoundarySignal:
    """Immutable real samples on a uniform circle grid.

    Any sample count K >= 4 is accepted.  K samples carry analytic
    coefficients up to cap < K/2: K/2 - 1 for even K, (K - 1)/2 for odd K.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples):
        arr = np.array(samples, dtype=np.float64, copy=True).reshape(-1)
        if len(arr) < 4:
            raise KTooSmall("need at least 4 samples")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("samples must be finite")
        arr.setflags(write=False)
        self._samples = arr

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    @classmethod
    def from_function(cls, fn, sample_count: int) -> "BoundarySignal":
        sample_count = _integral(sample_count, "sample count", 0)
        theta = np.linspace(0.0, 2 * np.pi, sample_count, endpoint=False)
        return cls(np.asarray([fn(t) for t in theta], dtype=np.float64))

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return f"BoundarySignal(K={len(self._samples)})"


def load_signal_csv(path) -> BoundarySignal:
    """Read a signal from CSV: one sample per line."""
    values = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return BoundarySignal(values)


def save_signal_csv(signal: BoundarySignal, path) -> None:
    np.savetxt(path, signal.samples, fmt="%.17g")


def analytic_signal(signal: BoundarySignal, cap: int) -> CoefficientSeries:
    """Disk extension of a real boundary signal, truncated at cap.

    Doubling of positive frequencies makes Re F(e^{i theta}) match the
    signal for band-limited input; the imaginary part is the circular
    Hilbert transform (cos -> sin).  Any sample count K works; cap
    must lie below K/2, so at most (K - 1)/2 for odd K.
    """
    k = signal.sample_count
    cap = _integral(cap, "cap", 0)
    if 2 * cap >= k:
        raise CapTooLarge(f"cap {cap} needs more than {k} samples")
    c = np.fft.fft(signal.samples, norm="forward")
    coeffs = np.zeros(cap + 1, dtype=np.complex128)
    coeffs[0] = c[0]
    coeffs[1:] = 2.0 * c[1 : cap + 1]
    return CoefficientSeries(coeffs)


def boundary_samples(f, sample_count: int) -> np.ndarray:
    """Values of a truncated series on a uniform boundary grid.

    Exact up to rounding because the series is a polynomial; requires
    sample_count >= 2 * (number of coefficients) so no frequency wraps.
    The coefficients are zero-padded into a fresh array of sample_count
    entries, which the inverse FFT overwrites with the samples and which
    is returned: one grid-sized array per call.
    """
    f = as_series(f)
    sample_count = _integral(sample_count, "sample count")
    if sample_count < 2 * max(len(f), 1):
        raise KTooSmall(
            f"{sample_count} samples cannot carry {len(f)} coefficients"
        )
    spectrum = np.zeros(sample_count, dtype=np.complex128)
    spectrum[: len(f)] = f.coeffs
    np.fft.ifft(spectrum, norm="forward", out=spectrum)
    return spectrum


def project_coefficients(samples, cap: int) -> CoefficientSeries:
    """Lowest cap+1 analytic Fourier coefficients of boundary samples.

    The inverse of boundary_samples when the underlying function is a
    polynomial of degree <= cap; otherwise the orthogonal projection
    onto that truncation, discarding higher and negative frequencies.
    """
    arr = np.asarray(samples, dtype=np.complex128).reshape(-1)
    if not np.isfinite(arr).all():
        raise NonFinite("samples must be finite")
    cap = _integral(cap, "cap", 0)
    if cap >= len(arr) / 2:
        raise CapTooLarge(f"cap {cap} needs more than {len(arr)} samples")
    c = np.fft.fft(arr, norm="forward")
    return CoefficientSeries(c[: cap + 1])

import numpy as np
import pytest

from blaschke import (
    BoundarySignal,
    CapTooLarge,
    KTooSmall,
    NonFinite,
    analytic_signal,
    as_series,
    boundary_samples,
    h2_norm_sq,
    project_coefficients,
    unwind,
)
from blaschke.signals import load_signal_csv, save_signal_csv


def test_sample_count_validation():
    with pytest.raises(KTooSmall):
        BoundarySignal([1.0, 2.0])
    with pytest.raises(NonFinite):
        BoundarySignal([1.0, np.nan, 0.0, 0.0])


def test_samples_are_frozen():
    s = BoundarySignal(np.zeros(8))
    with pytest.raises(ValueError):
        s.samples[0] = 1.0


def test_cosine_maps_to_z():
    s = BoundarySignal.from_function(np.cos, 16)
    f = analytic_signal(s, cap=7)
    want = np.zeros(8)
    want[1] = 1.0
    assert np.allclose(f.coeffs, want, atol=1e-14)


def test_sine_maps_to_minus_i_z():
    s = BoundarySignal.from_function(np.sin, 16)
    f = analytic_signal(s, cap=3)
    assert abs(f.coeffs[1] + 1j) < 1e-14
    assert abs(f.coeffs[0]) < 1e-14


def test_trig_polynomial_coefficients():
    s = BoundarySignal.from_function(
        lambda t: 0.5 * np.cos(t) + np.cos(2 * t) + 0.25, 32
    )
    f = analytic_signal(s, cap=4)
    assert np.allclose(f.coeffs, [0.25, 0.5, 1.0, 0.0, 0.0], atol=1e-14)


def test_real_part_fidelity_on_boundary():
    s = BoundarySignal.from_function(
        lambda t: 1.0 + 0.3 * np.cos(3 * t) - 0.8 * np.sin(t), 64
    )
    f = analytic_signal(s, cap=31)
    values = boundary_samples(f, 64)
    assert np.allclose(values.real, s.samples, atol=1e-12)


def test_analytic_signal_cap_limits():
    s = BoundarySignal(np.ones(8))
    with pytest.raises(CapTooLarge):
        analytic_signal(s, cap=4)
    with pytest.raises(ValueError):
        analytic_signal(s, cap=-1)
    # an odd count has no Nyquist bin: cap (K - 1)/2 is the largest
    odd = BoundarySignal(np.ones(999))
    assert len(analytic_signal(odd, cap=499)) == 500
    with pytest.raises(CapTooLarge):
        analytic_signal(odd, cap=500)


@pytest.mark.parametrize("k", [999, 1000, 1536, 4000])
def test_any_sample_count_carries_the_signal(k):
    # odd, even and 5-smooth counts alike; at the largest cap K admits the
    # spectrum is z + 0.3 z^3 + 0.2i z^5, which unwinds in three rounds
    s = BoundarySignal.from_function(
        lambda t: np.cos(t) + 0.3 * np.cos(3 * t) - 0.2 * np.sin(5 * t), k
    )
    f = analytic_signal(s, cap=(k - 1) // 2)
    want = np.zeros((k - 1) // 2 + 1, dtype=complex)
    want[[1, 3, 5]] = [1.0, 0.3, 0.2j]
    assert np.max(np.abs(f.coeffs - want)) <= 1e-15
    expansion = unwind(f, 6)
    assert expansion.terminated and expansion.depth == 3


def test_boundary_samples_need_headroom():
    with pytest.raises(KTooSmall):
        boundary_samples(as_series([1.0, 2.0, 3.0]), 4)


@pytest.mark.parametrize("length, count", [(1, 4), (9, 32), (300, 4096)])
def test_boundary_samples_are_the_padded_inverse_fft(length, count):
    # the transform runs in the padded buffer, which is returned: the same
    # bits as a transform into a fresh array, and no memory shared with f
    rng = np.random.default_rng(count)
    f = as_series(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    kept = f.coeffs.copy()
    padded = np.zeros(count, dtype=complex)
    padded[:length] = f.coeffs
    values = boundary_samples(f, count)
    assert values.tobytes() == np.fft.ifft(padded, norm="forward").tobytes()
    assert not np.shares_memory(values, f.coeffs)
    values[:] = 0.0
    assert np.array_equal(f.coeffs, kept)


def test_sample_project_round_trip():
    rng = np.random.default_rng(8)
    f = as_series(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    values = boundary_samples(f, 32)
    back = project_coefficients(values, cap=8)
    assert np.allclose(back.coeffs, f.coeffs, atol=1e-13)


def test_projection_parseval():
    # projecting discards energy, never creates it
    rng = np.random.default_rng(9)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    proj = project_coefficients(values, cap=10)
    assert h2_norm_sq(proj) <= np.mean(np.abs(values) ** 2) + 1e-12


def test_project_validation():
    with pytest.raises(NonFinite):
        project_coefficients([np.inf, 0.0, 0.0, 0.0], cap=1)
    with pytest.raises(CapTooLarge):
        project_coefficients(np.ones(8), cap=4)


def test_csv_round_trip(tmp_path):
    s = BoundarySignal.from_function(lambda t: np.cos(2 * t) - 0.1, 16)
    path = tmp_path / "sig.csv"
    save_signal_csv(s, path)
    back = load_signal_csv(path)
    assert np.array_equal(back.samples, s.samples)


def test_hilbert_pair():
    # the disk extension of cos has boundary imaginary part sin
    s = BoundarySignal.from_function(np.cos, 32)
    f = analytic_signal(s, cap=15)
    values = boundary_samples(f, 32)
    theta = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    assert np.allclose(values.imag, np.sin(theta), atol=1e-12)

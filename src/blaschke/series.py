"""Truncated power-series arithmetic on the unit disk.

A function F analytic on the disk is represented by the finite
coefficient vector (a_0, ..., a_N) of its power series at 0.  The
truncation is the function: operations treat the stored coefficients
as exact and never invent terms beyond the stored degree, except for
:func:`divide_conjugate_linear`, which must extend because division by
(1 - conj(alpha) z) produces an infinite series.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidSeries, InvalidSpec

_COMPLEX = np.dtype(np.complex128)


class CoefficientSeries:
    """Immutable dense vector of power-series coefficients a_0..a_N.

    The empty series (no coefficients) is allowed and represents the
    zero function; it shows up naturally as the quotient when a
    constant is deflated.

    Parameters
    ----------
    coeffs : array_like of complex
        Coefficients in increasing order of degree.  Must be finite.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        # the kernels pass 1-D complex128 arrays, for which a plain copy is cheapest
        if type(coeffs) is np.ndarray and coeffs.dtype is _COMPLEX and coeffs.ndim == 1:
            arr = coeffs.copy()
        else:
            arr = np.array(coeffs, dtype=np.complex128, copy=True).reshape(-1)
        # count_nonzero takes a third of the time of .all() on short arrays
        if np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise InvalidSeries("coefficients must be finite")
        arr.setflags(write=False)
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, ascending degree."""
        return self._coeffs

    @property
    def degree_cap(self) -> int:
        """Index of the last stored coefficient (-1 for the empty series)."""
        return len(self._coeffs) - 1

    @property
    def constant(self) -> complex:
        """a_0, or 0 for the empty series."""
        return complex(self._coeffs[0]) if len(self._coeffs) else 0j

    def is_zero(self) -> bool:
        return bool((self._coeffs == 0).all())

    def trim(self) -> "CoefficientSeries":
        """Drop trailing coefficients that are exactly zero."""
        nz = np.nonzero(self._coeffs)[0]
        if len(nz) == 0:
            return CoefficientSeries()
        return CoefficientSeries(self._coeffs[: nz[-1] + 1])

    def padded(self, length: int) -> np.ndarray:
        """Coefficients zero-padded (or truncated) to the given length."""
        out = np.zeros(length, dtype=np.complex128)
        n = min(length, len(self._coeffs))
        out[:n] = self._coeffs[:n]
        return out

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self):
        return iter(self._coeffs)

    def __repr__(self) -> str:
        return f"CoefficientSeries({np.array2string(self._coeffs, separator=', ')})"

    def __eq__(self, other) -> bool:
        """Exact equality of the coefficients once trailing zeros are
        trimmed; numerical closeness is the caller's to judge."""
        if not isinstance(other, CoefficientSeries):
            return NotImplemented
        return np.array_equal(self.trim().coeffs, other.trim().coeffs)

    __hash__ = None

    def to_json_dict(self) -> dict:
        """JSON form: {"coeffs": [[re, im], ...]}."""
        return {"coeffs": [[float(c.real), float(c.imag)] for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoefficientSeries":
        try:
            pairs = data["coeffs"]
            arr = [complex(float(re), float(im)) for re, im in pairs]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSeries(f"malformed coefficient JSON: {exc}") from exc
        return cls(arr)


def as_series(f) -> CoefficientSeries:
    """Coerce array_like input to a CoefficientSeries (validating it)."""
    if isinstance(f, CoefficientSeries):
        return f
    return CoefficientSeries(f)


def _integral(value, what: str) -> int:
    """value as an int where it is an integral number, such as 3, 3.0 or
    a numpy integer, and not a bool; InvalidSpec naming it otherwise, so
    that no value is silently truncated."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            if value == int(value):
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidSpec(f"{what} must be an integer, got {value!r}")


def _first_order_recurrence(mult: complex, x: np.ndarray) -> np.ndarray:
    """y[n] = x[n] + mult * y[n-1], by a doubling scan.

    After the pass with shift s, y[n] holds sum_{j<2s} mult^j x[n-j],
    so log2(len(x)) vectorized passes finish the sum.  Each pass forms
    mult^s * y[n-s] in one scratch buffer, allocated once per call, and
    adds it in place.  x is not modified.  Overflow for |mult| > 1 is
    left as non-finite values for CoefficientSeries to reject.
    """
    y = x.astype(np.complex128)
    live = y
    # entries ahead of the first nonzero one stay exactly zero; scanning
    # them would turn 0 * inf into nan once power overflows (|mult| > 1)
    if len(y) and not y[0]:
        nonzero = y.nonzero()[0]
        live = y[nonzero[0]:] if nonzero.size else y[:0]
    # repeated squaring doubles the relative error of mult^s at every
    # pass, which matters for |mult| near 1; where the platform has a
    # wider long double it keeps that error at rounding (x86-64,
    # |mult| = 1 - 1e-9, 65537 terms: 1.6e-12 in double, 8e-16 here)
    power = np.clongdouble(mult)
    # mult^s as a 0-d array costs numpy less per pass than a Python scalar
    factor = np.empty((), dtype=np.complex128)
    n = len(live)
    scratch = np.empty(n, dtype=np.complex128)
    shift = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while shift < n:
            factor[()] = power
            head, step = live[shift:], scratch[shift:]
            np.multiply(factor, live[:-shift], step)
            np.add(head, step, head)
            power *= power
            shift *= 2
    return y


def evaluate_many(f, points) -> np.ndarray:
    """Vectorized Horner evaluation at an array of points (no domain check).

    Each coefficient is one multiply and one add in place on the
    accumulator, so no pass allocates a temporary.
    """
    f = as_series(f)
    z = np.asarray(points, dtype=np.complex128)
    acc = np.zeros_like(z)
    for c in f.coeffs[::-1]:
        acc *= z
        acc += c
    return acc


def multiply(f, g, cap: int) -> CoefficientSeries:
    """Cauchy product truncated to degree cap.

    The result always has exactly cap + 1 coefficients, padded with
    zeros when the true product is shorter.
    """
    f = as_series(f)
    g = as_series(g)
    cap = _integral(cap, "cap")
    if cap < 0:
        raise InvalidSpec("cap must be nonnegative")
    out = np.zeros(cap + 1, dtype=np.complex128)
    if len(f) and len(g):
        prod = np.convolve(f.coeffs, g.coeffs)
        n = min(cap + 1, len(prod))
        out[:n] = prod[:n]
    return CoefficientSeries(out)


def deflate(f, alpha) -> tuple[CoefficientSeries, complex]:
    """Synthetic division of f by the monomial (z - alpha).

    Returns (quotient, remainder) with f = (z - alpha) * quotient +
    remainder exactly in exact arithmetic.  The remainder equals
    f(alpha), so it is the residual of alpha as a root.  Division runs
    from the top coefficient down, which is the numerically stable
    direction for |alpha| < 1.
    """
    f = as_series(f)
    alpha = complex(alpha)
    n = len(f)
    if n == 0:
        return CoefficientSeries(), 0j
    # by a root at the origin the division is a shift; the scan would
    # reproduce the coefficients, but for the sign of an exact zero
    if alpha == 0:
        return CoefficientSeries(f.coeffs[1:]), complex(f.coeffs[0])
    # b_k = a_k + alpha * b_{k+1}, computed top-down; the b_k for k >= 1
    # are the quotient coefficients shifted by one, b_0 is the remainder.
    x = f.coeffs[::-1]
    y = _first_order_recurrence(alpha, x)
    quotient = y[:-1][::-1]
    remainder = complex(y[-1])
    return CoefficientSeries(quotient), remainder


def multiply_conjugate_linear(f, alpha) -> CoefficientSeries:
    """Product (1 - conj(alpha) z) * f, exact.

    Output is one coefficient longer than f (same length when
    alpha == 0, where the factor is identically 1).
    """
    f = as_series(f)
    alpha = complex(alpha)
    if len(f) == 0:
        return CoefficientSeries()
    if alpha == 0:
        return CoefficientSeries(f.coeffs)
    return CoefficientSeries(np.convolve(f.coeffs, [1.0, -alpha.conjugate()]))


def divide_conjugate_linear(f, alpha, cap: int) -> CoefficientSeries:
    """Expansion of f / (1 - conj(alpha) z) through degree cap.

    The quotient has an infinite series (geometric in conj(alpha) z);
    coefficients up to cap are exact: d_n = a_n + conj(alpha) d_{n-1}.
    The caller chooses cap large enough that the discarded geometric
    tail is negligible for its purpose.
    """
    f = as_series(f)
    alpha = complex(alpha)
    if not abs(alpha) < 1:
        raise DomainError("divisor root must lie inside the open unit disk")
    cap = _integral(cap, "cap")
    if cap < 0:
        raise InvalidSpec("cap must be nonnegative")
    # blaschke_series passes exactly cap + 1 coefficients, and the
    # recurrence copies its input, as CoefficientSeries does
    x = f.coeffs if len(f) == cap + 1 else f.padded(cap + 1)
    if alpha == 0:
        return CoefficientSeries(x)
    return CoefficientSeries(_first_order_recurrence(alpha.conjugate(), x))


def h2_norm_sq(f) -> float:
    """Squared Hardy space norm sum |a_n|^2; inf, with no warning, past the double range."""
    f = as_series(f)
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(f.coeffs) ** 2))


def _coeff_norm(c: np.ndarray) -> float:
    """2-norm of the coefficients c, as max|c| * ||c / max|c|||_2, so that
    no square leaves the double range."""
    mags = np.abs(c)
    top = float(mags.max(initial=0.0))
    if not 0.0 < top < math.inf:
        return top
    scaled = mags / top
    return top * math.sqrt(scaled @ scaled)

"""Slow reference implementations used to cross-check the library.

Everything here is written the naive way on purpose: nested loops,
np.polydiv, and direct boundary sampling. Tests compare the fast
implementations against these.
"""

from __future__ import annotations

import cmath

import mpmath
import numpy as np

from blaschke import CoefficientSeries, as_series, decomposition
from blaschke.errors import CapTooLarge, DomainError
from blaschke.verify import _instance_parts

# bound on the weighted tail that geometric_extension_cap discards
_EXTENSION_TAIL = 1e-18
# geometric_extension_cap refuses to grow a cap past this length
_EXTENSION_MAX = 2_000_000


def naive_multiply(a, b):
    """Cauchy product by nested loops, full length."""
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def naive_deflate(coeffs, alpha):
    """Divide by (z - alpha) using np.polydiv on high-first coefficients."""
    high_first = np.asarray(coeffs, dtype=complex)[::-1]
    q, r = np.polydiv(high_first, np.array([1.0, -complex(alpha)]))
    return q[::-1], complex(r[-1])


def naive_recurrence(mult, x):
    """y[n] = x[n] + mult * y[n-1], one term at a time."""
    mult = complex(mult)
    out = []
    prev = 0j
    for v in x:
        prev = complex(v) + mult * prev
        out.append(prev)
    return out


def naive_reflection(coeffs, alpha):
    """Replace the factor (z - alpha) by (1 - conj(alpha) z)."""
    quotient, _ = naive_deflate(coeffs, alpha)
    return naive_multiply(quotient, [1.0, -np.conj(complex(alpha))])


def add(f, g):
    """Coefficientwise sum, padded to the longer operand."""
    f, g = as_series(f), as_series(g)
    n = max(len(f), len(g))
    return CoefficientSeries(f.padded(n) + g.padded(n))


def scale(f, c):
    return CoefficientSeries(as_series(f).coeffs * complex(c))


def series_close(f, g):
    """Whether f and g agree coefficientwise, the shorter zero-padded,
    within 1e-10 plus 1e-10 times the largest coefficient magnitude of
    either."""
    f, g = as_series(f), as_series(g)
    n = max(len(f), len(g))
    a, b = f.padded(n), g.padded(n)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return bool(np.all(np.abs(a - b) <= 1e-10 + 1e-10 * scale))


def boundary_modulus_gap(f, g):
    """Largest gap between |f| and |g| on 4 * max(len) boundary points,
    enough for the samples to fix both, relative to the larger modulus."""
    f, g = as_series(f).coeffs, as_series(g).coeffs
    k = 4 * max(len(f), len(g), 1)
    z = np.exp(2j * np.pi * np.arange(k) / k)
    vf = np.abs(np.polyval(f[::-1], z))
    vg = np.abs(np.polyval(g[::-1], z))
    return float(np.max(np.abs(vf - vg)) / max(np.max(vf), np.max(vg), 1e-300))


def instance_roots(spec):
    """The interior roots generate_instance plants, in generated order."""
    return tuple(complex(a) for a in _instance_parts(spec)[0])


def gamma_reference(family, param, count):
    """Weight values gamma_0 .. gamma_{count-1} from the defining formulas."""
    out = []
    for n in range(count):
        if family == "dirichlet":
            out.append(float(n))
        elif family == "sobolev_square":
            out.append(float(n * n))
        elif family == "constant_step":
            out.append(param * n)
        elif family == "indicator":
            out.append(0.0 if n < param else 1.0)
        elif family == "concave_power_sum":
            out.append(sum(1.0 / j ** param for j in range(1, n + 1)))
        else:
            raise ValueError(family)
    return out


def naive_x_norm_sq(coeffs, gammas):
    total = 0.0
    for n, a in enumerate(coeffs):
        total += gammas[n] * abs(complex(a)) ** 2
    return total


def naive_y_seminorm_sq(coeffs, gammas):
    total = 0.0
    for n, a in enumerate(coeffs):
        total += (gammas[n + 1] - gammas[n]) * abs(complex(a)) ** 2
    return total


def naive_eval(coeffs, z):
    """Plain power sum, no Horner."""
    return sum(complex(a) * complex(z) ** n for n, a in enumerate(coeffs))


def circle_mean_square(coeffs, samples=512):
    """Parseval oracle: mean of |f|^2 over equispaced boundary points."""
    total = 0.0
    for k in range(samples):
        z = cmath.exp(2j * cmath.pi * k / samples)
        total += abs(naive_eval(coeffs, z)) ** 2
    return total / samples


def naive_blaschke_at(z, roots, phase=0.0, origin_multiplicity=0):
    value = cmath.exp(1j * phase) * complex(z) ** origin_multiplicity
    for a in roots:
        a = complex(a)
        value *= (complex(z) - a) / (1.0 - np.conj(a) * complex(z))
    return value


def polish_until_no_lower(coeffs, w):
    """Batch Newton polish on G(w) = sum coeffs_k w^k with no rounding stop:
    the steps end only once no point lowers its |G|, or after
    decomposition._NEWTON_STEPS; each point comes back as its iterate of
    least |G|.  Evaluates by decomposition._pairs_at, looked up at each
    call."""
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    values, derivs = decomposition._pairs_at(coeffs, dcoeffs, w)
    best, best_val = w, np.abs(values)
    for _ in range(decomposition._NEWTON_STEPS):
        w = w - values / derivs
        values, derivs = decomposition._pairs_at(coeffs, dcoeffs, w)
        mags = np.abs(values)
        lower = mags < best_val
        if not lower.any():
            break
        best = np.where(lower, w, best)
        best_val = np.where(lower, mags, best_val)
    return best


def bounded_pair_misses(core, points, dps=40):
    """How far F(a) and F'(a), F = sum core_k z^k, as evaluated by
    decomposition._bounded_pairs, fall outside its error bounds e and e'
    of F and F' evaluated by Horner's rule in mpmath at dps digits: per
    point, |F(a) - computed| - e and |F'(a) - computed| - e', as floats,
    which are <= 0 where the bounds hold."""
    blocks = list(decomposition._bounded_pairs(np.asarray(points, dtype=complex), core))
    misses = []
    with mpmath.workdps(dps):
        for a, value, deriv, err, derr in zip(points, *map(np.concatenate, zip(*blocks))):
            z = mpmath.mpc(complex(a))
            p = dp = mpmath.mpc(0)
            for c in np.asarray(core).tolist()[::-1]:
                dp = dp * z + p
                p = p * z + mpmath.mpc(c)
            misses.append((
                float(abs(mpmath.mpc(complex(value)) - p)) - err,
                float(abs(mpmath.mpc(complex(deriv)) - dp)) - derr,
            ))
    return misses


def geometric_extension_cap(base_len: int, alphas) -> int:
    """Truncation length for series divided by factors (1 - conj(a) z).

    Picks T so that |a|^(2 (T - base_len)) * (T + 2)^2 <= _EXTENSION_TAIL
    (1e-18) for the largest |a|, i.e. the discarded tail is negligible
    even against polynomially growing weights.  Raises CapTooLarge, naming
    the largest |a|, where T passes _EXTENSION_MAX terms short of that
    bound (from about |a| = 1 - 1.2e-5 on).

    The (T + 2)^2 factor serves the claims on the zero-free part, whose
    weights may grow like n^2.  Theorem-3 sections, whose weights are
    bounded, choose their cap from their own spectrum instead
    (verify._predicted_section_cap and verify._section).
    """
    mags = [abs(complex(a)) for a in alphas]
    if not all(m < 1 for m in mags):
        raise DomainError("extension requires |alpha| < 1")
    a = max(mags, default=0.0)
    if a < 1e-12:
        return max(base_len, 1)
    t = base_len + 8
    while a ** (2 * (t - base_len)) * (t + 2) ** 2 > _EXTENSION_TAIL:
        if t >= _EXTENSION_MAX:
            raise CapTooLarge(
                f"largest |a| = {a!r} needs more than {_EXTENSION_MAX} terms "
                f"to bring the discarded tail to {_EXTENSION_TAIL}"
            )
        t = int(t * 1.5) + 8
    return t

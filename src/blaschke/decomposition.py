"""Root finding inside the unit disk and Blaschke decomposition.

A polynomial F with roots alpha_1, ..., alpha_m inside the disk factors
as F = B g where B is the finite Blaschke product over those roots and
g has no zeros in the disk.  The factorization is computed one root at
a time: deflate F by (z - alpha), multiply back by (1 - conj(alpha) z).
Each step preserves boundary modulus, hence the Hardy norm, and drops
any weighted norm by an explicitly computable amount.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ChainInconsistent,
    ConvergenceError,
    DomainError,
    InvalidSeries,
    InvalidSpec,
    NotARoot,
    ZeroSeries,
)
from .series import (
    CoefficientSeries,
    as_series,
    _coeff_norm,
    deflate,
    divide_conjugate_linear,
    geometric_extension_cap,
    multiply_conjugate_linear,
)
from .signals import boundary_samples
from . import weights as _weights

_NEWTON_STEPS = 20
# u, the machine epsilon of double arithmetic
_U = 2.0**-52
# largest log|m_k| allowed in the scaled companion matrix
_LOG_MAX_MONIC = float(np.log(np.finfo(np.float64).max)) - 1.0
# relative drift allowed between h2(f) and h2(g) over a full chain
_CHAIN_H2_RTOL = 1e-9
# power-sum route: the winding count must lie this close to an integer,
# and the Fourier coefficients of z F'/F near index K/2 must fall below
# its square root times the largest: the entries the route reads alias
# with about the square of that tail
_POWER_SUM_TOL = 1e-6
# largest FFT grid the power-sum route samples on before it gives up
_POWER_SUM_MAX_GRID = 1 << 15
# a circle whose grid is predicted at most this many base grids is sampled
# as it is; past that, up to _POWER_SUM_PROBES circles further out are tried
_POWER_SUM_AFFORDABLE = 4
_POWER_SUM_PROBES = 3
# estimates beyond this modulus, or beyond their own circle where that
# lies further out, are not polished: the power-sum route's kept circle,
# the companion's 1 + margin; every circle the power-sum route probes
# past 1 + margin lies inside it
_ESTIMATE_CUT = 1.25
# entries of the power matrix _pairs_at holds at once
_POLISH_BLOCK = 1 << 16
# Blaschke factors blaschke_eval_many multiplies up before it divides:
# for |z| <= 1 and |a| < 1, |a - z| < 2 and |1 - conj(a) z| >= 1 - |a|
# >= 2^-53, so a product of 16 of either lies between 2^-848 and 2^16
_FACTOR_BLOCK = 16
# points blaschke_eval_many walks at once: its five buffers (the points,
# the output and three scratch) of 2^14 complex values take 1.25 MB,
# which fits a 2 MB L2 cache
_GRID_BLOCK = 1 << 14


@dataclass(frozen=True)
class RootOptions:
    """Knobs for the root finder.

    boundary_margin: roots with 1 - |alpha| < margin are quarantined in
        a near_boundary list and never reflected; the band reaches out
        to |alpha| <= 1 + margin for any margin.
    """

    boundary_margin: float = 1e-10

    def __post_init__(self):
        # comparisons with nan are false, so nan fails the check
        if not 0 <= self.boundary_margin < 1:
            raise InvalidSpec(
                f"boundary margin must lie in [0, 1), got {self.boundary_margin}"
            )

    def residual_tol_for(self, f) -> float:
        """1e-8 * (1 + ||f||_H2), the bound on |f(alpha)| where no certificate
        covers a root: the companion fallback's acceptance test and the
        deflation remainders of decompose and reflect_root."""
        return 1e-8 * (1.0 + _coeff_norm(as_series(f).coeffs))


def _root_sort_key(a: complex):
    return (abs(a), cmath.phase(a))


@dataclass(frozen=True)
class RootSet:
    """Roots of a series inside the open unit disk.

    roots are sorted by increasing modulus, ties by principal argument;
    repeated entries encode multiplicity.  Roots within boundary_margin
    of the unit circle are reported separately in near_boundary and are
    not counted as interior roots.
    """

    roots: tuple = ()
    near_boundary: tuple = ()

    @classmethod
    def ordered(cls, roots, near_boundary=()) -> "RootSet":
        rts = tuple(sorted((complex(a) for a in roots), key=_root_sort_key))
        nb = tuple(sorted((complex(a) for a in near_boundary), key=_root_sort_key))
        return cls(rts, nb)

    @property
    def origin_multiplicity(self) -> int:
        return sum(1 for a in self.roots if a == 0)

    @property
    def nonzero_roots(self) -> tuple:
        return tuple(a for a in self.roots if a != 0)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def to_json_dict(self) -> dict:
        """JSON form separates origin roots into a multiplicity count."""
        return {
            "roots": [[a.real, a.imag] for a in self.nonzero_roots],
            "origin_multiplicity": self.origin_multiplicity,
            "near_boundary": [[a.real, a.imag] for a in self.near_boundary],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RootSet":
        """Inverse of to_json_dict; any other key, such as the "phase" that
        earlier versions wrote, is ignored.  The "roots" key is required
        and every entry must be finite, else InvalidSpec."""
        try:
            roots = [complex(re, im) for re, im in data["roots"]]
            origin = int(data.get("origin_multiplicity", 0))
            nb = [complex(re, im) for re, im in data.get("near_boundary", [])]
        except KeyError as exc:
            raise InvalidSpec(f"root JSON has no {exc} key") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed root JSON: {exc}") from exc
        for key, points in (("roots", roots), ("near_boundary", nb)):
            if not all(map(cmath.isfinite, points)):
                raise InvalidSpec(f"root JSON key {key!r} holds a non-finite entry")
        if origin < 0:
            raise InvalidSpec(f"origin_multiplicity must be nonnegative, got {origin}")
        return cls.ordered([0j] * origin + roots, nb)


def _horner_pair(coeffs: list, z: complex) -> tuple[complex, complex]:
    """Value and derivative at z in one pass; coeffs as for horner.  The sums
    start from a zero of z's type, so on float coefficients at a float point
    they run on floats, with the bits of the complex pass's real parts."""
    p = dp = type(z)()
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: list, z: complex) -> complex:
    """Refine a root estimate; returns the iterate with smallest |p|.

    coeffs run from the highest degree down, as for horner.  Each
    iterate, the last one too, takes one _horner_pair pass.
    """
    p, dp = _horner_pair(coeffs, z)
    best, best_val = z, abs(p)
    for _ in range(_NEWTON_STEPS):
        if p == 0 or dp == 0:
            break
        # numpy's complex division multiplies by the reciprocal of
        # Smith's denominator where Python's divides by it; numpy's keeps
        # every iterate, and so every root, bit for bit that of earlier
        # releases, which polished in numpy scalars
        step = complex(np.complex128(p) / dp)
        if not cmath.isfinite(step):
            break
        z = z - step
        p, dp = _horner_pair(coeffs, z)
        if abs(p) < best_val:
            best, best_val = z, abs(p)
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return best


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a polynomial via companion-matrix eigenvalues.

    The eigenvalues are those of the polynomial in w = z / rho, with
    rho = (|c_0| / |c_n|)^(1/n) the geometric mean of the root moduli,
    mapped back by z = rho w.  rho is raised where that mean would scale
    a coefficient past the double range.  coeffs[0] and coeffs[-1] must
    be nonzero.
    """
    n = len(coeffs) - 1
    # m_k = (c_k / c_n) rho^(k - n) is formed in log space, so nothing
    # outside the range of the result is ever computed; the complex log
    # is log|c_k| + i arg c_k, and -inf at a zero c_k gives m_k = 0
    with np.errstate(divide="ignore"):
        log_c = np.log(coeffs)
    log_ratio = log_c[:-1].real - log_c[-1].real
    powers = np.arange(n, 0, -1)
    # the least rho >= the geometric mean with log|m_k| <= log(float max) - 1
    # for every k, so no m_k overflows
    log_rho = max(log_ratio[0] / n, float(np.max((log_ratio - _LOG_MAX_MONIC) / powers)))
    monic = np.exp(log_c[:-1] - log_c[-1] - log_rho * powers)
    comp = np.zeros((n, n), dtype=np.complex128)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic
    try:
        return np.exp(log_rho) * np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver failed: {exc}") from exc


def _sample_circle(core: np.ndarray, radius: float, size: int):
    """Laurent coefficients of z F'/F on |z| = radius from a grid of size
    points, and the grid they call for; None where they are not finite.

    F = core and z F' are sampled by FFT, and c = FFT(z F' / F) / size
    holds the coefficients in w = z / radius: c_0 counts the zeros
    inside, and c_(size-k) is the power sum s_k of those zeros in w.
    The FFT folds c_(j + lK) onto c_j, so the tail near index size/2,
    rho^(size/2) with rho = e^-d for a zero at distance d from the
    circle in log|z|, aliases the entries the route reads, c_0 and
    c_(size-k), by about rho^size, the tail squared.  The grid called
    for is size itself once max|c| near index size/2 has decayed below
    sqrt(_POWER_SUM_TOL) times max(1, max|c|); otherwise it is where
    rho^(K/2) reaches sqrt(_POWER_SUM_TOL), or inf where the tail is 1
    or more.
    """
    n = len(core)
    scaled = core * radius ** np.arange(n)
    derivative = scaled * np.arange(n)
    if not np.isfinite(derivative).all():
        return None
    # F and z F' on the grid, through one zero-padded buffer
    padded = np.zeros(size, dtype=np.complex128)
    padded[:n] = scaled
    values = np.fft.ifft(padded, norm="forward")
    padded[:n] = derivative
    derivs = np.fft.ifft(padded, norm="forward")
    np.divide(derivs, values, out=derivs)
    c = np.fft.fft(derivs, norm="forward")
    mags = np.abs(c)
    top = mags.max()
    if not np.isfinite(top):
        return None
    half = size // 2
    tail = mags[half - 2 : half + 3].max()
    if tail <= math.sqrt(_POWER_SUM_TOL) * max(1.0, top):
        return c, size
    if tail >= 1.0:
        return c, math.inf
    return c, size * math.log(math.sqrt(_POWER_SUM_TOL)) / math.log(tail)


def _gap(grid: float) -> float:
    """Distance in log|z| from a circle to the nearest zero, for a zero
    whose tail calls for this grid: rho^(grid/2) = sqrt(_POWER_SUM_TOL)."""
    return -math.log(_POWER_SUM_TOL) / grid


def _power_sum_estimates(core: np.ndarray, radius: float):
    """Estimates of the zeros of core inside a circle |z| = r >= radius,
    and r; or None.

    The first circle is |z| = radius, sampled on the base grid, the
    least power of two >= 16 len(core) (_sample_circle).  Where that
    grid calls for more than _POWER_SUM_AFFORDABLE base grids, a zero
    lies within the distance d its tail gives, on one side or the
    other, and the next circle is taken further out, at r e^(d + D)
    with D = _gap(_POWER_SUM_AFFORDABLE * base): that zero then lies at
    least D from the new circle, whichever side it was on, and D is
    the distance at which a zero is affordable.  Up to
    _POWER_SUM_PROBES circles are tried, each placed from the last
    one's tail and all below _ESTIMATE_CUT; the one that calls for the
    least grid is kept, its base-grid samples as its first grid.  The
    grid then grows, at least doubling, to the power of two its tail
    calls for, and doubles again while c_0 lies further than
    _POWER_SUM_TOL from an integer: the tail bounds the aliasing of c_0
    by about n tail^2, far below 1/2, so a count that close to an
    integer is that integer.  On that circle c_0 is the count m of zeros
    inside r and c_(K-k) their power sums; Newton's identities give the
    zeros' monic polynomial p in w = z / r, whose roots, times r, are
    the estimates.  None where a coefficient of z F' or c overflows on
    |z| = radius, where the kept circle's tail is 1 or more or its grid
    would pass _POWER_SUM_MAX_GRID points, or where the count is deg F,
    every zero inside.
    """
    n = len(core)
    base = 1 << int(np.ceil(np.log2(16 * n)))
    # a zero or overflowing sample makes c non-finite, which gives up;
    # none of that may leak a RuntimeWarning
    with np.errstate(all="ignore"):
        first = _sample_circle(core, radius, base)
        if first is None:
            return None
        # radius, c and grid belong to the kept circle
        c, grid = first
        probe_radius, probe_grid = radius, grid
        for _ in range(_POWER_SUM_PROBES):
            if grid <= _POWER_SUM_AFFORDABLE * base:
                break
            probe_radius *= math.exp(_gap(probe_grid) + _gap(_POWER_SUM_AFFORDABLE * base))
            if not probe_radius < _ESTIMATE_CUT:
                break
            probe = _sample_circle(core, probe_radius, base)
            if probe is None:
                break
            probe_grid = probe[1]
            if probe_grid < grid:
                radius, (c, grid) = probe_radius, probe
        size = base
        while grid > size or abs(c[0] - round(c[0].real)) > _POWER_SUM_TOL:
            if grid == math.inf:
                return None
            size = max(2 * size, 1 << int(np.ceil(np.log2(grid))))
            if size > _POWER_SUM_MAX_GRID:
                return None
            sampled = _sample_circle(core, radius, size)
            if sampled is None:
                return None
            c, grid = sampled
    count = round(c[0].real)
    # with every zero of F inside (count = deg F), p would be F / lead
    # rebuilt from its power sums: the degree-n companion of F, which
    # the fallback solves, is as cheap and exact
    if not 0 <= count < n - 1:
        return None
    if count == 0:
        return np.empty(0), radius
    sums = c[size - 1 : size - count - 1 : -1].tolist()
    # Newton's identities for p = w^m + a_1 w^(m-1) + ... + a_m
    monic = [1.0 + 0j]
    for k in range(1, count + 1):
        acc = sums[k - 1]
        for i in range(1, k):
            acc += monic[i] * sums[k - i - 1]
        monic.append(-acc / k)
    if count == 1:
        return np.array([-radius * monic[1]]), radius
    if monic[-1] == 0:
        return None
    return radius * _companion_roots(np.array(monic[::-1])), radius


def _accept_roots(estimates, f_desc: list, core: np.ndarray, tol: float, margin: float):
    """Polish companion estimates one at a time and keep those that are
    roots of f: the interior roots and the roots within margin of the
    circle.

    Estimates up to modulus max(_ESTIMATE_CUT, 1 + margin) run in
    increasing modulus and are polished by Newton steps against a
    working polynomial, core deflated by each interior root accepted so
    far, so multiple roots are picked up one copy at a time.  No
    certificate covers these roots, so each polished root alpha needs
    the residual |f(alpha)| on the original input (f_desc) to clear
    tol, residual_tol_for(f), the raw estimate being tried in its place
    where it does not, or where f' vanishes at alpha and f does not; an
    interior root also needs f's Newton step |f(alpha) / f'(alpha)| to
    be shorter than 1 - |alpha|.  Both rules read one _horner_pair pass
    of f per point tested.  Roots beyond 1 + margin are dropped.
    """
    interior, near = [], []
    cut = max(_ESTIMATE_CUT, 1.0 + margin)
    work = CoefficientSeries(core)
    work_desc = core[::-1].tolist()
    # a Newton step can overflow where the working polynomial's
    # derivative nearly vanishes; _newton_polish then stops at its
    # best finite iterate
    with np.errstate(over="ignore", invalid="ignore"):
        for est in sorted(estimates, key=abs):
            if abs(est) > cut:
                continue
            est = complex(est)
            alpha = _newton_polish(work_desc, est)
            p, dp = _horner_pair(f_desc, alpha)
            if abs(p) > tol or (dp == 0 and p != 0):
                # polishing can drift, most of all against a heavily
                # deflated polynomial, or stop on a critical point of f
                # between two close zeros, where f has no Newton step;
                # fall back to the raw estimate before giving up
                alpha = est
                p, dp = _horner_pair(f_desc, alpha)
                if abs(p) > tol:
                    continue
            if abs(alpha) < 1.0 - margin:
                # polishing against a deflated polynomial can pull an
                # estimate from outside the circle onto a zero that f
                # does not have; f's own Newton step from alpha has to
                # stay shorter than alpha's distance to the circle
                if abs(p) > (1.0 - abs(alpha)) * abs(dp):
                    continue
                interior.append(alpha)
                work = deflate(work, alpha)[0]
                work_desc = work.coeffs[::-1].tolist()
            elif abs(alpha) <= 1.0 + margin:
                near.append(alpha)
    return interior, near


def _pairs_at(coeffs: np.ndarray, dcoeffs: np.ndarray, w: np.ndarray):
    """Values and derivatives of G(w) = sum coeffs_k w^k at every point of w.

    dcoeffs holds k coeffs_k for k >= 1.  The powers w^k are formed by
    cumprod, a block of rows of at most _POLISH_BLOCK entries at a time,
    and each block takes two matrix-vector products.
    """
    n = len(coeffs)
    rows = max(1, _POLISH_BLOCK // n)
    powers = np.empty((min(rows, len(w)), n), dtype=np.complex128)
    values = np.empty(len(w), dtype=np.complex128)
    derivs = np.empty(len(w), dtype=np.complex128)
    for lo in range(0, len(w), rows):
        block = w[lo : lo + rows]
        v = powers[: len(block)]
        v[:, 0] = 1.0
        v[:, 1:] = block[:, None]
        np.cumprod(v, axis=1, out=v)
        values[lo : lo + rows] = v @ coeffs
        derivs[lo : lo + rows] = v[:, :-1] @ dcoeffs
    return values, derivs


def _polish_all(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Newton steps on every root estimate w of G(w) = sum coeffs_k w^k at
    once; returns for each point the iterate with the smallest |G|.

    Every step evaluates all points (_pairs_at).  The steps stop once no
    point lowers its |G|, or after _NEWTON_STEPS.  A point whose step is
    not finite turns nan and is kept at its best earlier iterate.
    """
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    values, derivs = _pairs_at(coeffs, dcoeffs, w)
    best, best_val = w, np.abs(values)
    for _ in range(_NEWTON_STEPS):
        w = w - values / derivs
        values, derivs = _pairs_at(coeffs, dcoeffs, w)
        mags = np.abs(values)
        lower = mags < best_val
        if not lower.any():
            break
        best = np.where(lower, w, best)
        best_val = np.where(lower, mags, best_val)
    return best


def _power_sum_roots(estimates, core: np.ndarray, radius: float):
    """The power-sum estimates, all polished at once; None where one lies
    beyond _ESTIMATE_CUT and beyond radius, the kept circle.

    The estimates are polished against core in w = z / radius, the
    variable of the circle the power sums were taken on, with the
    coefficients c_k radius^k that _sample_circle samples: the estimates
    are zeros inside the circle, |w| < 1 up to their error, so no power
    w^k overflows at any degree.  No root is deflated: deflation only
    separates multiple roots, and multiple roots are never certified,
    their inclusion disks overlap.  The points are accepted by
    _certified alone.
    """
    estimates = np.asarray(estimates, dtype=np.complex128)
    if len(estimates) and np.abs(estimates).max() > max(_ESTIMATE_CUT, radius):
        return None
    scaled = core * radius ** np.arange(len(core))
    # a step can overflow where G' nearly vanishes, and a nan iterate
    # never becomes the best one; no RuntimeWarning may leak
    with np.errstate(all="ignore"):
        return (radius * _polish_all(scaled, estimates / radius)).tolist()


def _certified(roots: list, core: np.ndarray, radius: float, split: float) -> bool:
    """Whether each root holds its own zero of core inside |z| < radius,
    on a known side of |z| = split.

    With n = deg core and e = 2 (n + 1) u times the Horner sums of |c_k|,
    each root a must be a root to working precision,
    |F(a)| <= e sum |c_k| |a|^k, and the Newton inclusion disks
    |z - a| <= n (|F(a)| + e sum |c_k| |a|^k) / (|F'(a)| - e sum k |c_k| |a|^(k-1)),
    each of which holds a zero of F, must lie inside |z| < radius, be
    pairwise disjoint and not meet |z| = split.  Against a count of
    len(roots) zeros in |z| < radius, every inclusion disk then holds
    exactly one, and the roots inside split are the zeros there.
    """
    n = len(core) - 1
    desc = core[::-1].tolist()
    abs_desc = np.abs(core[::-1]).tolist()
    rel = 2 * (n + 1) * _U
    centres = []
    radii = []
    for a in roots:
        p, dp = _horner_pair(desc, a)
        scale, dscale = _horner_pair(abs_desc, abs(a))
        err = rel * scale
        slope = abs(dp) - rel * dscale
        if not (abs(p) <= err and slope > 0):
            return False
        r = n * (abs(p) + err) / slope
        if not abs(a) + r < radius:
            return False
        # with radius = split, the test above has settled this one
        if not (abs(a) + r < split or abs(a) - r > split):
            return False
        centres.append(a)
        radii.append(r)
    for i in range(len(centres)):
        for j in range(i):
            if abs(centres[i] - centres[j]) <= radii[i] + radii[j]:
                return False
    return True


def find_roots_in_disk(f, opts: RootOptions | None = None) -> RootSet:
    """All roots of f inside the open unit disk, with multiplicity.

    Exact zero low coefficients give roots at the origin, and
    rounding-dust top coefficients are dropped; the rest, F, has its
    roots estimated from one of two sources.  First the power sums:
    the Fourier coefficients of z F'/F on a circle |z| = r give the
    count m of zeros inside r and their power sums, hence their monic
    polynomial p of degree m, whose companion eigenvalues are the
    estimates (_power_sum_estimates).  The grid resolves the tail of
    z F'/F to sqrt(1e-6), which leaves about 1e-6 in the entries read,
    and doubles while the count lies further than 1e-6 from an integer.
    r is R = 1 + boundary_margin unless a zero so close to R that its
    grid would be large moves the circle out into a root-free gap,
    below 1.25.  The estimates are Newton-polished all at once against
    F (_power_sum_roots), and the m polished points stand only on their
    certificate (_certified): each a root of F to working precision,
    with Newton inclusion disks pairwise disjoint, inside |z| < r and
    clear of |z| = R, so that the points inside R are F's zeros there.
    Those with |alpha| < 1 - boundary_margin are the interior roots,
    those up to R are near_boundary, and those beyond R are dropped.
    Otherwise the estimates are the eigenvalues of F's own degree-n
    companion in the variable z / rho, rho the geometric mean of the
    root moduli; the scaling brings the constant and leading
    coefficients to modulus 1, and without it roots with moduli from
    0.2 to 0.8 come out 1e-1 off already at degree 60.  These are
    polished one at a time against F deflated by the roots accepted so
    far and kept by the residual and Newton-step rules (_accept_roots),
    which pick up multiple roots one copy at a time;
    RootOptions.residual_tol_for acts only there.
    """
    opts = opts or RootOptions()
    f = as_series(f)
    trimmed = f.trim()
    if len(trimmed) == 0:
        raise ZeroSeries("the zero series has no root structure")
    if len(trimmed) == 1:
        return RootSet()
    coeffs = trimmed.coeffs
    # exact zero leading coefficients are structural roots at the origin
    lead = 0
    while lead < len(coeffs) and coeffs[lead] == 0:
        lead += 1
    origin = [0j] * lead
    core = coeffs[lead:]
    # rounding-dust top coefficients put fake roots far outside the
    # disk and can overflow the monic scaling; dropping them perturbs
    # values in the closed disk by less than the residual tolerance
    mag = np.max(np.abs(core))
    while len(core) > 1 and abs(core[-1]) <= 1e-16 * mag:
        core = core[:-1]
    if len(core) < 2:
        return RootSet.ordered(origin)
    margin = opts.boundary_margin
    radius = 1.0 + margin
    found = _power_sum_estimates(core, radius)
    if found is not None:
        estimates, outer = found
        roots = _power_sum_roots(estimates, core, outer)
        if roots is not None and _certified(roots, core, outer, radius):
            interior = [a for a in roots if abs(a) < 1.0 - margin]
            near = [a for a in roots if 1.0 - margin <= abs(a) <= radius]
            return RootSet.ordered(origin + interior, near)
    # Horner reads highest degree first; f is turned into a list of
    # Python complex once, not once per evaluation
    interior, near = _accept_roots(
        _companion_roots(core), coeffs[::-1].tolist(), core, opts.residual_tol_for(f), margin
    )
    return RootSet.ordered(origin + interior, near)


def _interior_zero_count(g) -> int:
    """Winding number of g on the unit circle: its zeros in the open disk.

    g and z g' are sampled on a grid of the next power of two >= 16 len(g)
    points.  An arc counts once the phase of g turns by at most pi/4
    across it and the first-order step |z g'| h from its left end, h
    the arc's angle, stays below |g| there; the principal angle of
    g(right) / g(left) is then its share of the turn.  The few arcs that
    fail either test are bisected level by level on Python complex, each
    midpoint by Horner.  Raises ChainInconsistent where |g| at a sample
    falls to u * ||c||_2, the size of the rounding error of one sample:
    the phase of g, and so the count, is not fixed there.  Raises it too
    where the bisection would take more Horner evaluations than the grid
    has points: arcs that keep failing the tests at every halving are
    arcs where rounding error, not g, sets the phase.
    """
    c = as_series(g).coeffs
    n = len(c)
    if n <= 1:
        return 0
    size = 1 << int(np.ceil(np.log2(16 * n)))
    h = 2 * np.pi / size
    # a sample can be exactly 0: the floor check raises before anything
    # divides by it in Python, and no RuntimeWarning may leak
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # sum (k + 1) |c_k| bounds |g| and |z g'| on the circle; past the
        # double range no arc would ever be accepted
        if not np.isfinite(np.dot(np.arange(1.0, n + 1), np.abs(c))):
            raise ChainInconsistent(
                "zero-free part is too large to sample on the unit circle"
            )
        floor = _U * _coeff_norm(c)
        # g and z g' through one zero-padded buffer, which then holds
        # g(right) / g(left) for arc k, from sample k to sample k + 1
        ratio = np.zeros(size, dtype=np.complex128)
        ratio[:n] = c
        values = np.fft.ifft(ratio, norm="forward")
        ratio[:n] *= np.arange(n)
        derivs = np.fft.ifft(ratio, norm="forward")
        mags = np.abs(values)
        ratio[:-1] = values[1:]
        ratio[-1] = values[0]
        np.divide(ratio, values, out=ratio)
        turn = np.angle(ratio)
        ok = (np.abs(turn) <= np.pi / 4) & (np.abs(derivs) * h < mags)
        turn_total = float(np.sum(turn[ok]))
    # per failing arc: left angle, g and z g' at the left end, g at the right end
    arcs = [(h * k, complex(values[k]), complex(derivs[k]), complex(values[k + 1 - size]))
            for k in np.flatnonzero(~ok).tolist()]
    desc = c[::-1].tolist()
    budget = size
    # the least |g| among the newest samples, and its angle
    j = int(np.argmin(mags))
    low, theta = mags[j], h * j
    split = []
    while True:
        if low <= floor:
            raise ChainInconsistent(
                f"zero-free part has |g| = {low:.3g} at angle {theta:.17g} on the "
                f"unit circle, at or below the rounding floor {floor:.3g}: its zero "
                f"count is not determined"
            )
        for arc in split:
            turn = cmath.phase(arc[3] / arc[1])
            if abs(turn) <= np.pi / 4 and abs(arc[2]) * h < abs(arc[1]):
                turn_total += turn
            else:
                arcs.append(arc)
        if not arcs:
            return round(turn_total / (2 * np.pi))
        budget -= len(arcs)
        if budget < 0:
            theta, left = min(arcs, key=lambda arc: abs(arc[1]))[:2]
            raise ChainInconsistent(
                f"zero-free part's phase on the unit circle does not settle within "
                f"{size} bisection evaluations; near angle {theta:.17g}, "
                f"where |g| = {abs(left):.3g}, arcs still turn too fast: "
                f"its zero count is not determined"
            )
        h /= 2
        # each arc splits into [left, mid] and [mid, right]
        split = []
        for theta, left, dleft, right in arcs:
            z = cmath.exp(1j * (theta + h))
            mid, dmid = _horner_pair(desc, z)
            split += [(theta, left, dleft, mid), (theta + h, mid, z * dmid, right)]
        arcs = []
        low, theta = min((abs(arc[1]), arc[0]) for arc in split[1::2])


def _reflect(f, alpha) -> tuple[CoefficientSeries, CoefficientSeries]:
    """(H, (1 - conj(alpha) z) H) for H = f / (z - alpha), one deflate; raises as reflect_root."""
    f = as_series(f)
    alpha = complex(alpha)
    if not abs(alpha) < 1:
        raise DomainError(f"|alpha| = {abs(alpha)} is not inside the unit disk")
    tol = RootOptions().residual_tol_for(f)
    quotient, remainder = deflate(f, alpha)
    if abs(remainder) > tol:
        raise NotARoot(f"|f(alpha)| = {abs(remainder)} exceeds tolerance {tol}")
    return quotient, multiply_conjugate_linear(quotient, alpha)


def reflect_root(f, alpha) -> CoefficientSeries:
    """Replace the factor (z - alpha) of f by (1 - conj(alpha) z).

    alpha must lie inside the open disk, else DomainError, and be a root:
    the deflation remainder f(alpha) must clear residual_tol_for(f) of
    RootOptions, as in decompose, else NotARoot.  The reflected
    function has the same boundary modulus as f.
    """
    return _reflect(f, alpha)[1]


@dataclass(frozen=True)
class DecompositionChain:
    """Record of a full reflection sweep F = F_0 -> F_1 -> ... -> g.

    stages[k] is F_k: stages[0] is the input f and stages[-1] the
    zero-free part g.  h_list[k] is the deflation quotient
    H_k = F_k / (z - alpha_{k+1}) shared by the stage update
    F_{k+1} = (1 - conj(alpha_{k+1}) z) H_k and by every norm identity
    attached to the step.
    """

    stages: tuple
    h_list: tuple
    roots: RootSet

    @property
    def f(self) -> CoefficientSeries:
        return self.stages[0]

    @property
    def g(self) -> CoefficientSeries:
        return self.stages[-1]

    def blaschke_series(self, cap: int) -> CoefficientSeries:
        """Truncated coefficients of B = prod (z - a_j) / (1 - conj(a_j) z).

        Exact through the cap: every product and geometric division
        only feeds lower-order terms into lower-order terms.
        """
        out = np.zeros(cap + 1, dtype=np.complex128)
        out[0] = 1.0
        for alpha in self.roots:
            # times (z - alpha): b_k -> b_(k-1) - alpha b_k
            shifted = np.multiply(out, -alpha)
            np.add(shifted[1:], out[:-1], shifted[1:])
            out = divide_conjugate_linear(shifted, alpha, cap).coeffs if alpha else shifted
        return CoefficientSeries(out)

    @cached_property
    def zero_free_quotients(self) -> tuple[int, tuple]:
        """The extension cap T = geometric_extension_cap(len(g), roots) and
        the quotients g / (1 - conj(a_j) z) through degree T, one per root.

        Computed at the first read and kept, so that every claim on the
        zero-free part shares one set of divisions.
        """
        ext = geometric_extension_cap(len(self.g), self.roots.roots)
        return ext, tuple(divide_conjugate_linear(self.g, a, ext) for a in self.roots)

    def correction_terms(self, w) -> list[float]:
        """Per-root norm drops (1 - |a_k|^2) * y_seminorm_sq(H_k, w)."""
        return [
            (1.0 - abs(a) ** 2) * _weights.y_seminorm_sq(h, w)
            for a, h in zip(self.roots, self.h_list)
        ]

    def to_json_dict(self) -> dict:
        return {
            "coeffs": self.g.to_json_dict()["coeffs"],
            "roots": self.roots.to_json_dict(),
            "stages": [s.to_json_dict()["coeffs"] for s in self.stages],
            "h_list": [h.to_json_dict()["coeffs"] for h in self.h_list],
        }


def decompose(f, opts: RootOptions | None = None) -> DecompositionChain:
    """Factor f into a Blaschke product times a disk-zero-free part.

    Roots are reflected in increasing order of modulus; roots in
    near_boundary are neither reflected nor counted.  The chain is
    checked for internal consistency: every deflation remainder must be
    below tolerance, and the Hardy norm of g must match that of f to
    within 1e-9 relative.  g, deflated by the near_boundary roots, must
    have winding number 0 on the unit circle, that is no zeros in the
    open disk; no second root find is run.  The count raises
    ChainInconsistent where |g| on the circle falls to the rounding
    floor u * ||c||_2 (u = 2^-52, c the coefficients of g), below
    which the phase of a sample, and so the count, is not determined,
    and where the count's bisection runs past its evaluation budget.
    """
    opts = opts or RootOptions()
    f = as_series(f)
    rs = find_roots_in_disk(f, opts)
    tol = opts.residual_tol_for(f)
    stages = [f]
    h_list = []
    cur = f
    for alpha in rs.roots:
        quotient, remainder = deflate(cur, alpha)
        if abs(remainder) > tol:
            raise ChainInconsistent(
                f"deflation residual {abs(remainder)} at root {alpha} "
                f"exceeds tolerance {tol}"
            )
        h_list.append(quotient)
        cur = multiply_conjugate_linear(quotient, alpha)
        stages.append(cur)
    g = cur
    # quarantined roots are neither reflected nor counted
    counted = g
    try:
        for alpha in rs.near_boundary:
            counted = deflate(counted, alpha)[0]
    except InvalidSeries as exc:
        raise ChainInconsistent(
            f"zero-free part overflows when deflated by the "
            f"{len(rs.near_boundary)} near-boundary roots"
        ) from exc
    leftover = _interior_zero_count(counted)
    if leftover:
        raise ChainInconsistent(f"zero-free part still has {leftover} interior roots")
    norm_in = _coeff_norm(f.coeffs)
    norm_out = _coeff_norm(g.coeffs)
    # squaring the ratio, not the norms, stays in the double range
    ratio = norm_out / norm_in
    if abs(ratio * ratio - 1.0) > _CHAIN_H2_RTOL:
        raise ChainInconsistent(
            f"Hardy norm drifted from {norm_in} to {norm_out} across the chain"
        )
    return DecompositionChain(tuple(stages), tuple(h_list), rs)


def blaschke_eval(roots, z) -> complex:
    """Evaluate B(z) = prod (z - a) / (1 - conj(a) z), the Blaschke
    product of the chain, over the roots with multiplicity.

    roots may be a RootSet or any iterable of points inside the disk; a
    root at 0 is the factor z.  z must lie in the closed disk.
    """
    zs = np.asarray([complex(z)], dtype=np.complex128)
    if not abs(zs[0]) <= 1 + 1e-12:
        raise DomainError("evaluation point lies outside the closed unit disk")
    # by keyword: bench/layers.py sizes the call from args[3] or kwargs["points"]
    return complex(blaschke_eval_many(roots, points=zs)[0])


def blaschke_eval_many(roots, points) -> np.ndarray:
    """Vectorized blaschke_eval over an array of points in the closed disk.

    The points are not checked; every root is checked before any work.
    The points are walked in blocks of 2^14, whose points, output and
    three scratch buffers stay in cache while every factor passes over
    them; each point sees the same operations in the same order, so the
    values do not depend on the shape or length of points.  Within a
    point block the factors (z - a) and (1 - conj(a) z) are multiplied
    up over blocks of 16 roots, and each costs one division over the
    points.  For |z| <= 1, |z - a| < 2 and |1 - conj(a) z| >= 1 - |a| >=
    2^-53, so each root block product lies between 2^-848 and 2^16.
    Outside the disk a denominator can vanish.
    """
    roots = [complex(a) for a in roots]
    for a in roots:
        if not abs(a) < 1:
            raise DomainError(f"Blaschke factor root {a} is not inside the unit disk")
    points = np.asarray(points, dtype=np.complex128)
    z_all = points.reshape(-1)
    out_all = np.ones(z_all.shape, np.complex128)
    # three buffers of one point block, shared by every factor, so that
    # no factor allocates
    scratch = np.empty((3, min(z_all.size, _GRID_BLOCK)), np.complex128)
    for lo in range(0, z_all.size, _GRID_BLOCK):
        z = z_all[lo:lo + _GRID_BLOCK]
        out = out_all[lo:lo + _GRID_BLOCK]
        num, den, factor = scratch[:, :z.size]
        for start in range(0, len(roots), _FACTOR_BLOCK):
            first, *rest = roots[start:start + _FACTOR_BLOCK]
            np.subtract(z, first, out=num)
            np.multiply(first.conjugate(), z, out=den)
            np.subtract(1.0, den, out=den)
            for a in rest:
                np.subtract(z, a, out=factor)
                num *= factor
                np.multiply(a.conjugate(), z, out=factor)
                np.subtract(1.0, factor, out=factor)
                den *= factor
            out *= num
            out /= den
    return out_all.reshape(points.shape)


def boundary_modulus_gap(f, g) -> float:
    """Largest relative gap between |f| and |g| on a boundary grid.

    Both inputs are treated as exact polynomials and sampled by
    boundary_samples on the least power of two at least 4 times the
    longer length, so the samples determine the coefficients exactly
    and the check is complete.
    """
    f = as_series(f)
    g = as_series(g)
    k = 1 << int(np.ceil(np.log2(4 * max(len(f), len(g), 1))))
    vf = np.abs(boundary_samples(f, k))
    vg = np.abs(boundary_samples(g, k))
    scale = max(float(np.max(vf)), float(np.max(vg)), 1e-300)
    return float(np.max(np.abs(vf - vg)) / scale)


def reflection_identity_gap(f, alpha, w) -> tuple[float, float]:
    """Both sides of the one-step norm drop identity.

    Returns (lhs, rhs) where lhs = x_norm_sq(reflected f) and
    rhs = x_norm_sq(f) - (1 - |alpha|^2) * y_seminorm_sq(H) with H the
    deflation quotient, taken from the same deflate as the reflection.
    For a true root these agree to rounding; raises as reflect_root does.
    """
    f = as_series(f)
    quotient, reflected = _reflect(f, alpha)
    lhs = _weights.x_norm_sq(reflected, w)
    rhs = _weights.x_norm_sq(f, w) - (1.0 - abs(complex(alpha)) ** 2) * _weights.y_seminorm_sq(quotient, w)
    return lhs, rhs

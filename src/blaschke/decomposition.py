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
    _integral,
    _real,
    deflate,
    divide_conjugate_linear,
    multiply_conjugate_linear,
)
from . import weights as _weights

# most Newton steps a polish takes: _newton_polish stops earlier once a
# step falls below 1e-16 (1 + |z|), and _polish_all, on the power-sum
# route, once every step is within 4u of its point, so it rarely gets here
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
# >= 2^-53, so a product of 16 of either lies between 2^-848 and 2^16;
# in the circle form |z - a| >= |z| - |a| is about 4u, above 2^-53 too
_FACTOR_BLOCK = 16
# blaschke_eval_many takes its circle form where every point's computed
# modulus is within this of 1 and every root at least twice as far inside
_CIRCLE_BAND = 4 * _U
# points blaschke_eval_many walks at once: its four buffers (the points,
# the output and two scratch) of 2^13 complex values take 512 KB, which
# fits a 2 MB L2 cache; past 2^14 points a block is at most a quarter of
# them, so its scratch is at most half a grid from there on
_POINT_BLOCK = 1 << 13


# roots with 1 - |alpha| < margin are held in near_boundary, never reflected:
# the stand-in for the hypothesis that every root lies strictly inside the disk
DEFAULT_MARGIN = 1e-10


def _residual_tol(norm: float) -> float:
    """1e-8 * (1 + ||f||_H2), from norm = ||f||_H2: the bound on |f(alpha)|
    where no certificate covers a root, that is the companion fallback's
    acceptance test and the deflation remainders of decompose and
    reflect_root."""
    return 1e-8 * (1.0 + norm)


def _root_sort_key(a: complex):
    return (abs(a), cmath.phase(a))


@dataclass(frozen=True)
class RootSet:
    """Roots of a series inside the open unit disk.

    Each field takes any iterable of points and holds a tuple of complex,
    sorted by increasing modulus, ties by principal argument; repeated
    entries encode multiplicity.  Roots within the margin of the unit
    circle are held in near_boundary and are not counted as interior roots.
    """

    roots: tuple = ()
    near_boundary: tuple = ()

    def __post_init__(self):
        for name in ("roots", "near_boundary"):
            points = sorted((complex(a) for a in getattr(self, name)), key=_root_sort_key)
            object.__setattr__(self, name, tuple(points))

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
        earlier versions wrote, is ignored.  The "roots" key is required,
        every entry must be finite and origin_multiplicity, where given,
        an integer >= 0, else InvalidSpec."""
        try:
            roots = [complex(re, im) for re, im in data["roots"]]
            origin = data.get("origin_multiplicity", 0)
            nb = [complex(re, im) for re, im in data.get("near_boundary", [])]
        except KeyError as exc:
            raise InvalidSpec(f"root JSON has no {exc} key") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed root JSON: {exc}") from exc
        origin = _integral(origin, "origin_multiplicity", 0)
        for key, points in (("roots", roots), ("near_boundary", nb)):
            if not all(map(cmath.isfinite, points)):
                raise InvalidSpec(f"root JSON key {key!r} holds a non-finite entry")
        return cls([0j] * origin + roots, nb)


def _horner_pair(coeffs: list, z: complex) -> tuple[complex, complex]:
    """Value and derivative at z in one pass; coeffs run from the highest
    degree down.  The sums start from a zero of z's type, so on float
    coefficients at a float point they run on floats, with the bits of the
    complex pass's real parts."""
    p = dp = type(z)()
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: list, z: complex) -> complex:
    """Refine a root estimate; returns the iterate with smallest |p|.

    coeffs run from the highest degree down.  Each iterate, the last
    one too, takes one _horner_pair pass.
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
    holds the coefficients in w = z / radius.  Each transform runs in
    place: F and z F' are zero-padded into two grid-sized buffers, the
    quotient overwrites z F' and c overwrites the quotient, so no more
    than two grids are held at once.  c_0 counts the zeros
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
    values = np.zeros(size, dtype=np.complex128)
    values[:n] = scaled
    np.fft.ifft(values, norm="forward", out=values)
    c = np.zeros(size, dtype=np.complex128)
    c[:n] = derivative
    np.fft.ifft(c, norm="forward", out=c)
    np.divide(c, values, out=c)
    del values
    np.fft.fft(c, norm="forward", out=c)
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
    base = 1 << (16 * n - 1).bit_length()
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
            size = max(2 * size, 1 << (math.ceil(grid) - 1).bit_length())
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
    tol, _residual_tol of ||f||_H2, the raw estimate being tried in its place
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


def _power_blocks(w: np.ndarray, n: int):
    """The powers w^k, k < n, of every point of w, a block of rows at a
    time, at most _POLISH_BLOCK entries and one row at least: yields each
    block's row slice and its powers, running products
    (np.multiply.accumulate) in one buffer that every block reuses."""
    rows = max(1, _POLISH_BLOCK // n)
    powers = np.empty((min(rows, len(w)), n), dtype=np.complex128)
    for lo in range(0, len(w), rows):
        block = w[lo : lo + rows]
        v = powers[: len(block)]
        v[:, 0] = 1.0
        v[:, 1:] = block[:, None]
        np.multiply.accumulate(v, axis=1, out=v)
        yield slice(lo, lo + rows), v


def _pairs_at(coeffs: np.ndarray, dcoeffs: np.ndarray, w: np.ndarray):
    """Values and derivatives of G(w) = sum coeffs_k w^k at every point of w.

    dcoeffs holds k coeffs_k for k >= 1.  Each block of the power matrix
    (_power_blocks) takes two matrix-vector products.
    """
    values = np.empty(len(w), dtype=np.complex128)
    derivs = np.empty(len(w), dtype=np.complex128)
    for rows, v in _power_blocks(w, len(coeffs)):
        values[rows] = v @ coeffs
        derivs[rows] = v[:, :-1] @ dcoeffs
    return values, derivs


def _polish_all(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Newton steps on every root estimate w of G(w) = sum coeffs_k w^k at
    once; returns for each point the iterate with the smallest |G|.

    Every step evaluates all points (_pairs_at).  The steps stop, before
    that evaluation, once every point's step is within 4u of the point
    (|step| <= 4u |w|, u = 2^-52): each point is then a root to rounding,
    and the step would move it by rounding alone.  Otherwise they stop
    once no point lowers its |G|, or after _NEWTON_STEPS.  A point whose
    step is not finite turns nan, never passes the rounding test, and is
    kept at its best earlier iterate.
    """
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    values, derivs = _pairs_at(coeffs, dcoeffs, w)
    best, best_val = w, np.abs(values)
    for _ in range(_NEWTON_STEPS):
        step = values / derivs
        if (np.abs(step) <= 4 * _U * np.abs(w)).all():
            break
        w = w - step
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
    w^k overflows at any degree.  _polish_all stops once every step is
    within rounding of its point, or once no point lowers |G|.  No root
    is deflated: deflation only separates multiple roots, and multiple
    roots are never certified, their inclusion disks overlap.  The
    points are accepted by _certified alone.
    """
    estimates = np.asarray(estimates, dtype=np.complex128)
    if len(estimates) and np.abs(estimates).max() > max(_ESTIMATE_CUT, radius):
        return None
    scaled = core * radius ** np.arange(len(core))
    # a step can overflow where G' nearly vanishes, and a nan iterate
    # never becomes the best one; no RuntimeWarning may leak
    with np.errstate(all="ignore"):
        return (radius * _polish_all(scaled, estimates / radius)).tolist()


def _bounded_pairs(a: np.ndarray, core: np.ndarray):
    """F(a) and F'(a) at every point of a, F = core of degree n, with
    bounds e and e' on their rounding errors: yields them as four arrays
    per block of the power matrix (_power_blocks).

    In the model of Higham (Accuracy and Stability of Numerical
    Algorithms, 2nd ed.), with unit roundoff u/2 = 2^-53: a^k is k - 1
    complex products, each within sqrt(2) gamma_2 (lemma 3.5); k c_k
    rounds within u/2; and each part of a matrix-vector product over
    N <= n + 1 terms is a sum of 2N real products, taken in whatever
    order BLAS takes them, fused or not, so within gamma_2N of its sum
    of |products|, and the product within sqrt(2) gamma_2N sum |c_k a^k|.
    To first order, term k of F or of F' then errs by at most
    2 sqrt(2) (n + 1 + k) u/2 times its weight, |c_k| |a|^k or
    k |c_k| |a|^(k-1).  u in place of u/2 covers the higher-order terms
    and the rounding of the bounds
        e = 2 sqrt(2) u sum (n + 1 + k) |c_k| |a|^k,
        e' = 2 sqrt(2) u sum (n + 1 + k) k |c_k| |a|^(k-1),
    summed over the moduli of the computed powers.
    """
    n = len(core) - 1
    k = np.arange(1.0, n + 1)
    dcore = core[1:] * k
    weights = np.abs(core)
    weights *= np.arange(n + 1.0, 2 * n + 1.5) * (2 * math.sqrt(2) * _U)
    dweights = weights[1:] * k
    for _, v in _power_blocks(a, n + 1):
        mags = np.abs(v)
        yield v @ core, v[:, :-1] @ dcore, mags @ weights, mags[:, :-1] @ dweights


def _certified(roots: list, core: np.ndarray, radius: float, split: float) -> bool:
    """Whether each root holds its own zero of core inside |z| < radius,
    on a known side of |z| = split.

    With n = deg core, and F(a), F'(a) and the bounds e, e' on their
    errors from _bounded_pairs, each root a must be a root to working
    precision, |F(a)| <= e, and the Newton inclusion disks
    |z - a| <= n (|F(a)| + e) / (|F'(a)| - e'), each of which holds a
    zero of F, must lie inside |z| < radius, be pairwise disjoint and not
    meet |z| = split.  Against a count of len(roots) zeros in
    |z| < radius, every inclusion disk then holds exactly one, and the
    roots inside split are the zeros there.  A sum that overflows fails.
    """
    if not roots:
        return True
    n = len(core) - 1
    a = np.array(roots, dtype=np.complex128)
    # |F(a)|, |F'(a)| - e' and e, root by root
    sums = []
    # inf or nan fails every test below, and no RuntimeWarning may leak
    with np.errstate(all="ignore"):
        for values, derivs, errs, derrs in _bounded_pairs(a, core):
            sums += zip(np.abs(values).tolist(), (np.abs(derivs) - derrs).tolist(), errs.tolist())
    radii = []
    for z, (p, slope, err) in zip(roots, sums):
        if not (p <= err and slope > 0):
            return False
        r = n * (p + err) / slope
        if not abs(z) + r < radius:
            return False
        # with radius = split, the test above has settled this one
        if not (abs(z) + r < split or abs(z) - r > split):
            return False
        # nor meet an earlier root's disk; m is mostly a few roots, where
        # a loop over pairs costs less than an m x m array
        for w, s in zip(roots, radii):
            if abs(z - w) <= r + s:
                return False
        radii.append(r)
    return True


def find_roots_in_disk(f, margin: float = DEFAULT_MARGIN) -> RootSet:
    """All roots of f inside the open unit disk, with multiplicity.

    margin is a real number in [0, 1), not a bool, else InvalidSpec naming
    it ("boundary margin must lie in [0, 1), got 1.0") before any root is
    sought.  Exact zero low coefficients give roots at the origin, and
    rounding-dust top coefficients are dropped; the rest, F, has its
    roots estimated from one of two sources.  First the power sums:
    the Fourier coefficients of z F'/F on a circle |z| = r give the
    count m of zeros inside r and their power sums, hence their monic
    polynomial p of degree m, whose companion eigenvalues are the
    estimates (_power_sum_estimates).  The grid resolves the tail of
    z F'/F to sqrt(1e-6), which leaves about 1e-6 in the entries read,
    and doubles while the count lies further than 1e-6 from an integer.
    r is R = 1 + margin unless a zero so close to R that its
    grid would be large moves the circle out into a root-free gap,
    below 1.25.  The estimates are Newton-polished all at once against
    F (_power_sum_roots) until every step is within 4u of its point, or
    no point lowers |F|, and the m polished points stand only on their
    certificate (_certified): F and F' evaluated at all of them from one
    matrix of their powers, under a bound on the rounding error of that
    evaluation in complex arithmetic (_bounded_pairs), each a root of F
    to working precision, with Newton inclusion disks pairwise disjoint,
    inside |z| < r and clear of |z| = R, so that the points inside R are
    F's zeros there.
    Those with |alpha| < 1 - margin are the interior roots,
    those up to R are near_boundary, and those beyond R are dropped.
    Otherwise the estimates are the eigenvalues of F's own degree-n
    companion in the variable z / rho, rho the geometric mean of the
    root moduli; the scaling brings the constant and leading
    coefficients to modulus 1, and without it roots with moduli from
    0.2 to 0.8 come out 1e-1 off already at degree 60.  These are
    polished one at a time against F deflated by the roots accepted so
    far and kept by the residual and Newton-step rules (_accept_roots),
    which pick up multiple roots one copy at a time; the residual
    tolerance, _residual_tol of ||f||_H2, acts only there.
    """
    if not 0 <= _real(margin, "boundary margin") < 1:
        raise InvalidSpec(f"boundary margin must lie in [0, 1), got {margin!r}")
    margin = float(margin)
    f = as_series(f)
    nonzero = np.flatnonzero(f.coeffs)
    if not len(nonzero):
        raise ZeroSeries("the zero series has no root structure")
    # exact zero low coefficients are structural roots at the origin, and
    # exact zero top ones are no part of f
    lead, last = nonzero[[0, -1]].tolist()
    coeffs = f.coeffs[: last + 1]
    origin = [0j] * lead
    core = coeffs[lead:]
    # rounding-dust top coefficients put fake roots far outside the
    # disk and can overflow the monic scaling; dropping them perturbs
    # values in the closed disk by less than the residual tolerance
    mag = np.max(np.abs(core))
    while len(core) > 1 and abs(core[-1]) <= 1e-16 * mag:
        core = core[:-1]
    if len(core) < 2:
        return RootSet(origin)
    radius = 1.0 + margin
    found = _power_sum_estimates(core, radius)
    if found is not None:
        estimates, outer = found
        roots = _power_sum_roots(estimates, core, outer)
        if roots is not None and _certified(roots, core, outer, radius):
            interior = [a for a in roots if abs(a) < 1.0 - margin]
            near = [a for a in roots if 1.0 - margin <= abs(a) <= radius]
            return RootSet(origin + interior, near)
    # Horner reads highest degree first; f is turned into a list of
    # Python complex once, not once per evaluation
    tol = _residual_tol(_coeff_norm(f.coeffs))
    interior, near = _accept_roots(_companion_roots(core), coeffs[::-1].tolist(), core, tol, margin)
    return RootSet(origin + interior, near)


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
    size = 1 << (16 * n - 1).bit_length()
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
        # g, transformed in the buffer it is padded in
        values = np.zeros(size, dtype=np.complex128)
        values[:n] = c
        np.fft.ifft(values, norm="forward", out=values)
        mags = np.abs(values)
        # a second buffer holds g(right) / g(left) for arc k, from sample
        # k to sample k + 1, and then z g', padded and transformed in place
        derivs = np.empty(size, dtype=np.complex128)
        derivs[:-1] = values[1:]
        derivs[-1] = values[0]
        np.divide(derivs, values, out=derivs)
        turn = np.angle(derivs)
        derivs.fill(0)
        np.multiply(c, np.arange(n), out=derivs[:n])
        np.fft.ifft(derivs, norm="forward", out=derivs)
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


def reflect_root(f, alpha) -> CoefficientSeries:
    """Replace the factor (z - alpha) of f by (1 - conj(alpha) z).

    alpha must lie inside the open disk, else DomainError, and be a root:
    the deflation remainder f(alpha) must clear _residual_tol of
    ||f||_H2, as in decompose, else NotARoot.  The reflected function
    has the same boundary modulus as f.
    """
    f = as_series(f)
    alpha = complex(alpha)
    if not abs(alpha) < 1:
        raise DomainError(f"|alpha| = {abs(alpha)} is not inside the unit disk")
    tol = _residual_tol(_coeff_norm(f.coeffs))
    quotient, remainder = deflate(f, alpha)
    if abs(remainder) > tol:
        raise NotARoot(f"|f(alpha)| = {abs(remainder)} exceeds tolerance {tol}")
    return multiply_conjugate_linear(quotient, alpha)


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
        only feeds lower-order terms into lower-order terms.  cap must
        be an integer >= 0, else InvalidSpec.
        """
        cap = _integral(cap, "cap", 0)
        out = np.zeros(cap + 1, dtype=np.complex128)
        out[0] = 1.0
        for alpha in self.roots:
            # times (z - alpha): b_k -> b_(k-1) - alpha b_k
            shifted = np.multiply(out, -alpha)
            np.add(shifted[1:], out[:-1], shifted[1:])
            out = divide_conjugate_linear(shifted, alpha, cap).coeffs if alpha else shifted
        return CoefficientSeries(out)

    @cached_property
    def zero_free_quotients(self) -> tuple:
        """The quotients g / (1 - conj(a_j) z), one per root, through the
        degree of g.

        Each reflection multiplies in the factor (1 - conj(a_j) z), and
        the later deflations by (z - a_k) keep it, so every quotient is a
        polynomial of degree below that of g.  Its coefficients come from
        the recurrence d_n = g_n + conj(a_j) d_(n-1); the top one, d at
        the degree of g, is the remainder of the division, exactly 0 in
        exact arithmetic and rounding alone in floating point.  For a
        root at 0 the quotient is g itself.

        Computed at the first read and kept, so that every claim on the
        zero-free part shares one set of divisions.
        """
        degree = len(self.g) - 1
        return tuple(divide_conjugate_linear(self.g, a, degree) for a in self.roots)

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


def decompose(f, margin: float = DEFAULT_MARGIN) -> DecompositionChain:
    """Factor f into a Blaschke product times a disk-zero-free part.

    Roots are reflected in increasing order of modulus; roots within margin
    of the circle (near_boundary) are neither reflected nor counted.  The chain is
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
    f = as_series(f)
    rs = find_roots_in_disk(f, margin)
    # ||f||_H2 sets both the deflation tolerance and the drift check
    norm_in = _coeff_norm(f.coeffs)
    tol = _residual_tol(norm_in)
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
    norm_out = _coeff_norm(g.coeffs)
    # squaring the ratio, not the norms, stays in the double range
    ratio = norm_out / norm_in
    if abs(ratio * ratio - 1.0) > _CHAIN_H2_RTOL:
        raise ChainInconsistent(
            f"Hardy norm drifted from {norm_in} to {norm_out} across the chain"
        )
    return DecompositionChain(tuple(stages), tuple(h_list), rs)


def blaschke_eval_many(roots, points) -> np.ndarray:
    """B(z) = prod (z - a) / (1 - conj(a) z), the Blaschke product of the
    chain, at an array of points in the closed disk.

    roots may be a RootSet or any iterable of points inside the disk,
    taken with multiplicity; a root at 0 is the factor z.

    Every root is checked before any work, and then every point: a
    point farther than 1e-12 outside the closed disk raises DomainError,
    since outside it a denominator can vanish, and so does a point
    within that slack that sits on a pole 1/conj(a).  One of two forms
    is chosen for the whole call.

    The circle form is taken where every point's computed modulus lies
    within 4u of 1 (u = 2^-52) and every root at least 8u inside the
    circle.  On |z| = 1, 1 - conj(a) z = z conj(z - a), so with K the
    number of nonzero roots
        B(z) = z^(zeros - K) prod (z - a) / conj(z - a),
    the product over the nonzero roots: two array passes per root, no
    subtraction that cancels near a root's direction, and every factor
    unimodular to rounding.  The power is taken by repeated squaring of
    z, or of conj(z) = 1/z where it is negative.  Any other call, with a
    point inside the disk or a root nearer the circle, takes the
    quotient form prod (z - a) / (1 - conj(a) z), five passes per root.

    The points are walked in blocks of 2^13, or of a quarter of the
    points where that is less and there are more than 2^14, whose
    points, output and two scratch buffers stay in cache while every
    factor passes over them.  Within a point block the factors (z - a)
    are multiplied up over blocks of 16 roots into one scratch buffer
    and the block output is multiplied by that product; the circle form
    then divides by the product's conjugate, the quotient form multiplies
    the factors (1 - conj(a) z) of the same roots up in the same buffer
    and divides by them.  For |z| <= 1, |z - a| < 2 and
    |1 - conj(a) z| >= 1 - |a| >= 2^-53, and in the circle form |z - a|
    is about 4u or more, so each root block product lies between 2^-848
    and about 2^16.  Within a form each point sees the same operations
    in the same order.  numpy may still round them differently in an
    array of one element: its in-place complex multiply did so for
    about 44% of random products (numpy 2.4).  So a one-point call, or
    the lone point of a last block, may differ in the last bits from
    the same point evaluated among others.
    """
    roots = [complex(a) for a in roots]
    for a in roots:
        if not abs(a) < 1:
            raise DomainError(f"Blaschke factor root {a} is not inside the unit disk")
    points = np.asarray(points, dtype=np.complex128)
    z_all = points.reshape(-1)
    out_all = np.ones(z_all.shape, np.complex128)
    # two buffers of one point block, shared by every factor, so that no
    # factor allocates; past 2^14 points a block spans at most a quarter
    # of them
    block = _POINT_BLOCK
    if z_all.size > 2 * _POINT_BLOCK:
        block = min(block, -(-z_all.size // 4))
    scratch = np.empty((2, min(z_all.size, block)), np.complex128)
    on_circle = all(abs(a) <= 1 - 2 * _CIRCLE_BAND for a in roots)
    for lo in range(0, z_all.size, block):
        z = z_all[lo:lo + block]
        # |z| into the real parts of the scratch; max keeps a NaN
        mags = np.abs(z, out=scratch[0, :z.size].real)
        top = mags.max()
        if not top <= 1 + 1e-12:
            raise DomainError("evaluation point lies outside the closed unit disk")
        on_circle = on_circle and top <= 1 + _CIRCLE_BAND and mags.min() >= 1 - _CIRCLE_BAND
    # the circle form runs over the nonzero roots and leaves a power of z
    factors = [a for a in roots if a] if on_circle else roots
    power = len(roots) - 2 * len(factors) if on_circle else 0
    for lo in range(0, z_all.size, block):
        z = z_all[lo:lo + block]
        out = out_all[lo:lo + block]
        product, factor = scratch[:, :z.size]
        for start in range(0, len(factors), _FACTOR_BLOCK):
            first, *rest = factors[start:start + _FACTOR_BLOCK]
            np.subtract(z, first, out=product)
            for a in rest:
                np.subtract(z, a, out=factor)
                product *= factor
            out *= product
            if on_circle:
                out /= np.conjugate(product, out=product)
                continue
            np.multiply(first.conjugate(), z, out=product)
            np.subtract(1.0, product, out=product)
            for a in rest:
                np.multiply(a.conjugate(), z, out=factor)
                np.subtract(1.0, factor, out=factor)
                product *= factor
            if not product.all():
                # a point up to 1e-12 outside the disk can sit on a pole
                pole = z[product == 0][0]
                root = min([first, *rest], key=lambda b: abs(1.0 - b.conjugate() * pole))
                raise DomainError(
                    f"evaluation point {pole} lies on the pole 1/conj(a) = "
                    f"{1.0 / root.conjugate()} of the root a = {root}"
                )
            out /= product
        if power:
            # z^power by squaring, from conj(z) = 1/z where power < 0
            if power < 0:
                np.conjugate(z, out=factor)
            else:
                factor[...] = z
            m = abs(power)
            while True:
                if m & 1:
                    out *= factor
                m >>= 1
                if not m:
                    break
                factor *= factor
    return out_all.reshape(points.shape)


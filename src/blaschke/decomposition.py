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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChainInconsistent,
    ConvergenceError,
    DomainError,
    InvalidSpec,
    NotARoot,
    ZeroSeries,
)
from .series import (
    CoefficientSeries,
    as_series,
    deflate,
    divide_conjugate_linear,
    evaluate_many,
    h2_norm_sq,
    multiply,
    multiply_conjugate_linear,
)
from . import weights as _weights

# degree above which eigenvalue root finding gives way to the
# simultaneous-iteration solver
_EIG_DEGREE_LIMIT = 64
_NEWTON_STEPS = 20
# round budget of the simultaneous iteration; 400 rounds fail exactly
# where 100 do
_ABERTH_ROUNDS = 100
# relative drift allowed between h2(f) and h2(g) over a full chain
_CHAIN_H2_RTOL = 1e-9


@dataclass(frozen=True)
class RootOptions:
    """Knobs for the root finder.

    root_residual_tol: acceptance threshold for |f(alpha)|; defaults to
        1e-8 * (1 + ||f||_H2) when None.
    boundary_margin: roots with 1 - |alpha| < margin are quarantined in
        a near_boundary list and never reflected.
    """

    root_residual_tol: float | None = None
    boundary_margin: float = 1e-10

    def residual_tol_for(self, f) -> float:
        if self.root_residual_tol is not None:
            return self.root_residual_tol
        return 1e-8 * (1.0 + h2_norm_sq(f) ** 0.5)


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

    def to_json_dict(self, phase: float = 0.0) -> dict:
        """JSON form separates origin roots into a multiplicity count."""
        return {
            "roots": [[a.real, a.imag] for a in self.nonzero_roots],
            "origin_multiplicity": self.origin_multiplicity,
            "phase": float(phase),
            "near_boundary": [[a.real, a.imag] for a in self.near_boundary],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> tuple["RootSet", float]:
        try:
            roots = [complex(re, im) for re, im in data.get("roots", [])]
            origin = int(data.get("origin_multiplicity", 0))
            nb = [complex(re, im) for re, im in data.get("near_boundary", [])]
            phase = float(data.get("phase", 0.0))
        except (AttributeError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed root JSON: {exc}") from exc
        if origin < 0:
            raise InvalidSpec(f"origin_multiplicity must be nonnegative, got {origin}")
        return cls.ordered([0j] * origin + roots, nb), phase


def _horner_pair(coeffs: np.ndarray, z: complex) -> tuple[complex, complex]:
    """Value and derivative at z in one pass."""
    p = 0j
    dp = 0j
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: np.ndarray, z: complex, steps: int = _NEWTON_STEPS) -> complex:
    """Refine a root estimate; returns the iterate with smallest |p|."""
    best, best_val = z, abs(_horner_pair(coeffs, z)[0])
    for _ in range(steps):
        p, dp = _horner_pair(coeffs, z)
        if abs(p) < best_val:
            best, best_val = z, abs(p)
        if p == 0 or dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            p_end = _horner_pair(coeffs, z)[0]
            if abs(p_end) < best_val:
                best, best_val = z, abs(p_end)
            break
    else:
        p_end = _horner_pair(coeffs, z)[0]
        if abs(p_end) < best_val:
            best = z
    return best


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a polynomial via companion-matrix eigenvalues."""
    monic = coeffs / coeffs[-1]
    n = len(monic) - 1
    comp = np.zeros((n, n), dtype=np.complex128)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solver failed: {exc}") from exc


def _aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration for high degrees.

    Ehrlich-Aberth updates from scattered starting points inside the
    Cauchy bound circle; cubic local convergence, all roots at once.
    """
    monic = coeffs / coeffs[-1]
    n = len(monic) - 1
    cauchy = 1.0 + np.max(np.abs(monic[:-1]))
    # open at the geometric mean of the root magnitudes, clamped to the
    # Cauchy bound; starting at the bound itself wastes dozens of rounds
    # walking inward when the polynomial has large coefficients
    base = min(max(abs(monic[0]), 1e-300) ** (1.0 / n), cauchy)
    base = max(base, 1e-3)
    k = np.arange(n)
    # irrational angle step avoids symmetric stalls on real polynomials
    angles = 2 * np.pi * k / n + 0.7601
    radii = np.minimum(base * (0.6 + 0.8 * (k + 1) / n), cauchy)
    z = radii * np.exp(1j * angles)
    deriv = monic[1:] * np.arange(1, n + 1)
    rel = np.inf
    # an overflowing iterate turns into inf or NaN, and the repulsion sum
    # spreads a NaN to every root, so the first one ends the iteration
    with np.errstate(over="ignore", invalid="ignore"):
        for round_ in range(1, _ABERTH_ROUNDS + 1):
            p = np.zeros_like(z)
            for c in monic[::-1]:
                p = p * z + c
            dp = np.zeros_like(z)
            for c in deriv[::-1]:
                dp = dp * z + c
            dp = np.where(dp == 0, 1e-300, dp)
            newton = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulsion = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - newton * repulsion
            denom = np.where(denom == 0, 1e-300, denom)
            step = newton / denom
            z = z - step
            if not np.all(np.isfinite(z)):
                raise ConvergenceError(
                    f"simultaneous root iteration overflowed at round {round_} "
                    f"(degree {n}): an iterate is no longer finite"
                )
            rel = np.max(np.abs(step) / (1.0 + np.abs(z)))
            if rel <= 5e-11:
                return z
    if rel <= 1e-8:
        # steps are jittering at the rounding floor; per-root Newton
        # polishing downstream finishes the job
        return z
    raise ConvergenceError(
        f"simultaneous root iteration did not settle in {_ABERTH_ROUNDS} rounds"
    )


def find_roots_in_disk(f, opts: RootOptions | None = None) -> RootSet:
    """All roots of f inside the open unit disk, with multiplicity.

    Estimates come from companion eigenvalues (degree <= 64) or
    Ehrlich-Aberth iteration, then each candidate is polished by Newton
    steps against a working polynomial that is deflated as roots are
    accepted, so multiple roots are picked up one copy at a time.
    Acceptance requires the residual |f(alpha)| on the original input
    to clear root_residual_tol.
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
    tol = opts.residual_tol_for(f)
    margin = opts.boundary_margin
    accepted: list[complex] = list(origin)
    near: list[complex] = []
    if len(core) >= 2:
        if len(core) - 1 <= _EIG_DEGREE_LIMIT:
            estimates = _companion_roots(core)
        else:
            estimates = _aberth_roots(core)
        work = core
        for est in sorted(estimates, key=abs):
            if abs(est) > 1.25:
                continue
            alpha = _newton_polish(work, complex(est))
            residual = abs(_horner_pair(coeffs, alpha)[0])
            if residual > tol:
                # polishing against a heavily deflated polynomial can
                # drift; fall back to the raw estimate before giving up
                if abs(_horner_pair(coeffs, complex(est))[0]) <= tol:
                    alpha = complex(est)
                else:
                    continue
            if abs(alpha) < 1.0 - margin:
                accepted.append(alpha)
                work = deflate(CoefficientSeries(work), alpha)[0].coeffs
            elif abs(alpha) <= 1.0 + margin:
                near.append(alpha)
    return RootSet.ordered(accepted, near)


def reflect_root(f, alpha, tol: float | None = None) -> CoefficientSeries:
    """Replace the factor (z - alpha) of f by (1 - conj(alpha) z).

    alpha must lie inside the open disk and actually be a root: the
    deflation remainder f(alpha) has to clear the residual tolerance.
    The reflected function has the same boundary modulus as f.
    """
    f = as_series(f)
    alpha = complex(alpha)
    if abs(alpha) >= 1:
        raise DomainError(f"|alpha| = {abs(alpha)} is not inside the unit disk")
    if tol is None:
        tol = RootOptions().residual_tol_for(f)
    quotient, remainder = deflate(f, alpha)
    if abs(remainder) > tol:
        raise NotARoot(f"|f(alpha)| = {abs(remainder)} exceeds tolerance {tol}")
    return multiply_conjugate_linear(quotient, alpha)


@dataclass(frozen=True)
class DecompositionChain:
    """Record of a full reflection sweep F = F_0 -> F_1 -> ... -> g.

    stages[k] is F_k (stages[0] is the input); h_list[k] is the
    deflation quotient H_k = F_k / (z - alpha_{k+1}) shared by the
    stage update F_{k+1} = (1 - conj(alpha_{k+1}) z) H_k and by every
    norm identity attached to the step.
    """

    stages: tuple
    h_list: tuple
    roots: RootSet
    g: CoefficientSeries = field(repr=False)

    @property
    def f(self) -> CoefficientSeries:
        return self.stages[0]

    def blaschke_series(self, cap: int) -> CoefficientSeries:
        """Truncated coefficients of B = prod (z - a_j) / (1 - conj(a_j) z).

        Exact through the cap: every product and geometric division
        only feeds lower-order terms into lower-order terms.
        """
        out = CoefficientSeries(np.concatenate([[1.0 + 0j], np.zeros(cap)]))
        for alpha in self.roots:
            out = multiply(out, [-alpha, 1.0], cap)
            if alpha != 0:
                out = divide_conjugate_linear(out, alpha, cap)
        return out

    def correction_terms(self, w) -> list[float]:
        """Per-root norm drops (1 - |a_k|^2) * y_seminorm_sq(H_k, w)."""
        return [
            (1.0 - abs(a) ** 2) * _weights.y_seminorm_sq(h, w)
            for a, h in zip(self.roots, self.h_list)
        ]

    def to_json_dict(self) -> dict:
        phase = np.pi * (len(self.roots.nonzero_roots) % 2)
        return {
            "coeffs": self.g.to_json_dict()["coeffs"],
            "roots": self.roots.to_json_dict(phase=phase),
            "stages": [s.to_json_dict()["coeffs"] for s in self.stages],
            "h_list": [h.to_json_dict()["coeffs"] for h in self.h_list],
        }


def decompose(f, opts: RootOptions | None = None) -> DecompositionChain:
    """Factor f into a Blaschke product times a disk-zero-free part.

    Roots are reflected in increasing order of modulus.  The chain is
    checked for internal consistency: every deflation remainder must be
    below tolerance, g must come back root free, and the Hardy norm of
    g must match that of f to within 1e-9 relative.
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
    leftover = find_roots_in_disk(g, opts)
    if leftover.roots:
        raise ChainInconsistent(
            f"zero-free part still has {len(leftover.roots)} interior roots"
        )
    h2_in = h2_norm_sq(f)
    h2_out = h2_norm_sq(g)
    if abs(h2_out - h2_in) > _CHAIN_H2_RTOL * h2_in:
        raise ChainInconsistent(
            f"Hardy norm drifted from {h2_in} to {h2_out} across the chain"
        )
    return DecompositionChain(tuple(stages), tuple(h_list), rs, g)


def blaschke_eval(roots, phase: float, origin_mult: int, z) -> complex:
    """Evaluate e^(i phase) z^origin_mult prod (a - z) / (1 - conj(a) z).

    roots may be a RootSet or any iterable of points inside the disk;
    z must lie in the closed disk.
    """
    zs = np.asarray([complex(z)], dtype=np.complex128)
    if abs(zs[0]) > 1 + 1e-12:
        raise DomainError("evaluation point lies outside the closed unit disk")
    return complex(blaschke_eval_many(roots, phase, origin_mult, zs)[0])


def blaschke_eval_many(roots, phase: float, origin_mult: int, points) -> np.ndarray:
    """Vectorized blaschke_eval over an array of points (no domain check)."""
    if isinstance(roots, RootSet):
        roots = roots.roots
    z = np.asarray(points, dtype=np.complex128)
    out = np.exp(1j * phase) * z ** origin_mult
    for a in roots:
        a = complex(a)
        if abs(a) >= 1:
            raise DomainError(f"Blaschke factor root |{a}| >= 1")
        out = out * (a - z) / (1.0 - np.conj(a) * z)
    return out


def boundary_modulus_gap(f, g, samples: int = 0) -> float:
    """Largest relative gap between |f| and |g| on a boundary grid.

    Both inputs are treated as exact polynomials; the default grid has
    more than twice as many points as either length, so the samples
    determine the coefficients exactly and the check is complete.
    """
    f = as_series(f)
    g = as_series(g)
    n = max(len(f), len(g), 1)
    k = samples or 1 << int(np.ceil(np.log2(4 * n)))
    theta = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    z = np.exp(1j * theta)
    vf = np.abs(evaluate_many(f, z))
    vg = np.abs(evaluate_many(g, z))
    scale = max(float(np.max(vf)), float(np.max(vg)), 1e-300)
    return float(np.max(np.abs(vf - vg)) / scale)


def reflection_identity_gap(f, alpha, w, tol: float | None = None) -> tuple[float, float]:
    """Both sides of the one-step norm drop identity.

    Returns (lhs, rhs) where lhs = x_norm_sq(reflected f) and
    rhs = x_norm_sq(f) - (1 - |alpha|^2) * y_seminorm_sq(H) with H the
    deflation quotient.  For a true root these agree to rounding.
    """
    f = as_series(f)
    reflected = reflect_root(f, alpha, tol=tol)
    quotient, _ = deflate(f, alpha)
    lhs = _weights.x_norm_sq(reflected, w)
    rhs = _weights.x_norm_sq(f, w) - (1.0 - abs(complex(alpha)) ** 2) * _weights.y_seminorm_sq(quotient, w)
    return lhs, rhs

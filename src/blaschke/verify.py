"""Numeric verification of the decomposition norm identities and bounds.

Every claim checked here compares two concretely computed numbers, a
lhs and a rhs, and reports slack against its fixed relative tolerance
tol = DEFAULT_TOLS[claim].  For an identity the slack is |lhs - rhs|
and must stay below tol * scale; for an inequality the slack is
rhs - lhs and may not dip below -tol * scale.  The scale is
max(|lhs|, |rhs|, 1).  A report keeps all three, to be judged anew.

Every checker but theorem3_truncated reads one Blaschke decomposition
F = B g and its chain.  It takes either the input series, which it
decomposes at the default root options, or a DecompositionChain from
decompose(f, opts), so that many claims share one decomposition.  Such
a checker states only its two sides as a function of the chain, and
the driver _check runs the steps they share.  CLAIM_TABLE holds one row
per such checker; run_sweep and the command line call the checkers
through it.  A sweep decomposes each distinct polynomial once and
divides out the zero-free quotients once per chain.

The claims:

  prop_reflect        per-step norm drop identity along a chain
  single_root         the one-root identity with the zero-free part
  lemma10_chain       telescoped norm drop across chain prefixes
  theorem1            convex-weight lower bound on the zero-free part
  corollary1          constant-step weights turn theorem1 into equality
  corollary2          first-order Hardy-Sobolev form of theorem1
  theorem2            concave-weight upper-bound counterpart
  theorem3_truncated  concave bounded summable weights, root families
                      accumulating at the boundary, finite sections
  qian_tail_identity  tail energy drop accounted exactly (indicator
                      weights in the chain identity)
  qian_tail_inequality  tail energy of the zero-free part never exceeds
                      the input's
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .decomposition import (
    DecompositionChain,
    RootSet,
    blaschke_eval_many,
    decompose,
    find_roots_in_disk,
)
from .errors import (
    BlaschkeConditionViolated,
    DomainError,
    InvalidSpec,
    WeightClassMismatch,
)
from .series import (
    CoefficientSeries,
    as_series,
    deflate,
    evaluate_many,
    geometric_extension_cap,
    h2_norm_sq,
)
from .signals import boundary_samples, project_coefficients
from .weights import (
    WeightSequence,
    classify,
    dirichlet_norm_sq,
    hardy_sobolev_norm_sq,
    x_norm_sq,
    y_seminorm_sq,
)

DEFAULT_TOLS = {
    "prop_reflect": 1e-10,
    "single_root": 1e-10,
    "lemma10_chain": 1e-9,
    "theorem1": 1e-9,
    "corollary1": 1e-9,
    "corollary2": 1e-9,
    "theorem2": 1e-9,
    "theorem3_truncated": 1e-9,
    "qian_tail_identity": 1e-9,
    "qian_tail_inequality": 1e-9,
}
CLAIMS = tuple(DEFAULT_TOLS)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numeric check."""

    claim: str
    kind: str  # "identity" or "inequality"
    lhs: float
    rhs: float
    slack: float
    tol: float
    scale: float
    passed: bool
    context: dict

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "kind": self.kind,
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "scale": self.scale,
            "context": self.context,
        }


def _report(claim, kind, lhs, rhs, tol, context) -> VerificationReport:
    scale = max(abs(lhs), abs(rhs), 1.0)
    if kind == "identity":
        slack = abs(lhs - rhs)
        passed = slack <= tol * scale
    else:
        slack = rhs - lhs
        passed = slack >= -tol * scale
    return VerificationReport(
        claim, kind, float(lhs), float(rhs), float(slack), float(tol),
        float(scale), bool(passed), context,
    )


def _check(claim, kind, f, w, sides, needs=(), interior=False):
    """Check one chain claim; sides(chain) gives lhs, rhs and extra context.

    f is a DecompositionChain, or a series decomposed here by decompose(f).
    needs is a (flag, message) pair: w must have that growth class flag,
    checked before any decomposition.  interior rejects roots inside the
    boundary margin.  For parallel tuples claim and kind, sides gives one
    lhs and one rhs per claim, and the reports share one context dict."""
    names, kinds = (claim, kind) if isinstance(claim, tuple) else ((claim,), (kind,))
    tols = [DEFAULT_TOLS[name] for name in names]
    chain = f if isinstance(f, DecompositionChain) else None
    f = chain.f if chain is not None else as_series(f)
    if needs and not getattr(classify(w), needs[0]):
        raise WeightClassMismatch(needs[1])
    chain = chain or decompose(f)
    if interior and chain.roots.near_boundary:
        raise DomainError(
            "input has roots within the boundary margin; the bound needs "
            "every root strictly inside the disk"
        )
    lhs, rhs, extra = sides(chain)
    ctx = {
        "degree": f.degree_cap,
        "n_roots": len(chain.roots),
        "n_near_boundary": len(chain.roots.near_boundary),
    }
    if w is not None:
        ctx["weight"] = w.describe()
    ctx.update(extra)
    if not isinstance(claim, tuple):
        return _report(claim, kind, lhs, rhs, tols[0], ctx)
    return tuple(_report(*row, ctx) for row in zip(names, kinds, lhs, rhs, tols))


def _drop(chain, energy, quotients) -> float:
    """sum_j (1 - |a_j|^2) energy(q_j) over the chain's roots a_j, with q_j
    the matching entry of quotients."""
    total = 0.0
    for alpha, quotient in zip(chain.roots, quotients):
        total += (1.0 - abs(alpha) ** 2) * energy(quotient)
    return total


def _zero_free(chain, norm, energy):
    """norm(g) against norm(f) - sum_j (1 - |a_j|^2) energy(g / (1 - conj(a_j) z)),
    with the extension cap of the divisions as context.  The quotients
    are the chain's own, computed once however many claims read them."""
    ext, quotients = chain.zero_free_quotients
    drop = _drop(chain, energy, quotients)
    return norm(chain.g), norm(chain.f) - drop, {"extension_cap": ext}


def _worst(x0, pairs, context):
    """The (lhs, rhs) pair with the largest relative gap and context(its
    index); x0 on both sides if no pairs.  Gaps within 8u (u = 2^-52)
    of the largest differ by rounding alone: they count as tied and the
    last tied pair is reported, so last-bit noise cannot move the report."""
    if not pairs:
        return x0, x0, {"note": "no interior roots, identity trivial"}
    gaps = [abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) for lhs, rhs in pairs]
    top = max(gaps)
    k = max(i for i, gap in enumerate(gaps) if gap >= top - 8 * 2.0**-52)
    return (*pairs[k], context(k))


def verify_prop_reflect(f, w) -> VerificationReport:
    """One-step identity x(F_{k+1}) = x(F_k) - (1 - |a|^2) y(H_k),
    checked at every step of the chain; reports the worst step."""

    def sides(chain):
        xs = [x_norm_sq(stage, w) for stage in chain.stages]
        drops = chain.correction_terms(w)
        pairs = [(x, x_prev - drop) for x, x_prev, drop in zip(xs[1:], xs, drops)]
        points = [[a.real, a.imag] for a in chain.roots]
        return _worst(xs[0], pairs, lambda k: {"worst_step": k, "worst_root": points[k]})

    return _check("prop_reflect", "identity", f, w, sides)


def verify_lemma10_chain(f, w) -> VerificationReport:
    """Telescoped identity x(F_n) = x(F) - sum_{k<=n} (1 - |a_k|^2) y(H_k)
    for every prefix of the chain; reports the worst prefix."""

    def sides(chain):
        xs = [x_norm_sq(stage, w) for stage in chain.stages]
        running = accumulate(chain.correction_terms(w))
        pairs = [(x, xs[0] - total) for x, total in zip(xs[1:], running)]
        return _worst(xs[0], pairs, lambda n: {"worst_prefix": n + 1})

    return _check("lemma10_chain", "identity", f, w, sides)


def verify_single_root(f, w) -> VerificationReport:
    """Exact identity for a one-root input:
    x(g) = x(f) - (1 - |a|^2) y(g / (1 - conj(a) z))."""
    x, y = partial(x_norm_sq, w=w), partial(y_seminorm_sq, w=w)

    def sides(chain):
        if len(chain.roots) != 1:
            raise InvalidSpec(
                f"single-root identity needs exactly one interior root, "
                f"found {len(chain.roots)}"
            )
        alpha = chain.roots.roots[0]
        lhs, rhs, extra = _zero_free(chain, x, y)
        return lhs, rhs, {"root": [alpha.real, alpha.imag], **extra}

    return _check("single_root", "identity", f, w, sides)


def verify_theorem1(f, w) -> VerificationReport:
    """Convex-weight bound
    x(g) <= x(f) - sum_j (1 - |a_j|^2) y(g / (1 - conj(a_j) z))."""
    x, y = partial(x_norm_sq, w=w), partial(y_seminorm_sq, w=w)
    return _check(
        "theorem1", "inequality", f, w, lambda chain: _zero_free(chain, x, y),
        needs=("convex", "the lower bound needs a convex weight"), interior=True,
    )


def verify_corollary1(f, w) -> VerificationReport:
    """Constant-step weights make the theorem1 comparison an identity."""
    x, y = partial(x_norm_sq, w=w), partial(y_seminorm_sq, w=w)
    return _check(
        "corollary1", "identity", f, w, lambda chain: _zero_free(chain, x, y),
        needs=("constant_step", "the equality needs a constant-step weight"),
        interior=True,
    )


def verify_corollary2(f) -> VerificationReport:
    """First-order Hardy-Sobolev form of the convex bound:
    ||g||_{1,2}^2 <= ||f||_{1,2}^2 - sum_j (1 - |a_j|^2) *
    (2 ||d_j||_D^2 - ||d_j||_{H2}^2), d_j = g / (1 - conj(a_j) z)."""
    return _check(
        "corollary2", "inequality", f, None,
        lambda chain: _zero_free(
            chain, hardy_sobolev_norm_sq,
            lambda d: 2.0 * dirichlet_norm_sq(d) - h2_norm_sq(d),
        ),
        interior=True,
    )


def verify_theorem2(f, w) -> VerificationReport:
    """Concave-weight counterpart with corrections from plain deflation:
    x(g) <= x(f) - sum_j (1 - |a_j|^2) y(f / (z - a_j)).

    For concave steps the deflation quotient f / (z - a_j) carries no
    more y-energy than the chain quotient H_j, so the right side
    overestimates the exact telescoped value of x(g)."""

    def sides(chain):
        quotients = (deflate(chain.f, a)[0] for a in chain.roots)
        drop = _drop(chain, partial(y_seminorm_sq, w=w), quotients)
        return x_norm_sq(chain.g, w), x_norm_sq(chain.f, w) - drop, {}

    return _check(
        "theorem2", "inequality", f, w, sides,
        needs=("concave", "the concave bound needs a concave weight"), interior=True,
    )


def verify_qian_tail(f, k: int):
    """Tail energy comparison at cutoff k.

    Returns a pair of reports: the exact accounting of the tail drop
    (indicator weights pushed through the chain identity) and the plain
    inequality tail(g) <= tail(f).  The identity's rhs, tail(f) - drop,
    can cancel four to five digits (1.55e-9 from terms of 2.37e-5 on a
    sweep instance), so its last bits follow those of the roots; judge
    it by the slack against the report's scale.
    """
    if k < 1:
        raise InvalidSpec("tail cutoff k must be at least 1")
    w = WeightSequence.indicator(k)

    def sides(chain):
        tail_f, tail_g = x_norm_sq(chain.f, w), x_norm_sq(chain.g, w)
        drop = sum(chain.correction_terms(w))
        return (tail_g, tail_g), (tail_f - drop, tail_f), {"k": int(k)}

    return _check(
        ("qian_tail_identity", "qian_tail_inequality"), ("identity", "inequality"),
        f, w, sides,
    )


def boundary_accumulating_roots(count: int, exponent: float = 2.0) -> RootSet:
    """Root family a_j = (1 - 1/(j+1)^exponent) e^{ij}, j = 1..count.

    Radii increase to 1 fast enough that sum (1 - |a_j|) converges
    whenever exponent > 1.
    """
    if count < 1:
        raise InvalidSpec("need at least one root")
    roots = [
        (1.0 - 1.0 / (j + 1) ** exponent) * np.exp(1j * j)
        for j in range(1, count + 1)
    ]
    return RootSet.ordered(roots)


def _blaschke_condition_check(roots: RootSet) -> None:
    """Numeric stand-in for sum (1 - |a_j|) < infinity on a finite
    prefix: the log-log decay slope of the increments over the later
    half must fall below -1."""
    gaps = np.array([1.0 - abs(a) for a in roots.roots])
    if not np.all(gaps > 0):
        raise BlaschkeConditionViolated("roots must lie strictly inside the disk")
    n = len(gaps)
    if n < 4:
        return
    start = n // 2
    j = np.arange(1, n + 1, dtype=float)[start:]
    tail = gaps[start:]
    slope = np.polyfit(np.log(j), np.log(tail), 1)[0]
    if slope >= -1.05:
        raise BlaschkeConditionViolated(
            f"increment decay exponent {slope:.3f} is too slow for "
            "sum (1 - |a_j|) to converge"
        )


def _circle_grid(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for j < n, n a power of two >= 4.

    exp runs on the first quarter only; the other three are that quarter
    times i, -1 and -i, which are exact.
    """
    q = n // 4
    grid = np.empty(n, dtype=np.complex128)
    grid[:q] = np.exp(1j * (2.0 * np.pi * np.arange(q) / n))
    grid[q:2 * q] = grid[:q] * 1j
    grid[2 * q:3 * q] = -grid[:q]
    grid[3 * q:] = grid[:q] * -1j
    return grid


def verify_theorem3_truncated(roots, g, w, caps) -> list[VerificationReport]:
    """Concave bounded tail-summable weights against root families
    accumulating at the boundary, evaluated on finite sections.

    For each cap K the truncated product F_K = prod_{j<=K} Blaschke
    factor times g is synthesized on a boundary grid and projected back
    to coefficients, once.  The projection cap is fixed a priori from
    the roots, geometric_extension_cap(len(g) + K, a_1..a_K): the K
    factors (z - a_j) raise the degree by K, and the geometric tails of
    the divisions by (1 - conj(a_j) z) beyond it are negligible; it
    raises CapTooLarge for a root too near the circle.  The grid has
    the least power of two >= 2 (cap + 1) points, enough to carry every
    projected coefficient.  g is sampled on that grid by Horner's rule,
    len(g) passes over it, where len(g) is at most log2 of the grid
    size, and by a zero-padded FFT otherwise.  The
    relative round trip of the samples through the projection (the FFT
    of the projected coefficients) is reported as roundtrip_error.  The
    concave bound is checked on the section:

        x(g) <= x(f_K) - sum_{j<=K} (1 - |a_j|^2) y(f_K / (z - a_j))

    The per-root corrections are reported as partial sums, which are
    nondecreasing and bounded, witnessing summability as K grows.

    g must have no zero inside the open disk, near_boundary zeros of
    find_roots_in_disk(g) included.  Every boundary margin finds every
    zero of modulus < 1, so the default root options serve: a zero on the
    circle to rounding goes by its computed modulus, |a| >= 1 admitted.
    """
    tol = DEFAULT_TOLS["theorem3_truncated"]
    g = as_series(g)
    if g.is_zero():
        raise InvalidSpec("g must be nonzero")
    if not isinstance(roots, RootSet):
        roots = RootSet.ordered(roots)
    caps = [int(k) for k in caps]
    if not caps:
        raise InvalidSpec("need at least one cap")
    if min(caps) < 1 or max(caps) > len(roots.roots):
        raise InvalidSpec(
            f"caps must lie in [1, {len(roots.roots)}], got {caps}"
        )
    gc = classify(w)
    if not (gc.concave and gc.tail_summable):
        raise WeightClassMismatch(
            "the truncated bound needs a concave, bounded, tail-summable weight"
        )
    g_roots = find_roots_in_disk(g)
    if g_roots.roots or any(abs(a) < 1.0 for a in g_roots.near_boundary):
        raise InvalidSpec("g must be zero free inside the disk")
    _blaschke_condition_check(roots)
    x_g = x_norm_sq(g, w)
    reports = []
    for cap_k in caps:
        sub = roots.roots[:cap_k]
        proj_cap = geometric_extension_cap(len(g) + cap_k, sub)
        # the least power of two that carries proj_cap + 1 coefficients
        n_samples = 1 << (2 * (proj_cap + 1) - 1).bit_length()
        grid = _circle_grid(n_samples)
        # by keyword: bench/layers.py sizes the call from args[3] or kwargs["points"]
        samples = blaschke_eval_many(sub, points=grid)
        # Horner costs len(g) passes over the grid, the FFT log2 of its size
        if len(g) <= n_samples.bit_length() - 1:
            samples *= evaluate_many(g, grid)
        else:
            samples *= boundary_samples(g, n_samples)
        # grid-sized arrays are dropped once read, so that a section on
        # N >= 2^15 points keeps about 3.5 N complex values alive
        del grid
        truncated = project_coefficients(samples, proj_cap)
        back = boundary_samples(truncated, n_samples)
        back -= samples
        num = float(np.mean(np.abs(back) ** 2))
        den = float(np.mean(np.abs(samples) ** 2))
        del back, samples
        roundtrip = (num / den) ** 0.5 if den > 0 else 0.0
        terms = []
        max_remainder = 0.0
        for alpha in sub:
            quotient, remainder = deflate(truncated, alpha)
            max_remainder = max(max_remainder, abs(remainder))
            terms.append((1.0 - abs(alpha) ** 2) * y_seminorm_sq(quotient, w))
        partial = np.cumsum(terms)
        x_f = x_norm_sq(truncated, w)
        lhs = x_g
        rhs = x_f - float(partial[-1])
        ctx = {
            "cap": cap_k,
            "weight": w.describe(),
            "projection_cap": proj_cap,
            "sample_count": n_samples,
            "roundtrip_error": roundtrip,
            "max_deflation_remainder": max_remainder,
            "x_truncated": x_f,
            "correction_partial_sums": [float(p) for p in partial],
            "corrections_bounded_by_x": bool(partial[-1] <= x_f + tol * max(x_f, 1.0)),
        }
        reports.append(_report("theorem3_truncated", "inequality", lhs, rhs, tol, ctx))
    return reports


# ---------------------------------------------------------------------------
# instance generation and sweeps


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one reproducible test polynomial.

    root_count roots are planted area-uniformly in the annulus given by
    root_radius; the degree is filled up to degree_cap with factors
    (1 - conj(b) z) whose reciprocal roots lie outside the disk, so the
    planted roots are exactly the interior ones.
    """

    root_count: int
    root_radius: tuple
    degree_cap: int
    weight: WeightSequence | None = None
    seed: int = 0


def _instance_parts(spec: InstanceSpec):
    lo, hi = spec.root_radius
    if not (0.0 <= lo <= hi < 1.0):
        raise InvalidSpec(f"root radius range [{lo}, {hi}] must sit inside [0, 1)")
    if spec.root_count < 0 or spec.degree_cap < spec.root_count:
        raise InvalidSpec("need 0 <= root_count <= degree_cap")
    rng = np.random.default_rng(spec.seed)
    radii = np.sqrt(rng.uniform(lo * lo, hi * hi, size=spec.root_count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=spec.root_count)
    alphas = radii * np.exp(1j * angles)
    n_outer = spec.degree_cap - spec.root_count
    out_radii = np.sqrt(rng.uniform(0.0, 0.81, size=n_outer))
    out_angles = rng.uniform(0.0, 2.0 * np.pi, size=n_outer)
    betas = out_radii * np.exp(1j * out_angles)
    amp = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return alphas, betas, amp * np.exp(1j * phase)


def instance_roots(spec: InstanceSpec) -> tuple:
    """The interior roots generate_instance plants, in generated order."""
    alphas, _, _ = _instance_parts(spec)
    return tuple(complex(a) for a in alphas)


def generate_instance(spec: InstanceSpec) -> CoefficientSeries:
    """Deterministic polynomial with prescribed interior root geometry."""
    alphas, betas, scale_factor = _instance_parts(spec)
    poly = np.array([1.0 + 0j])
    for alpha in alphas:
        poly = np.convolve(poly, [-alpha, 1.0])
    for beta in betas:
        poly = np.convolve(poly, [1.0, -np.conj(beta)])
    return CoefficientSeries(poly * scale_factor)


_DEGREE_CYCLE = (4, 6, 8, 12, 16, 24, 32)

_ALL_FAMILY_PALETTE = (
    WeightSequence.dirichlet(),
    WeightSequence.sobolev_square(),
    WeightSequence.constant_step(2.0),
    WeightSequence.constant_step(0.5),
    WeightSequence.indicator(1),
    WeightSequence.indicator(2),
    WeightSequence.indicator(3),
    WeightSequence.concave_power_sum(2.0),
    WeightSequence.concave_power_sum(3.0),
)
_CONVEX_PALETTE = (
    WeightSequence.dirichlet(),
    WeightSequence.sobolev_square(),
    WeightSequence.constant_step(2.0),
    WeightSequence.constant_step(0.5),
)
_CONSTANT_STEP_PALETTE = (
    WeightSequence.dirichlet(),
    WeightSequence.constant_step(2.0),
    WeightSequence.constant_step(0.5),
    WeightSequence.constant_step(1.5),
)
_CONCAVE_PALETTE = (
    WeightSequence.dirichlet(),
    WeightSequence.constant_step(2.0),
    WeightSequence.indicator(1),
    WeightSequence.concave_power_sum(2.0),
    WeightSequence.concave_power_sum(3.0),
)


def default_instance_schedule(count: int, seed: int, degree_cap: int = 32) -> list[InstanceSpec]:
    """Deterministic mix of degrees, root counts, and weights; roots are
    planted at radii 0.1 to 0.9."""
    if count < 1:
        raise InvalidSpec("count must be positive")
    master = np.random.default_rng(seed)
    child_seeds = master.integers(0, 2**62, size=count)
    degrees = [d for d in _DEGREE_CYCLE if d <= degree_cap] or [degree_cap]
    specs = []
    for i in range(count):
        degree = degrees[i % len(degrees)]
        roots = 1 + i % max(1, min(6, degree - 1))
        weight = _ALL_FAMILY_PALETTE[i % len(_ALL_FAMILY_PALETTE)]
        specs.append(
            InstanceSpec(
                root_count=roots,
                root_radius=(0.1, 0.9),
                degree_cap=degree,
                weight=weight,
                seed=int(child_seeds[i]),
            )
        )
    return specs


@dataclass(frozen=True)
class ClaimRow:
    """One checker of the claim table and how a sweep feeds it.

    checker names a public verify_* function of this module and is
    looked up when the row runs.  claims are the report names it returns,
    in order.  A sweep gives instance i the weight
    palette[(i + offset) % len(palette)]; an empty palette means the
    checker takes no weight, and cutoff means it takes the tail cutoff k
    instead.  one_root rows read the instance's single-root variant.
    Each claim is judged at DEFAULT_TOLS[claim].
    """

    checker: str
    claims: tuple
    palette: tuple = ()
    offset: int = 0
    cutoff: bool = False
    one_root: bool = False

    @property
    def needs_weight(self) -> bool:
        return bool(self.palette)

    def check(self, f, w=None, k: int = 1) -> tuple:
        """Run the checker on a chain or a series (decomposed at the default
        root options); always a tuple of reports."""
        args = (w,) if self.palette else (k,) if self.cutoff else ()
        out = globals()[self.checker](f, *args)
        return out if isinstance(out, tuple) else (out,)


_CLAIM_ROWS = (
    ClaimRow("verify_prop_reflect", ("prop_reflect",), _ALL_FAMILY_PALETTE),
    ClaimRow("verify_single_root", ("single_root",), _ALL_FAMILY_PALETTE, 2, one_root=True),
    ClaimRow("verify_lemma10_chain", ("lemma10_chain",), _ALL_FAMILY_PALETTE, 1),
    ClaimRow("verify_theorem1", ("theorem1",), _CONVEX_PALETTE),
    ClaimRow("verify_corollary1", ("corollary1",), _CONSTANT_STEP_PALETTE),
    ClaimRow("verify_corollary2", ("corollary2",)),
    ClaimRow("verify_theorem2", ("theorem2",), _CONCAVE_PALETTE),
    ClaimRow("verify_qian_tail", ("qian_tail_identity", "qian_tail_inequality"), cutoff=True),
)

# every claim read off a decomposition chain, by name; theorem3_truncated
# takes an explicit root family instead and has no row
CLAIM_TABLE = {claim: row for row in _CLAIM_ROWS for claim in row.claims}


def run_sweep(
    claims,
    count: int,
    seed: int,
    degree_cap: int = 32,
) -> tuple[bool, list[VerificationReport]]:
    """Run the requested claims over a deterministic instance schedule.

    claims may be "all", a single claim name, or an iterable of names.
    The theorem3_truncated claim is excluded from "all" because it
    consumes an explicit root family rather than a random instance.
    Each distinct polynomial is decomposed once, at the first claim that
    reads it: the instance, and its single-root variant unless the
    instance has one root already.  Every claim then checks that chain,
    and the claims on the zero-free part share the chain's quotients
    g / (1 - conj(a_j) z), divided once per chain.  A checker that
    yields several claims runs once, at the first of them requested.
    Each report is judged at its claim's DEFAULT_TOLS tolerance.
    """
    if isinstance(claims, str):
        claim_list = list(CLAIM_TABLE) if claims == "all" else [claims]
    else:
        claim_list = list(claims)
    for claim in claim_list:
        if claim == "theorem3_truncated":
            raise InvalidSpec(
                "theorem3_truncated takes an explicit root family; use "
                "verify_theorem3_truncated directly"
            )
        if claim not in CLAIM_TABLE:
            raise InvalidSpec(f"unknown claim {claim!r}")
    rows = []
    for claim in claim_list:
        if CLAIM_TABLE[claim] not in rows:
            rows.append(CLAIM_TABLE[claim])
    reports: list[VerificationReport] = []
    for i, spec in enumerate(default_instance_schedule(count, seed, degree_cap)):
        # chains by the root count of the polynomial a row reads: the
        # single-root variant of a one-root instance is the instance
        chains = {}
        for row in rows:
            n = 1 if row.one_root else spec.root_count
            if n not in chains:
                chains[n] = decompose(generate_instance(dataclasses.replace(spec, root_count=n)))
            w = row.palette[(i + row.offset) % len(row.palette)] if row.palette else None
            cutoff = 1 + i % max(1, spec.degree_cap)
            for report in row.check(chains[n], w, cutoff):
                if report.claim not in claim_list:
                    continue
                report.context.setdefault("seed", spec.seed)
                report.context.setdefault("instance_index", i)
                reports.append(report)
    all_passed = all(r.passed for r in reports)
    return all_passed, reports

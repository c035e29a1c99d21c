"""Numeric verification of the decomposition norm identities and bounds.

Every claim checked here compares two concretely computed numbers, a
lhs and a rhs, and reports slack against its fixed relative tolerance
tol = DEFAULT_TOLS[claim].  For an identity the slack is |lhs - rhs|
and must stay below tol * scale; for an inequality the slack is
rhs - lhs and may not dip below -tol * scale.  The scale is
max(|lhs|, |rhs|, 1).  A report keeps all three, to be judged anew.

Every checker but theorem3_truncated reads one Blaschke decomposition
F = B g and its chain.  It takes either the input series, which it
decomposes at the default boundary margin, or a DecompositionChain from
decompose(f, margin), so that many claims share one decomposition.  Such
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
import math
import numbers
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
    CapTooLarge,
    DomainError,
    InvalidSpec,
    WeightClassMismatch,
)
from .series import (
    CoefficientSeries,
    _integral,
    as_series,
    deflate,
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
    with no extra context.  The quotients are the chain's own polynomials,
    computed once however many claims read them."""
    drop = _drop(chain, energy, chain.zero_free_quotients)
    return norm(chain.g), norm(chain.f) - drop, {}


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
        lhs, rhs, _ = _zero_free(chain, x, y)
        return lhs, rhs, {"root": [alpha.real, alpha.imag]}

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
    # the indicator weight checks k: an integer, at least 1
    w = WeightSequence.indicator(k)

    def sides(chain):
        tail_f, tail_g = x_norm_sq(chain.f, w), x_norm_sq(chain.g, w)
        drop = sum(chain.correction_terms(w))
        return (tail_g, tail_g), (tail_f - drop, tail_f), {"k": w.params["k"]}

    return _check(
        ("qian_tail_identity", "qian_tail_inequality"), ("identity", "inequality"),
        f, w, sides,
    )


def _is_real(value) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def boundary_accumulating_roots(count: int, exponent: float = 2.0) -> RootSet:
    """Root family a_j = (1 - 1/(j+1)^exponent) e^{ij}, j = 1..count.

    Radii increase to 1 fast enough that sum (1 - |a_j|) converges
    whenever exponent > 1.  exponent must be a finite real > 0 (InvalidSpec).
    """
    count = _integral(count, "root count")
    if count < 1:
        raise InvalidSpec("need at least one root")
    if not (_is_real(exponent) and 0 < exponent < math.inf):
        raise InvalidSpec(f"exponent must be a finite real number > 0, got {exponent!r}")
    roots = [
        (1.0 - 1.0 / (j + 1) ** exponent) * np.exp(1j * j)
        for j in range(1, count + 1)
    ]
    return RootSet(roots)


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


def _grid_size(n: int) -> int:
    """Least section grid of at least n points.  Up to 2^10 it is the
    least power of two, where a transform costs about its call overhead;
    past that, the least multiple of 4 of the form 2^a 3^b 5^c, whose
    factors the FFT runs as radix passes, below 1.12 n.  4 | N keeps the
    quarter rotations of _circle_grid exact."""
    best = 1 << (n - 1).bit_length()
    if best <= 1 << 10:
        return best
    threes = 1
    while 4 * threes < best:
        odd = threes
        while 4 * odd < best:
            # the least odd * 2^a >= n; odd < n / 2, so a >= 2
            size = odd << ((n - 1) // odd).bit_length()
            if size < best:
                best = size
            odd *= 5
        threes *= 3
    return best


def _circle_grid(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for j < n, n a multiple of 4.

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


# a section keeps the least cap whose coefficients beyond it hold at
# most _SECTION_EPS^2 of its energy, and is certified when its round
# trip reads at most _SECTION_ROUNDTRIP
_SECTION_EPS = 1e-13
_SECTION_ROUNDTRIP = 2 * _SECTION_EPS
# a section refuses a projection cap past this length
_EXTENSION_MAX = 2_000_000


def _predicted_section_cap(base_len: int, roots) -> int:
    """Predicted projection cap of a section B g, base_len = len(g) + K.

    Beyond the degree base_len the coefficients of B g decay with its
    poles 1/conj(a).  A root a with m roots within 2 (1 - |a|) of it,
    itself included, acts as a pole of multiplicity m: its coefficients
    go like (1 - |a|^2)^m n^(m-1) |a|^n / (m-1)!, and their energy
    beyond base_len + L is at most eps^2 (1 - |a|^2)^2 of g's, a margin
    for g's size near the pole, at the least L with

        |a|^(2L) (L (1 - |a|^2))^(2(m-1)) / (m-1)!^2 <= eps^2 (1 - |a|^2),

    which for m = 1 is L = log(eps^2 (1 - |a|^2)) / (2 log |a|); four
    fixed-point steps from there solve it for m > 1.  The cap is
    base_len plus the largest L over the roots, and base_len alone when
    every root is 0.  Raises CapTooLarge, naming the largest |a|, where
    the cap passes _EXTENSION_MAX, before any grid is allocated.
    """
    a = np.asarray(roots, dtype=np.complex128)
    a = a[a != 0]
    if not len(a):
        return base_len
    mags = np.abs(a)
    gap = 1.0 - mags
    log_a = np.log(mags)
    gap_sq = gap * (1.0 + mags)  # 1 - |a|^2 without cancellation
    length = np.log(_SECTION_EPS ** 2 * gap_sq) / (2.0 * log_a)
    # near[:, j] marks the roots within 2 (1 - |a_j|) of a_j
    near = np.abs(a[:, None] - a) <= 2.0 * gap
    if np.count_nonzero(near) > len(a):
        for j in range(len(a)):
            m, start = np.count_nonzero(near[:, j]), float(length[j])
            if m == 1:
                continue
            for _ in range(4):
                grow = (m - 1) * math.log(max(length[j] * gap_sq[j], 1.0)) - math.lgamma(m)
                length[j] = start + max(grow, 0.0) / -log_a[j]
    cap = base_len + math.ceil(float(length.max()))
    if cap > _EXTENSION_MAX:
        raise CapTooLarge(
            f"largest |a| = {float(mags.max())!r} needs more than {_EXTENSION_MAX} "
            f"terms to bring a section's tail to {_SECTION_EPS ** 2} of its energy"
        )
    return cap


def _section(sub, g, n_samples: int, proj_cap: int):
    """Coefficients of F = B g, B the Blaschke product of the roots sub,
    and the relative round trip of B's samples through B's kept
    coefficients.

    Only B is on the grid: its n_samples boundary samples (a multiple of
    4, _grid_size) are projected to proj_cap coefficients and cut at the
    least cap whose tail holds at most _SECTION_EPS^2 of their energy;
    g enters after the cut, by the exact product of two finite series.
    Every transform runs in the buffer it was padded in and each
    grid-sized array is dropped after its last reader, so a section on
    N > 2^14 points holds at most about 2.5 N complex values.
    """
    grid = _circle_grid(n_samples)
    # points= by keyword, so that a traced run can size the call
    samples = blaschke_eval_many(sub, points=grid)
    del grid
    den = np.vdot(samples, samples).real / n_samples
    projection = project_coefficients(samples, proj_cap)
    # suffix[i], the energy of the coefficients from proj_cap - i up,
    # summed from the top so that nothing cancels
    suffix = np.abs(projection.coeffs[::-1])
    np.square(suffix, out=suffix)
    np.cumsum(suffix, out=suffix)
    keep = max(int(np.count_nonzero(suffix > _SECTION_EPS ** 2 * den)), 1)
    dropped = suffix[proj_cap - keep] if keep <= proj_cap else 0.0
    del suffix
    # the round trip through the kept coefficients misses, besides the
    # residue of the whole projection, the coefficients from keep up;
    # they sit in other bins of the grid, so their energy adds
    back = boundary_samples(projection, n_samples)
    back -= samples
    del samples
    num = np.vdot(back, back).real / n_samples + dropped
    del back
    # cut only now: copied earlier, the cut series would sit in the space
    # the projection's transform freed, which the round trip's grid takes;
    # g, which is short, goes in by one shifted pass per coefficient, 2-10
    # times faster on ladder sizes than np.convolve (2-core Xeon)
    kept = projection.coeffs[:keep]
    product = np.zeros(keep + len(g) - 1, dtype=np.complex128)
    for j, c in enumerate(g.coeffs):
        product[j:j + keep] += c * kept
    truncated = CoefficientSeries(product)
    return truncated, (float(num / den) ** 0.5 if den > 0 else 0.0)


def verify_theorem3_truncated(roots, g, w, caps) -> list[VerificationReport]:
    """Concave bounded tail-summable weights against root families
    accumulating at the boundary, evaluated on finite sections.

    For each cap K the section F_K = B_K g, B_K the product of the first
    K Blaschke factors, is formed in three steps; only B_K goes on a
    boundary grid, and g enters by one product of coefficient series.

    1. Predict the grid.  _predicted_section_cap(len(g) + K, a_1..a_K)
       predicts the cap T^ of F_K from the roots, counting a cluster of
       roots as one multiple pole, which leaves B_K a margin of deg g;
       the grid has N >= 2 (T^ + 1) points, the least power of two up to
       2^10 and past that the least multiple of 4 of the form
       2^a 3^b 5^c, below 1.12 * 2 (T^ + 1) (_grid_size).  Where T^
       would pass _EXTENSION_MAX (2 000 000) terms it raises
       CapTooLarge, before any grid exists.
    2. Choose the cap from B_K's spectrum.  Its samples are projected
       to T^ coefficients, once, and cut at the least cap T whose
       coefficients beyond T carry at most eps^2 of the samples'
       energy, eps = _SECTION_EPS = 1e-13.
    3. Certify with the round trip.  The relative round trip of B_K's
       samples through the T + 1 kept coefficients, the root of the
       energy they miss, is reported as roundtrip_error.  Above
       _SECTION_ROUNDTRIP = 2 eps the grid doubles, the projection cap
       rises to the new grid's N/2 - 1 and the section is redone.  A
       regrow that does not halve the round trip has stalled, and the
       report carries it; a regrow past _EXTENSION_MAX raises
       CapTooLarge.

    The context reports the degree T + deg g of F_K and the grid as
    projection_cap and sample_count.  B_K has energy 1 on the circle, so
    F_K misses B_K's tail times g, of norm at most ||g||_1 eps <=
    sqrt(L) eps ||F_K||, L = len(g).  That moves x(F_K) by about
    L eps^2 w_max ||g||^2, and each correction by about
    2 L eps^2 w_max ||g||^2 / (1 - |a_j|), since the quotient by z - a_j
    spreads the tail by up to 1 / (1 - |a_j|).  So the rhs moves by
    about L eps^2 (1 + sum_j 2 / (1 - |a_j|)) w_max ||g||^2: L times
    5e-22 relative for the 40 roots 1 - |a_j| = 1/(j + 1)^2, and L times
    1e-19 for 100 roots at the largest |a| the cap admits (1 - 1.75e-5),
    against DEFAULT_TOLS["theorem3_truncated"] = 1e-9.  _section
    describes the memory a section holds.  The concave bound is checked
    on the section:

        x(g) <= x(f_K) - sum_{j<=K} (1 - |a_j|^2) y(f_K / (z - a_j))

    The per-root corrections are reported as partial sums, which are
    nondecreasing and bounded, witnessing summability as K grows.

    g must have no zero inside the open disk, near_boundary zeros of
    find_roots_in_disk(g) included.  Every boundary margin finds every
    zero of modulus < 1, so the default margin serves: a zero on the
    circle to rounding goes by its computed modulus, |a| >= 1 admitted.
    """
    tol = DEFAULT_TOLS["theorem3_truncated"]
    g = as_series(g)
    if g.is_zero():
        raise InvalidSpec("g must be nonzero")
    if not isinstance(roots, RootSet):
        roots = RootSet(roots)
    caps = [_integral(k, "a cap") for k in caps]
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
        proj_cap = _predicted_section_cap(len(g) + cap_k, sub)
        n_samples = _grid_size(2 * (proj_cap + 1))
        truncated, roundtrip = _section(sub, g, n_samples, proj_cap)
        while roundtrip > _SECTION_ROUNDTRIP:
            # the spectrum ran past the predicted cap: double the grid and
            # project up to its Nyquist limit; a pass that does not halve
            # the round trip has stalled, and the report carries it
            proj_cap, n_samples = n_samples - 1, 2 * n_samples
            if proj_cap > _EXTENSION_MAX:
                raise CapTooLarge(
                    f"round trip {roundtrip:.3g} of a section still above "
                    f"{_SECTION_ROUNDTRIP} at a projection cap past {_EXTENSION_MAX}"
                )
            last = roundtrip
            truncated, roundtrip = _section(sub, g, n_samples, proj_cap)
            if roundtrip > last / 2:
                break
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
            "projection_cap": len(truncated) - 1,
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
    seed: int = 0


def _instance_parts(spec: InstanceSpec):
    """The planted roots, the reciprocal roots b and the scale factor; InvalidSpec
    unless the counts and seed >= 0 are integral and root_radius a pair of reals."""
    root_count = _integral(spec.root_count, "root count")
    degree_cap = _integral(spec.degree_cap, "degree cap")
    seed = _integral(spec.seed, "seed")
    try:
        lo, hi = spec.root_radius
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"root radius must be a pair, got {spec.root_radius!r}") from exc
    if not (_is_real(lo) and _is_real(hi) and 0.0 <= lo <= hi < 1.0):
        raise InvalidSpec(f"root radius range [{lo!r}, {hi!r}] must sit inside [0, 1)")
    if root_count < 0 or degree_cap < root_count or seed < 0:
        raise InvalidSpec("need 0 <= root_count <= degree_cap and seed >= 0")
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(lo * lo, hi * hi, size=root_count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=root_count)
    alphas = radii * np.exp(1j * angles)
    n_outer = degree_cap - root_count
    out_radii = np.sqrt(rng.uniform(0.0, 0.81, size=n_outer))
    out_angles = rng.uniform(0.0, 2.0 * np.pi, size=n_outer)
    betas = out_radii * np.exp(1j * out_angles)
    amp = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return alphas, betas, amp * np.exp(1j * phase)


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
    """Deterministic mix of degrees and root counts; roots are planted at
    radii 0.1 to 0.9.  The degrees run through _DEGREE_CYCLE
    up to degree_cap, which must lie between 1 and its top, 32.  count,
    seed and degree_cap are integral numbers, count positive and seed
    nonnegative; InvalidSpec otherwise."""
    count, seed = _integral(count, "count"), _integral(seed, "seed")
    degree_cap = _integral(degree_cap, "degree cap")
    if count < 1:
        raise InvalidSpec("count must be positive")
    if seed < 0:
        raise InvalidSpec("seed must be nonnegative")
    if not 1 <= degree_cap <= _DEGREE_CYCLE[-1]:
        raise InvalidSpec(
            f"degree cap {degree_cap} lies outside the sweep's degrees, 1 to {_DEGREE_CYCLE[-1]}"
        )
    master = np.random.default_rng(seed)
    child_seeds = master.integers(0, 2**62, size=count)
    degrees = [d for d in _DEGREE_CYCLE if d <= degree_cap] or [degree_cap]
    specs = []
    for i in range(count):
        degree = degrees[i % len(degrees)]
        roots = 1 + i % max(1, min(6, degree - 1))
        specs.append(
            InstanceSpec(
                root_count=roots,
                root_radius=(0.1, 0.9),
                degree_cap=degree,
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
        boundary margin); always a tuple of reports."""
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

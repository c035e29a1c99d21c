"""Weight sequences and the weighted norms they induce.

A weight is a nondecreasing sequence gamma_0 <= gamma_1 <= ... with
gamma_0 = 0.  It induces a squared norm

    x_norm_sq(F)     = sum_n gamma_n |a_n|^2
    y_seminorm_sq(F) = sum_n (gamma_{n+1} - gamma_n) |a_n|^2

The forward differences Gamma_n = gamma_{n+1} - gamma_n are always
nonnegative; their monotonicity (nondecreasing = convex weight,
nonincreasing = concave weight) decides which decomposition bounds
apply.

Each closed-form family is one row of _FAMILIES: its parameter, its
gamma formula and its growth class.  A "table" weight holds explicit
values and repeats the last one past its end, and classify reads every
one of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .series import _integral, as_series
from .errors import InvalidSpec


@dataclass(frozen=True)
class GrowthClass:
    """Classification flags for a weight sequence.

    convex        second differences all >= 0 (steps nondecreasing)
    concave       second differences all <= 0 (steps nonincreasing)
    constant_step gamma_n = c n for a fixed c > 0
    bounded       gamma_n increases to a finite limit
    limit         that limit M, or None when unbounded
    tail_summable sum_n (M - gamma_n) converges
    """

    convex: bool
    concave: bool
    constant_step: bool
    bounded: bool
    limit: float | None
    tail_summable: bool

    def __post_init__(self):
        if self.constant_step and not (self.convex and self.concave):
            raise InvalidSpec("constant step implies convex and concave")
        if self.tail_summable and not self.bounded:
            raise InvalidSpec("tail summability implies boundedness")
        if self.bounded == (self.limit is None):
            raise InvalidSpec("limit must be present exactly when bounded")


class _Param(NamedTuple):
    """A closed-form family's parameter: a value of type kind above low,
    and default where CLI notation leaves it out."""

    name: str
    kind: type
    low: float
    default: float


class _Family(NamedTuple):
    """A closed-form family: its parameters, gamma(n, *args) on the float
    index array n, and growth(*args), its GrowthClass, where args are the
    parameter values in order."""

    params: tuple
    gamma: Callable
    growth: Callable


def _finite(value) -> bool:
    """Whether a real number is finite as a float; an int past the float
    range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _power_sums(n, beta):
    return np.concatenate([[0.0], np.cumsum(n[1:] ** -beta)])


# GrowthClass(convex, concave, constant_step, bounded, limit, tail_summable)
_LINEAR = GrowthClass(True, True, True, False, None, False)
_FAMILIES = {
    "dirichlet": _Family((), lambda n: n, lambda: _LINEAR),
    "sobolev_square": _Family(
        (), lambda n: n * n, lambda: GrowthClass(True, False, False, False, None, False)
    ),
    "constant_step": _Family(
        (_Param("c", float, 0.0, 1.0),), lambda n, c: c * n, lambda c: _LINEAR
    ),
    # concave only for k = 1, whose steps are 1, 0, 0, ...
    "indicator": _Family(
        (_Param("k", int, 0, 1),),
        lambda n, k: (n >= k).astype(float),
        lambda k: GrowthClass(False, k == 1, False, True, 1.0, True),
    ),
    # bounded by zeta(beta) for beta > 1; the tail sum_{j>n} j^-beta is
    # about n^(1 - beta) / (beta - 1), summable for beta > 2
    "concave_power_sum": _Family(
        (_Param("beta", float, 0.0, 2.0),),
        _power_sums,
        lambda beta: GrowthClass(
            False, True, False, beta > 1, _zeta(beta) if beta > 1 else None, beta > 2
        ),
    ),
}


class WeightSequence:
    """A named weight family plus its parameters.

    Construct through the factory classmethods; gamma values are
    materialized lazily and cached as one growing numpy array.  The
    closed-form families are the rows of _FAMILIES; "table" holds
    explicit values.
    """

    __slots__ = ("family", "params", "_cache", "_steps")

    def __init__(self, family: str, params: dict | None = None):
        if family != "table" and family not in _FAMILIES:
            raise InvalidSpec(f"unknown weight family {family!r}")
        self.family = family
        try:
            self.params = dict(params or {})
        except (TypeError, ValueError):
            raise InvalidSpec(f"weight parameters must be a mapping, got {params!r}") from None
        self._validate()
        self._cache = np.zeros(0)
        self._steps = np.zeros(0)

    # -- factories ---------------------------------------------------

    @classmethod
    def dirichlet(cls) -> "WeightSequence":
        """gamma_n = n."""
        return cls("dirichlet")

    @classmethod
    def sobolev_square(cls) -> "WeightSequence":
        """gamma_n = n^2."""
        return cls("sobolev_square")

    @classmethod
    def constant_step(cls, c: float) -> "WeightSequence":
        """gamma_n = c n for a fixed step c > 0."""
        return cls("constant_step", {"c": c})

    @classmethod
    def indicator(cls, k: int) -> "WeightSequence":
        """gamma_n = 0 for n < k, 1 for n >= k.  Picks out tail energy."""
        return cls("indicator", {"k": k})

    @classmethod
    def concave_power_sum(cls, beta: float) -> "WeightSequence":
        """gamma_n = sum_{j=1}^{n} j^(-beta), a concave bounded family
        for beta > 1."""
        return cls("concave_power_sum", {"beta": beta})

    @classmethod
    def table(cls, values) -> "WeightSequence":
        """Explicit gamma values; indices past the end repeat the final
        value."""
        return cls("table", {"values": list(values)})

    def _args(self) -> tuple:
        return tuple(self.params[p.name] for p in _FAMILIES[self.family].params)

    def _validate(self):
        p = self.params
        row = () if self.family == "table" else _FAMILIES[self.family].params
        names = {"values"} if self.family == "table" else {param.name for param in row}
        unknown = p.keys() - names
        if unknown:
            raise InvalidSpec(f"{self.family} has no parameter {unknown.pop()!r}")
        if self.family == "table":
            try:
                arr = np.asarray(p.get("values"), dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise InvalidSpec("table values must be finite numbers") from None
            if arr.ndim != 1 or not arr.size:
                raise InvalidSpec("table requires a list of at least one value")
            if not np.all(np.isfinite(arr)):
                raise InvalidSpec("table values must be finite numbers")
            if arr[0] != 0.0:
                raise InvalidSpec("gamma_0 must be 0")
            if np.any(np.diff(arr) < 0):
                raise InvalidSpec("table values must be nondecreasing")
            p["values"] = arr.tolist()
        for param in row:
            what = f"{self.family} {param.name}"
            value = p.get(param.name, param.low)
            if param.kind is int:
                value = _integral(value, what)
            elif not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise InvalidSpec(f"{what} must be a number, got {value!r}")
            if not (value > param.low and _finite(value)):
                raise InvalidSpec(f"{self.family} requires a finite {param.name} > {param.low}")
            p[param.name] = value if param.kind is int else float(value)

    # -- gamma materialization ----------------------------------------

    def _compute(self, count: int) -> np.ndarray:
        if self.family != "table":
            n = np.arange(count, dtype=float)
            return _FAMILIES[self.family].gamma(n, *self._args())
        vals = np.asarray(self.params["values"], dtype=float)
        return vals[np.minimum(np.arange(count), len(vals) - 1)]

    def gammas(self, count: int) -> np.ndarray:
        """gamma_0 .. gamma_{count-1} as a float array."""
        if count <= 0:
            return np.zeros(0)
        if len(self._cache) < count:
            self._cache = self._compute(count)
            self._cache.setflags(write=False)  # one weight may serve many callers
        return self._cache[:count]

    def steps(self, count: int) -> np.ndarray:
        """Gamma_0 .. Gamma_{count-1}, Gamma_n = gamma_{n+1} - gamma_n,
        as a float array cached like gammas."""
        if count <= 0:
            return np.zeros(0)
        if len(self._steps) < count:
            self._steps = np.diff(self.gammas(count + 1))
            self._steps.setflags(write=False)
        return self._steps[:count]

    # -- serialization -------------------------------------------------

    def describe(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def parse(cls, text: str) -> "WeightSequence":
        """Parse CLI notation for a closed-form family: "dirichlet",
        "constant_step:2", "indicator:3", "concave_power_sum:2.5".  A
        missing parameter takes the row's default; an argument is read as
        a float and checked as the row's parameter."""
        name, _, arg = text.partition(":")
        row = _FAMILIES.get(name.strip())
        if row is None or arg and not row.params:
            raise InvalidSpec(f"cannot parse weight {text!r}")
        try:
            params = {p.name: float(arg or p.default) for p in row.params}
        except ValueError:
            raise InvalidSpec(f"cannot parse the parameter of weight {text!r}") from None
        return cls(name.strip(), params)

    def __repr__(self) -> str:
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
            return f"WeightSequence.{self.family}({inner})"
        return f"WeightSequence.{self.family}()"

    def __eq__(self, other):
        if not isinstance(other, WeightSequence):
            return NotImplemented
        return self.family == other.family and self.params == other.params

    __hash__ = None


# B_2k / (2k)! for k = 1..4: the Euler-Maclaurin correction coefficients
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)


def _zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1: the terms below n = 20 plus the
    Euler-Maclaurin tail from n, summed with one rounding.  The first
    omitted correction is below 1e-15 relative for every s > 1."""
    n = 20
    terms = [j ** -s for j in range(1, n)]
    terms += [n ** (1 - s) / (s - 1), n ** -s / 2]
    # s (s+1) ... (s+2k) n^(-s-2k-1), built one factor at a time so a
    # large s underflows it to 0 instead of meeting an inf
    derivative = n ** -s
    for k, coeff in enumerate(_EULER_MACLAURIN):
        derivative *= (s + 2 * k) / n
        terms.append(coeff * derivative)
        derivative *= (s + 2 * k + 1) / n
    return math.fsum(terms)


def classify(w: WeightSequence) -> GrowthClass:
    """Growth classification of a weight.

    Closed-form families read their row's growth class.  A table is
    classified from the second differences of all its stored values and
    the first held one: the table repeats its last value, so that one
    adds the only new difference.
    """
    if w.family != "table":
        return _FAMILIES[w.family].growth(*w._args())
    vals = np.asarray(w.params["values"], dtype=float)
    g = w.gammas(len(vals) + 1)
    d1 = np.diff(g)
    d2 = np.diff(d1)
    tol = 1e-12 * max(1.0, float(np.max(g)))
    convex = bool(np.all(d2 >= -tol))
    concave = bool(np.all(d2 <= tol))
    const = len(d1) > 0 and bool(np.all(np.abs(d1 - d1[0]) <= tol)) and d1[0] > 0
    if const:
        convex = concave = True
    # the sequence is eventually constant, so it is bounded and the tail
    # sum has finitely many nonzero terms
    return GrowthClass(convex, concave, const, True, float(vals[-1]), True)


def x_norm_sq(f, w: WeightSequence) -> float:
    """Weighted squared norm sum_n gamma_n |a_n|^2."""
    f = as_series(f)
    mags = np.abs(f.coeffs)
    return float(np.dot(w.gammas(len(f)), np.square(mags, out=mags)))


def y_seminorm_sq(f, w: WeightSequence) -> float:
    """Difference-weighted squared seminorm sum_n Gamma_n |a_n|^2 with
    Gamma_n = gamma_{n+1} - gamma_n."""
    f = as_series(f)
    mags = np.abs(f.coeffs)
    return float(np.dot(w.steps(len(f)), np.square(mags, out=mags)))


def dirichlet_norm_sq(f) -> float:
    """Squared norm sum_n (n + 1) |a_n|^2 (area form of the Dirichlet
    energy plus the Hardy term)."""
    f = as_series(f)
    return float(np.dot(np.arange(1, len(f) + 1, dtype=float), np.abs(f.coeffs) ** 2))


def hardy_sobolev_norm_sq(f) -> float:
    """Squared first-order Hardy-Sobolev norm sum_n (1 + n^2) |a_n|^2."""
    f = as_series(f)
    n = np.arange(len(f), dtype=float)
    return float(np.dot(1.0 + n * n, np.abs(f.coeffs) ** 2))

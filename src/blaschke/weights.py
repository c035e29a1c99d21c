"""Weight sequences and the weighted norms they induce.

A weight is a nondecreasing sequence gamma_0 <= gamma_1 <= ... with
gamma_0 = 0.  It induces a squared norm

    x_norm_sq(F)     = sum_n gamma_n |a_n|^2
    y_seminorm_sq(F) = sum_n (gamma_{n+1} - gamma_n) |a_n|^2

The forward differences Gamma_n = gamma_{n+1} - gamma_n are always
nonnegative; their monotonicity (nondecreasing = convex weight,
nonincreasing = concave weight) decides which decomposition bounds
apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import as_series
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


_FAMILIES = ("dirichlet", "sobolev_square", "constant_step", "indicator",
             "concave_power_sum", "table")


class WeightSequence:
    """A named weight family plus its parameters.

    Construct through the factory classmethods; gamma values are
    materialized lazily and cached as one growing numpy array.
    """

    __slots__ = ("family", "params", "_cache")

    def __init__(self, family: str, params: dict | None = None):
        if family not in _FAMILIES:
            raise InvalidSpec(f"unknown weight family {family!r}")
        self.family = family
        self.params = dict(params or {})
        self._validate()
        self._cache = np.zeros(0)

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
        return cls("constant_step", {"c": float(c)})

    @classmethod
    def indicator(cls, k: int) -> "WeightSequence":
        """gamma_n = 0 for n < k, 1 for n >= k.  Picks out tail energy."""
        return cls("indicator", {"k": int(k)})

    @classmethod
    def concave_power_sum(cls, beta: float) -> "WeightSequence":
        """gamma_n = sum_{j=1}^{n} j^(-beta), a concave bounded family
        for beta > 1."""
        return cls("concave_power_sum", {"beta": float(beta)})

    @classmethod
    def table(cls, values, extension_rule: str = "hold_last") -> "WeightSequence":
        """Explicit gamma values with a rule for indices past the end:
        "hold_last" repeats the final value, "error" raises IndexError."""
        vals = [float(v) for v in values]
        return cls("table", {"values": vals, "extension_rule": extension_rule})

    def _validate(self):
        p = self.params
        if self.family == "constant_step":
            if not (p.get("c", 0) > 0) or not np.isfinite(p["c"]):
                raise InvalidSpec("constant_step requires c > 0")
        elif self.family == "indicator":
            if p.get("k", 0) < 1:
                raise InvalidSpec("indicator requires k >= 1 (gamma_0 must be 0)")
        elif self.family == "concave_power_sum":
            if not (p.get("beta", 0) > 0) or not np.isfinite(p["beta"]):
                raise InvalidSpec("concave_power_sum requires beta > 0")
        elif self.family == "table":
            vals = p.get("values")
            if not vals:
                raise InvalidSpec("table requires at least one value")
            arr = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise InvalidSpec("table values must be finite")
            if arr[0] != 0.0:
                raise InvalidSpec("gamma_0 must be 0")
            if np.any(np.diff(arr) < 0):
                raise InvalidSpec("table values must be nondecreasing")
            if p.get("extension_rule") not in ("hold_last", "error"):
                raise InvalidSpec("extension_rule must be 'hold_last' or 'error'")

    # -- gamma materialization ----------------------------------------

    def _compute(self, count: int) -> np.ndarray:
        n = np.arange(count, dtype=float)
        fam = self.family
        if fam == "dirichlet":
            return n
        if fam == "sobolev_square":
            return n * n
        if fam == "constant_step":
            return self.params["c"] * n
        if fam == "indicator":
            return (n >= self.params["k"]).astype(float)
        if fam == "concave_power_sum":
            beta = self.params["beta"]
            out = np.zeros(count)
            if count > 1:
                out[1:] = np.cumsum(np.arange(1, count, dtype=float) ** (-beta))
            return out
        # table
        vals = np.asarray(self.params["values"], dtype=float)
        if count <= len(vals):
            return vals[:count].copy()
        if self.params["extension_rule"] == "error":
            raise IndexError(
                f"weight table has {len(vals)} entries, index {count - 1} requested"
            )
        return np.concatenate([vals, np.full(count - len(vals), vals[-1])])

    def gammas(self, count: int) -> np.ndarray:
        """gamma_0 .. gamma_{count-1} as a float array."""
        if count <= 0:
            return np.zeros(0)
        if len(self._cache) < count:
            self._cache = self._compute(count)
        return self._cache[:count]

    def gamma_at(self, n: int) -> float:
        if n < 0:
            raise IndexError("weight index must be nonnegative")
        return float(self.gammas(n + 1)[n])

    # -- serialization -------------------------------------------------

    def describe(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_descriptor(cls, data: dict) -> "WeightSequence":
        try:
            return cls(data["family"], data.get("params") or {})
        except (KeyError, TypeError) as exc:
            raise InvalidSpec(f"malformed weight descriptor: {exc}") from exc

    @classmethod
    def parse(cls, text: str) -> "WeightSequence":
        """Parse CLI notation: "dirichlet", "constant_step:2",
        "indicator:3", "concave_power_sum:2.5"."""
        name, _, arg = text.partition(":")
        name = name.strip()
        if name in ("dirichlet", "sobolev_square"):
            return cls(name)
        if name == "constant_step":
            return cls.constant_step(float(arg or 1.0))
        if name == "indicator":
            return cls.indicator(int(arg or 1))
        if name == "concave_power_sum":
            return cls.concave_power_sum(float(arg or 2.0))
        raise InvalidSpec(f"cannot parse weight {text!r}")

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


def gamma_at(w: WeightSequence, n: int) -> float:
    return w.gamma_at(n)


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


def classify(w: WeightSequence, horizon: int = 64) -> GrowthClass:
    """Growth classification of a weight.

    Closed-form families are classified analytically.  Tables are
    classified by inspecting second differences out to the horizon
    (or the table length, whichever is smaller).
    """
    if horizon < 2:
        raise InvalidSpec("horizon must be at least 2")
    fam = w.family
    if fam in ("dirichlet", "constant_step"):
        return GrowthClass(True, True, True, False, None, False)
    if fam == "sobolev_square":
        return GrowthClass(True, False, False, False, None, False)
    if fam == "indicator":
        k = w.params["k"]
        return GrowthClass(
            convex=False,
            concave=(k == 1),
            constant_step=False,
            bounded=True,
            limit=1.0,
            tail_summable=True,
        )
    if fam == "concave_power_sum":
        beta = w.params["beta"]
        bounded = beta > 1
        return GrowthClass(
            convex=False,
            concave=True,
            constant_step=False,
            bounded=bounded,
            limit=_zeta(beta) if bounded else None,
            tail_summable=beta > 2,
        )
    # table: sample within the stored range (hold_last extension makes
    # everything past the end constant, which only adds concavity info)
    vals = np.asarray(w.params["values"], dtype=float)
    hold = w.params["extension_rule"] == "hold_last"
    span = min(horizon + 2, len(vals)) if not hold else horizon + 2
    g = w.gammas(span)
    d1 = np.diff(g)
    d2 = np.diff(d1)
    tol = 1e-12 * max(1.0, float(np.max(g)))
    convex = bool(np.all(d2 >= -tol))
    concave = bool(np.all(d2 <= tol))
    const = len(d1) > 0 and bool(np.all(np.abs(d1 - d1[0]) <= tol)) and d1[0] > 0
    if const:
        convex = concave = True
    bounded = hold
    limit = float(vals[-1]) if hold else None
    # with hold_last the sequence is eventually constant, so the tail
    # sum has finitely many nonzero terms
    tail = hold
    return GrowthClass(convex, concave, const, bounded, limit, tail)


def x_norm_sq(f, w: WeightSequence) -> float:
    """Weighted squared norm sum_n gamma_n |a_n|^2."""
    f = as_series(f)
    if len(f) == 0:
        return 0.0
    return float(np.dot(w.gammas(len(f)), np.abs(f.coeffs) ** 2))


def y_seminorm_sq(f, w: WeightSequence) -> float:
    """Difference-weighted squared seminorm sum_n Gamma_n |a_n|^2 with
    Gamma_n = gamma_{n+1} - gamma_n."""
    f = as_series(f)
    if len(f) == 0:
        return 0.0
    steps = np.diff(w.gammas(len(f) + 1))
    return float(np.dot(steps, np.abs(f.coeffs) ** 2))


def dirichlet_norm_sq(f) -> float:
    """Squared norm sum_n (n + 1) |a_n|^2 (area form of the Dirichlet
    energy plus the Hardy term)."""
    f = as_series(f)
    if len(f) == 0:
        return 0.0
    return float(np.dot(np.arange(1, len(f) + 1, dtype=float), np.abs(f.coeffs) ** 2))


def hardy_sobolev_norm_sq(f) -> float:
    """Squared first-order Hardy-Sobolev norm sum_n (1 + n^2) |a_n|^2."""
    f = as_series(f)
    if len(f) == 0:
        return 0.0
    n = np.arange(len(f), dtype=float)
    return float(np.dot(1.0 + n * n, np.abs(f.coeffs) ** 2))

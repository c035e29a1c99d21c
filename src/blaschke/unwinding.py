"""Iterated Blaschke decomposition: the unwinding expansion.

Starting from u_0 = f, each round factors u_n = B_n G_n with B_n a
Blaschke product and G_n zero free in the disk, records the constant
G_n(0), and recurses on u_{n+1} = G_n - G_n(0).  Collecting terms,

    f = sum_{j<=n} G_j(0) * B_0 ... B_j  +  B_0 ... B_n (G_n - G_n(0)),

so the partial sums reproduce f up to a residual whose Hardy energy
drops by exactly |G_n(0)|^2 per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import DEFAULT_MARGIN, decompose
from .errors import InsufficientDepth, InvalidSpec, ZeroSeries
from .series import (
    CoefficientSeries,
    _coeff_norm,
    _integral,
    as_series,
    h2_norm_sq,
    multiply,
)

_RESIDUAL_FLOOR = 1e-20


@dataclass(frozen=True)
class UnwindingExpansion:
    """Everything produced by an unwinding run.

    constants[n]            G_n(0), never zero
    cumulative_blaschke[n]  truncated series of B_0 * ... * B_n
    residual_h2[n]          Hardy energy of u_{n+1} = G_n - G_n(0)
    terminated              True when the run stopped because the
                            residual hit the energy floor
    """

    constants: tuple
    cumulative_blaschke: tuple
    residual_h2: tuple
    terminated: bool
    input_h2: float

    @property
    def depth(self) -> int:
        return len(self.constants)

    def to_json_dict(self) -> dict:
        return {
            "constants": [[c.real, c.imag] for c in self.constants],
            "residual_h2": list(self.residual_h2),
            "terminated": self.terminated,
            "input_h2": self.input_h2,
            "cumulative_blaschke": [
                b.to_json_dict()["coeffs"] for b in self.cumulative_blaschke
            ],
        }


def unwind(f, depth: int, margin: float = DEFAULT_MARGIN) -> UnwindingExpansion:
    """Run the unwinding iteration for up to `depth` rounds, each one a
    decompose at the boundary margin.

    Stops early once the residual energy falls below _RESIDUAL_FLOOR
    (1e-20) of the input energy.  A run that exhausts its depth first
    returns the partial expansion, with terminated False.

    All series are truncated at the input's degree cap, which is exact:
    the iteration never moves energy from high order to low order.
    """
    f = as_series(f)
    depth = _integral(depth, "depth")
    if depth < 1:
        raise InvalidSpec("depth must be at least 1")
    if f.is_zero():
        raise ZeroSeries("cannot unwind the zero series")
    cap = f.degree_cap
    # energies past the double range are stored as inf; the stop test
    # squares the ratio of unsquared norms, which stays in range
    input_h2 = h2_norm_sq(f)
    input_norm = _coeff_norm(f.coeffs)
    constants = []
    cumulative = []
    residual_h2 = []
    terminated = False
    current = f
    running = None
    for _ in range(depth):
        chain = decompose(current, margin)
        block = chain.blaschke_series(cap)
        running = block if running is None else multiply(running, block, cap)
        g = chain.g
        c = g.constant
        rest = np.array(g.coeffs, copy=True)
        rest[0] = 0
        residual = CoefficientSeries(rest)
        constants.append(c)
        cumulative.append(running)
        residual_h2.append(h2_norm_sq(residual))
        ratio = _coeff_norm(rest) / input_norm
        if ratio * ratio <= _RESIDUAL_FLOOR:
            terminated = True
            break
        current = residual
    return UnwindingExpansion(
        tuple(constants),
        tuple(cumulative),
        tuple(residual_h2),
        terminated,
        input_h2,
    )


def reconstruct(expansion: UnwindingExpansion, n: int) -> CoefficientSeries:
    """Partial sum sum_{j<=n} G_j(0) * B_0...B_j as a truncated series."""
    n = _integral(n, "depth index")
    if not 0 <= n < expansion.depth:
        raise IndexError(f"depth index {n} outside computed range")
    length = len(expansion.cumulative_blaschke[0])
    acc = np.zeros(length, dtype=np.complex128)
    for j in range(n + 1):
        acc += expansion.constants[j] * expansion.cumulative_blaschke[j].padded(length)
    return CoefficientSeries(acc)


def residual_decay_rate(expansion: UnwindingExpansion) -> list[float]:
    """Consecutive residual energy ratios, skipping exhausted levels."""
    if expansion.depth < 2:
        raise InsufficientDepth("need at least two rounds to form ratios")
    ratios = []
    for a, b in zip(expansion.residual_h2, expansion.residual_h2[1:]):
        if a > 0:
            ratios.append(b / a)
    return ratios

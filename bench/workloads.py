"""The benchmark's workloads: inputs made from the seed, one operation
through the package's public API, and a check of every output.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  ``inputs(seed)`` yields an
endless, seed-determined stream of operation inputs; the stream is built
in this file, so the package receives only the generated inputs.
``run`` is the timed call.  ``check`` returns None for a correct output
and otherwise says what is wrong; it calls nothing in the package, so a
traced run counts only the operations themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import blaschke
import blaschke.cli


def smooth_signal(rng, sample_count: int, decay_range) -> np.ndarray:
    """Real samples of a random Fourier series whose amplitudes decay
    like decay**n, with decay drawn from decay_range."""
    decay = rng.uniform(*decay_range)
    half = sample_count // 2
    n = np.arange(1, half)
    c = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) * decay ** n
    spectrum = np.zeros(sample_count, dtype=np.complex128)
    spectrum[0] = rng.standard_normal()
    spectrum[1:half] = c
    spectrum[half + 1:] = np.conj(c[::-1])
    return np.fft.ifft(spectrum).real * sample_count


def analytic_energy(samples: np.ndarray) -> float:
    """H2 energy of the analytic signal at cap K/2 - 1, from the FFT."""
    k = len(samples)
    c = np.fft.fft(samples) / k
    return float(abs(c[0]) ** 2 + 4.0 * np.sum(np.abs(c[1 : k // 2]) ** 2))


class Sweep:
    """One in-process CLI call: ``blaschke sweep --claim all --count 7``.

    Seven instances are one full degree cycle (4 to 32); nine claims
    give 63 reports.  Many small problems: low-degree root finding, the
    verify layer and the CLI's JSON output dominate.
    """

    reports = 63

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, "sweep-reports.jsonl")

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def run(self, sweep_seed: int):
        argv = ["sweep", "--claim", "all", "--count", "7",
                "--seed", str(sweep_seed), "--output", self.path]
        with contextlib.redirect_stderr(io.StringIO()):
            return blaschke.cli.main(argv)

    def check(self, sweep_seed: int, exit_code) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        with open(self.path) as fh:
            reports = [json.loads(line) for line in fh if line.strip()]
        if len(reports) != self.reports:
            return f"{len(reports)} reports, expected {self.reports}"
        failed = [r["claim"] for r in reports if not r["passed"]]
        if failed:
            return f"claims failed: {sorted(set(failed))}"
        return None


# Sample counts K per cycle.  ``unwind`` stays at degree 63, where no
# operation fails today; ``unwind_wide`` covers degrees 127 to 511, the
# failure regime (see README.md), and is not part of BENCHMARK.json.
UNWIND_CYCLE = (128,)
UNWIND_WIDE_CYCLE = (256, 512, 1024)


class Unwind:
    """``unwind(analytic_signal(BoundarySignal(s), K//2 - 1), depth=6)``
    on smooth random signals.

    The sample counts cycle in fixed proportions, shuffled per cycle, so
    every run sees the same mix of degrees.
    """

    depth = 6
    decay_range = (0.86, 0.94)
    energy_rtol = 1e-8
    floor = 1e-20  # unwind's default residual floor, relative to the input

    def __init__(self, cycle):
        self.cycle = tuple(cycle)

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        while True:
            for k in rng.permutation(self.cycle):
                yield smooth_signal(rng, int(k), self.decay_range)

    def run(self, samples: np.ndarray):
        k = len(samples)
        f = blaschke.analytic_signal(blaschke.BoundarySignal(samples), k // 2 - 1)
        return blaschke.unwind(f, depth=self.depth)

    def check(self, samples: np.ndarray, expansion) -> str | None:
        """Acceptance criterion 7: residual energies do not increase and
        constants plus residual account for the input energy."""
        total = analytic_energy(samples)
        floor = self.floor * total
        energies = expansion.residual_h2
        for n, (a, b) in enumerate(zip(energies, energies[1:])):
            if not (b < a or a <= floor):
                return f"residual energy rose at round {n + 1}"
        acc = 0.0
        for n in range(expansion.depth):
            acc += abs(expansion.constants[n]) ** 2
            if abs(acc + energies[n] - total) > self.energy_rtol * total:
                return f"energy split off by {abs(acc + energies[n] - total):.3g} at round {n}"
        return None


# Ladder sections as (cap, root exponent, degree of g), listed from
# fastest to slowest.  Roots a_j = (1 - 1/(j+1)**exponent) e^{ij} approach
# the circle faster for a larger exponent, which raises the projection
# cap and so the FFT grid (8 * projection cap * len(g) points, 4096 to
# 524288 here).  With 25 sections per cycle the median falls on the
# middle copies of the 13th and the 90th percentile on those of the 23rd,
# and their neighbours take similar time, so both stay steady from run to
# run.
LADDER_SECTIONS = (
    (5, 1.5, 0), (10, 1.5, 0), (8, 2.0, 0), (6, 2.0, 0), (15, 1.5, 0),
    (8, 1.5, 2), (6, 1.5, 6), (7, 2.5, 0), (7, 1.5, 8), (6, 2.5, 0),
    (11, 2.0, 0), (13, 2.0, 0), (5, 2.0, 4), (12, 2.0, 0), (9, 2.0, 0),
    (25, 1.5, 0), (30, 1.5, 0), (8, 2.5, 0), (10, 2.5, 0), (5, 3.0, 0),
    (12, 2.0, 1), (9, 1.5, 8), (10, 2.0, 2), (11, 2.0, 2), (40, 2.0, 0),
)
LADDER_BETAS = (2.5, 3.0, 4.0)


def accumulating_roots(count: int, exponent: float) -> list[complex]:
    """a_j = (1 - 1/(j+1)**exponent) e^{ij} for j = 1..count."""
    j = np.arange(1, count + 1)
    return list((1.0 - 1.0 / (j + 1.0) ** exponent) * np.exp(1j * j))


def zero_free_polynomial(rng, degree: int) -> np.ndarray:
    """g = 1 at degree 0, else amp * prod (1 - conj(b) z) with |b| <= 0.9,
    whose roots all lie outside the closed disk."""
    if degree == 0:
        return np.array([1.0 + 0j])
    radii = np.sqrt(rng.uniform(0.0, 0.81, size=degree))
    betas = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=degree))
    poly = np.array([1.0 + 0j])
    for beta in betas:
        poly = np.convolve(poly, [1.0, -np.conj(beta)])
    return poly * rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


class Ladder:
    """One truncated section of theorem 3:
    ``verify_theorem3_truncated(roots, g, w, [cap])``.

    A few long vectors: FFT grids of 10^3 to 5 * 10^5 points and series
    of 10^3 to 6.5 * 10^4 coefficients, with little root finding.
    """

    roundtrip_limit = 1e-9

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            for i in rng.permutation(len(LADDER_SECTIONS)):
                cap, exponent, g_degree = LADDER_SECTIONS[i]
                beta = float(rng.choice(LADDER_BETAS))
                yield (accumulating_roots(cap, exponent),
                       zero_free_polynomial(rng, g_degree), beta, cap)

    def run(self, section):
        roots, g, beta, cap = section
        w = blaschke.WeightSequence.concave_power_sum(beta)
        return blaschke.verify_theorem3_truncated(roots, g, w, [cap])

    def check(self, section, reports) -> str | None:
        if len(reports) != 1:
            return f"{len(reports)} reports for one section"
        report = reports[0]
        ctx = report.context
        if not report.passed:
            return f"section failed with slack {report.slack:.3g}"
        if not ctx["roundtrip_error"] <= self.roundtrip_limit:
            return f"round trip error {ctx['roundtrip_error']:.3g}"
        if np.any(np.diff(ctx["correction_partial_sums"]) < 0):
            return "correction partial sums decrease"
        if not ctx["corrections_bounded_by_x"]:
            return "corrections exceed the truncated energy"
        return None


def make(name: str, out_dir: str):
    if name == "sweep":
        return Sweep(out_dir)
    if name == "unwind":
        return Unwind(UNWIND_CYCLE)
    if name == "unwind_wide":
        return Unwind(UNWIND_WIDE_CYCLE)
    if name == "ladder":
        return Ladder()
    raise KeyError(name)

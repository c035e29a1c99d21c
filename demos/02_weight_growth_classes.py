"""
Weight families and what their growth buys
==========================================

The reflection ledger always holds with the exact per-step quotients.
Convex weight growth lets the quotients be replaced by functions of
the final factor g, concave growth by deflations of the input itself.
This script classifies each built-in family and one explicit table,
and checks the matching bound on one instance.
"""

import numpy as np

from blaschke import (
    InstanceSpec,
    WeightSequence,
    classify,
    generate_instance,
    verify_corollary1,
    verify_theorem1,
    verify_theorem2,
)

families = [
    WeightSequence.dirichlet(),
    WeightSequence.sobolev_square(),
    WeightSequence.constant_step(0.5),
    WeightSequence.indicator(2),
    WeightSequence.concave_power_sum(3.0),
    WeightSequence.concave_power_sum(1.5),
    # halving steps, held at 1.875 past the table's end
    WeightSequence.table([0.0, 1.0, 1.5, 1.75, 1.875]),
]

print("growth classification (first 8 gamma values shown):")
for w in families:
    c = classify(w)
    flags = []
    if c.constant_step:
        flags.append("constant-step")
    else:
        if c.convex:
            flags.append("convex")
        if c.concave:
            flags.append("concave")
    if c.bounded:
        flags.append(f"bounded (limit {c.limit:.4f})")
    if c.tail_summable:
        flags.append("tail-summable")
    print(f"  {w!r:42} {np.round(w.gammas(8), 3)}  {', '.join(flags)}")

# one reproducible polynomial with three interior roots
spec = InstanceSpec(root_count=3, root_radius=(0.2, 0.8), degree_cap=10, seed=3)
f = generate_instance(spec)
print("\ninstance degree:", f.degree_cap)

print("\nupper bounds on the reflected energy x(g):")
r = verify_theorem1(f, WeightSequence.sobolev_square())
print(f"  convex  (sobolev_square):   x(g) = {r.lhs:.6f} <= {r.rhs:.6f}")

r = verify_theorem2(f, WeightSequence.concave_power_sum(3.0))
print(f"  concave (power_sum 3):      x(g) = {r.lhs:.6f} <= {r.rhs:.6f}")

r = verify_corollary1(f, WeightSequence.constant_step(0.5))
print(f"  constant step: identity     {r.lhs:.6f} == {r.rhs:.6f}")
print("\nslack is rhs - lhs; constant steps close the gap to zero:")
print(f"  convex slack   {verify_theorem1(f, WeightSequence.sobolev_square()).slack:.3e}")
print(f"  concave slack  {verify_theorem2(f, WeightSequence.concave_power_sum(3.0)).slack:.3e}")
print(f"  identity gap   {verify_corollary1(f, WeightSequence.constant_step(0.5)).slack:.3e}")

"""Show why the memoized scan is cheap: predicted vs measured operation counts.

The brute-force cost C_b re-sums every window from scratch; the memoized
cost C_b* pays one pass to build running sums and then one subtraction per
window. An instrumented scan counts the summation operations actually
performed and lands well inside the predicted envelope. Run with:

    python demos/03_operation_counts.py
"""

import numpy as np

from segscan import (NoiseModel, Profile, ScanConfig, build_prefix_sums,
                     predicted_op_counts, scan)
from segscan.stats import OpCounter

cfg = ScanConfig()  # w_min 1, w_max 300, rho 1.1
rng = np.random.default_rng(0)

print(f"{'N':>8} {'C_b (brute)':>14} {'C_b* (memo)':>12} {'ratio':>7} {'measured':>9}")
for n in (1_000, 5_000, 20_000, 100_000):
    c_brute, c_memo = predicted_op_counts(n, cfg)
    profile = Profile(rng.normal(size=n))
    counter = OpCounter()
    ps = build_prefix_sums(profile, counter)
    scan(profile, ps, NoiseModel(1.0), cfg, counter=counter)
    print(f"{n:>8d} {c_brute:>14d} {c_memo:>12d} {c_brute / c_memo:>7.1f} {counter.count:>9d}")

print("\nmeasured counts stay below C_b*: the stride thins the window grid,")
print("and the prefix build costs one add per point.")

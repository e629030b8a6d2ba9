"""Dependent rows: the block multiplier bootstrap.

When rows are a time series, resampling or reweighting individual rows
destroys the serial dependence and understates variance.  The block variant
attaches one normal multiplier to each large block of consecutive rows,
separated by small ignored blocks, so block sums keep the short-range
dependence inside them.  The statistic here is non-studentized:
max_j sqrt(n) * mean_j.
"""

import math

import numpy as np

from momentineq import SeededStream, bmb_test, make_blocks
from momentineq.gaussian import open_uniform

rng_seed = 17
n, p, phi = 400, 20, 0.7

# AR(1) rows with bounded (uniform) innovations, mean zero: the null holds
gen = SeededStream(rng_seed).generator()
u = math.sqrt(3.0) * (2.0 * open_uniform(gen, (n + 50, p)) - 1.0)
x = np.empty_like(u)
x[0] = u[0]
for t in range(1, len(u)):
    x[t] = phi * x[t - 1] + math.sqrt(1 - phi * phi) * u[t]
x = x[50:]

plan = make_blocks(n, q=20, r=4)
print(f"n={n}, p={p}, AR coefficient {phi}")
print(f"blocks: {plan.m} large of length {plan.q}, separated by length-{plan.r} gaps")

d = bmb_test(x, plan, alpha=0.05, B=2000, stream=SeededStream(rng_seed).child("bmb"))
print(f"statistic {d.statistic:.4f} vs block-bootstrap cutoff {d.critical_value:.4f}"
      f" -> reject: {d.reject}")

# contrast: a cutoff that pretends rows are independent is visibly smaller
iid_plan = make_blocks(n, q=2, r=1)
d_iid = bmb_test(x, iid_plan, alpha=0.05, B=2000, stream=SeededStream(rng_seed).child("iid"))
print(f"with tiny blocks (dependence ignored) the cutoff drops to"
      f" {d_iid.critical_value:.4f}: too aggressive for data this sticky")

# a genuine violation is still caught
x_bad = x.copy()
x_bad[:, 3] += 0.4
d_bad = bmb_test(x_bad, plan, alpha=0.05, B=2000, stream=SeededStream(rng_seed).child("bad"))
print(f"after shifting one column by +0.4: statistic"
      f" {d_bad.statistic:.2f} -> reject: {d_bad.reject}")

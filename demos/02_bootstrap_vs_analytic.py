"""Why pay for a bootstrap: correlation awareness.

The analytic cutoff grows with log(p) no matter what the columns look like.
The bootstrap sees the actual correlation: strongly correlated columns are
nearly one column, so its cutoff barely moves when p grows by duplication.
"""

import numpy as np

from momentineq import CriticalValueSpec, SeededStream, run_test, sn_one_step

rng = np.random.default_rng(11)
n = 400

base = rng.normal(size=(n, 10))
mb1 = CriticalValueSpec("mb1", alpha=0.05, replications=2000)

print("p      analytic   multiplier-bootstrap")
for copies in (1, 5, 20):
    # duplicate the same 10 columns over and over: informationally p stays 10
    x = np.tile(base, (1, copies))
    p = x.shape[1]
    boot = run_test(x, mb1, stream=SeededStream(3)).critical_value
    print(f"{p:<6d} {sn_one_step(0.05, p, n):8.4f}   {boot:8.4f}")

print(
    "\nthe analytic column keeps climbing with nominal p, the bootstrap"
    "\ncolumn is flat: duplicated columns cannot inflate its cutoff"
)

# the flip side: with independent columns the two cutoffs agree closely
indep = rng.normal(size=(n, 200))
boot = run_test(indep, mb1, stream=SeededStream(4)).critical_value
print(
    f"\nindependent p=200: analytic {sn_one_step(0.05, 200, n):.4f}"
    f" vs bootstrap {boot:.4f}"
)

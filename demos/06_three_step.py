"""Three-step testing: drop weakly informative inequalities via gradients.

In parametric problems the columns are g_j(xi_i, theta0) and we also know
the gradients of g_j in theta.  An inequality whose moment function is flat
in theta near theta0 cannot distinguish theta0 from nearby alternatives: its
mean is near zero either way, so it adds noise to the max statistic without
adding signal.  The three-step test drops such columns using a bootstrap
test on the studentized gradient averages, then proceeds like the two-step
test (with a slightly more generous quantile level to pay for the extra
selection).
"""

import numpy as np

from momentineq import (
    CriticalValueSpec,
    ParametricMomentData,
    ThreeStepConfig,
    run_test,
    three_step_test,
)

rng = np.random.default_rng(23)
n, p, r = 400, 12, 2

# columns 0..9: informative (steep gradients), means on the boundary
# columns 10..11: nearly flat in theta, but noisy enough to spike the max
g = rng.normal(size=(n, p))
g[:, 10:] += 0.12  # the would-be "violation" lives in the flat columns

v = rng.normal(size=(n, p, r))
v[:, :10, :] += 5.0    # strong gradients: keep
v[:, 10:, :] -= 5.0    # flat/wrong-signed gradients: drop

data = ParametricMomentData(g=g, v=v)
cfg = ThreeStepConfig(alpha=0.05, beta=0.001, scheme="MB", replications=2000, seed=9)

decision = three_step_test(data, cfg)
j_hat, j_prime, j_dprime = decision.sets
print(f"slack-screened set J      : {sorted(j_hat)}")
print(f"kept (statistic) set J'   : {sorted(j_prime)}")
print(f"generous (cutoff) set J'' : {sorted(j_dprime)}")

print(
    f"\nstatistic over J' = {decision.statistic:.4f}, "
    f"cutoff over J & J'' = {decision.critical_value:.4f}, "
    f"reject: {decision.reject}"
)

# the flat columns 11 and 12 carry the largest raw scores, so a plain
# two-step test on the same g matrix does reject
plain = run_test(
    g, CriticalValueSpec("mb2", alpha=0.05, beta=0.001, replications=2000, seed=9)
)
print(
    f"\nplain two-step on the same data: statistic {plain.statistic:.4f}"
    f" vs cutoff {plain.critical_value:.4f} -> reject: {plain.reject}"
    "\nthe gradient screen removes exactly that spurious rejection"
)

"""Testing many moment inequalities, with p possibly far larger than n.

The null hypothesis is that every column mean of an ``n x p`` data matrix is
nonpositive; the test statistic is the max studentized column mean.  The
package provides analytic (self-normalized) and bootstrap (multiplier and
empirical) critical values, their two-step selection and hybrid variants, a
three-step variant for parametric models with gradient information, a block
multiplier bootstrap for dependent rows, confidence regions by test
inversion, and a Monte Carlo harness reproducing the benchmark rejection
rates, all with seed-exact determinism.
"""

from .core import (
    CriticalValueSpec,
    MomentSummary,
    RegularityDiagnostics,
    TestDecision,
    as_sample_matrix,
    exceeds,
    regularity_diagnostics,
    studentized_scores,
    summarize,
    test_statistic,
)
from .errors import (
    DegenerateColumnError,
    GridPointError,
    InputError,
    UndefinedCriticalValueError,
)
from .gaussian import SeededStream, normal_cdf, normal_quantile, standard_normal_draws
from .sn import sn_one_step, sn_select
from .bootstrap import (
    BootstrapDraws,
    eb_draws,
    empirical_quantile,
    mb_draws,
    run_test,
)
from .threestep import (
    ParametricMomentData,
    ThreeStepConfig,
    three_step_test,
)
from .dependent import (
    BlockPlan,
    bmb_test,
    default_block_lengths,
    make_blocks,
)
from .inference import (
    ApproxSample,
    ConfidenceRegion,
    GridPoint,
    approximate_two_step_test,
    invert_region,
)
from .simulate import (
    DesignSpec,
    McConfig,
    McResult,
    PowerCurve,
    draw_sample,
    power_sweep,
    run_mc,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalValueSpec",
    "MomentSummary",
    "RegularityDiagnostics",
    "TestDecision",
    "as_sample_matrix",
    "exceeds",
    "regularity_diagnostics",
    "studentized_scores",
    "summarize",
    "test_statistic",
    "DegenerateColumnError",
    "GridPointError",
    "InputError",
    "UndefinedCriticalValueError",
    "SeededStream",
    "normal_cdf",
    "normal_quantile",
    "standard_normal_draws",
    "sn_one_step",
    "sn_select",
    "BootstrapDraws",
    "eb_draws",
    "empirical_quantile",
    "mb_draws",
    "run_test",
    "ParametricMomentData",
    "ThreeStepConfig",
    "three_step_test",
    "BlockPlan",
    "bmb_test",
    "default_block_lengths",
    "make_blocks",
    "ApproxSample",
    "ConfidenceRegion",
    "GridPoint",
    "approximate_two_step_test",
    "invert_region",
    "DesignSpec",
    "McConfig",
    "McResult",
    "PowerCurve",
    "draw_sample",
    "power_sweep",
    "run_mc",
]

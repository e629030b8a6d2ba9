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

# Each module's ``__all__`` is its public list; the package re-exports them
# in import order and lists no name of its own.
from .core import *
from .errors import *
from .gaussian import *
from .sn import *
from .bootstrap import *
from .threestep import *
from .dependent import *
from .inference import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *errors.__all__, *gaussian.__all__, *sn.__all__, *bootstrap.__all__,
    *threestep.__all__, *dependent.__all__, *inference.__all__, *simulate.__all__,
]

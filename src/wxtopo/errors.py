"""Exception types shared across the package."""


class WxTopoError(Exception):
    """Base class for all package-specific errors."""


class AllZeroField(WxTopoError):
    """Density field sums to zero and no normalization floor was given."""


class ConstantField(WxTopoError):
    """Min-max scaling is undefined because the field has zero range."""


class FormatError(WxTopoError):
    """Field file is unreadable or violates the DFLD1 format or its value invariants."""


class ExtentMismatch(WxTopoError):
    """Physical extents of two grids differ where they must agree."""


class GridMismatch(WxTopoError):
    """Fields that must share a grid do not."""


class BadWeights(WxTopoError):
    """Barycenter weights are negative or do not sum to one."""


class SizeLimit(WxTopoError):
    """Instance exceeds the size cap of an exact (test-oracle) method."""


class PopulationTooSmall(WxTopoError):
    """Fewer than two parents available for crossover."""


class SingularSystem(WxTopoError):
    """Sparse factorization or solve failed, or its backward error is unacceptable.

    ``cause`` names the check that failed: "factor" (the system has rigid
    modes, or the factorization or solve raised), "non_finite" (the solution
    holds NaN or inf) or "backward_error" (the refined solution fails the
    componentwise backward-error bound).
    """

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause

    def __reduce__(self):
        # the default rebuilds from ``args``, which lacks ``cause``; a pool
        # worker pickles the exceptions it sends back
        return type(self), (*self.args, self.cause), self.__dict__


class EmptySolidSet(WxTopoError):
    """No element passes the solid threshold."""


class DualBisectionFailed(WxTopoError):
    """No bracket for the dual multiplier of the update subproblem."""


class SolveFailed(WxTopoError):
    """PDE filter solve failed."""


class ExtinctPopulation(WxTopoError):
    """Every candidate in the population is infeasible."""


class ConfigError(WxTopoError):
    """Run configuration is malformed; message names the offending key."""


class MissingHistory(WxTopoError):
    """Run directory lacks the history file required for reporting."""

"""Exception hierarchy shared by all modules."""


class CloneOptError(Exception):
    """Base class for all library errors."""


class DimensionGuardError(CloneOptError):
    """A size past one of the fixed limits in cloneopt.tolerances (CLI
    exit 3)."""


class ChannelPropertyError(CloneOptError):
    """A channel fails a structural property (trace preservation, covariance,
    permutation invariance) beyond the stated tolerance."""

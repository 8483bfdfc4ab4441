"""Exception hierarchy shared by all modules, and check_limit, the one
place that raises DimensionGuardError."""


class CloneOptError(Exception):
    """Base class for all library errors."""


class DimensionGuardError(CloneOptError):
    """A size past one of the fixed limits in cloneopt.tolerances (CLI
    exit 3)."""


class ChannelPropertyError(CloneOptError):
    """A channel fails a structural property (trace preservation, covariance,
    permutation invariance) beyond the stated tolerance."""


def check_limit(what: str, size: int, limit: int) -> int:
    """Return size if size <= limit; otherwise refuse with a
    DimensionGuardError "<what> = <size> exceeds guard <limit>".  Every
    size refusal goes through here, before the work it bounds allocates
    anything; `what` names the size and, where it is a product, its
    factors."""
    if size > limit:
        raise DimensionGuardError(f"{what} = {size} exceeds guard {limit}")
    return size

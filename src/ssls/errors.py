"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class SslsError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatch(SslsError):
    pass


class NonBinaryTreatment(SslsError):
    pass


class EmptyGroup(SslsError):
    def __init__(self, group: int):
        self.group = group
        super().__init__(f"group {group} has no members")


class NonFinite(SslsError):
    """A non-finite covariate at (row, col), or outcome at row when col is None."""

    def __init__(self, row: int, col: int | None = None):
        self.row = row
        self.col = col
        super().__init__(f"non-finite outcome at row {row}" if col is None else
                         f"non-finite covariate at row {row}, column {col}")


class PropensityOutOfRange(SslsError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"known propensity outside (0, 1) at row {row}")


class TooFewSamples(SslsError):
    pass


class SingularDesign(SslsError):
    pass


class OneArmOnly(SslsError):
    """A fold or group contains only treated or only control units."""

    def __init__(self, where: int | str):
        self.where = where
        super().__init__(f"only one treatment arm present in {where}")


class SingularGram(SslsError):
    pass


class NotSPD(SslsError):
    pass


class DegenerateGroup(SslsError):
    def __init__(self, group: int, denominator: float):
        self.group = group
        self.denominator = denominator
        super().__init__(
            f"group {group} has numerically zero treatment variation "
            f"(denominator {denominator:.3e})"
        )


class ClusteringDegenerate(SslsError):
    pass


class GroupTooSmall(SslsError):
    def __init__(self, group: int, size: int, minimum: int):
        self.group = group
        self.size = size
        self.minimum = minimum
        super().__init__(f"group {group} has {size} members, below minimum {minimum}")


class ZeroVarianceContrast(SslsError):
    pass


class DomainError(SslsError, ValueError):
    pass


class EmptyArm(SslsError):
    def __init__(self, arm: int):
        self.arm = arm
        super().__init__(f"no observations with treatment arm {arm}")


class NonConvergenceWarning(UserWarning):
    """Iterative fit stopped at max_iter without meeting tolerance."""

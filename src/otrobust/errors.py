"""Exception hierarchy shared by all solver and data modules."""


class OtError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(OtError):
    pass


class NegativeMass(OtError):
    pass


class MassNotNormalized(OtError):
    pass


class DimensionMismatch(OtError):
    pass


class LengthMismatch(OtError):
    pass


class NormalizationViolated(OtError):
    pass


class SolverStall(OtError):
    """An exact solver hit its iteration cap without a certified optimum."""


class InstanceTooLarge(OtError):
    pass


class DomainError(OtError):
    pass


class TooFewPoints(OtError):
    pass


class NonUniformInput(OtError):
    pass

"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every domain error raised by this package."""


class DegreeZero(ToolkitError):
    """Root finding requested on a constant polynomial."""


class NonConvergence(ToolkitError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class ResonanceDetected(ToolkitError):
    """1 - lambda^m vanished for some order m <= n."""

    def __init__(self, order, multiplier):
        super().__init__(
            f"resonance: |1 - lambda^{order}| < 1e-12 for lambda={multiplier!r}"
        )
        self.order = order
        self.multiplier = multiplier


class CoefficientOverflow(ToolkitError):
    """A generated chain coefficient exceeded the double-precision range."""

    def __init__(self, order):
        super().__init__(
            f"coefficient magnitude exceeds float range at order {order}; "
            "lower n, or read the chain exactly with bell_sequence_exact; "
            "hermite zeros solves such chains")
        self.order = order


class DomainError(ToolkitError):
    """Argument outside the mathematical domain of the operation."""


class DegenerateDirection(ToolkitError):
    """Projection axis with y = z = 0; the 3-D decomposition is undefined."""


class OrbitEscape(ToolkitError):
    """A simulated orbit left the guard region |x| <= 1e6."""

    def __init__(self, step, value):
        super().__init__(f"orbit escaped at step {step} (|x|={abs(value):.3e})")
        self.step = step
        self.value = value


class TrajectoryEscape(ToolkitError):
    """An Euler trajectory left the guard region."""

    def __init__(self, step):
        super().__init__(f"trajectory escaped at step {step}")
        self.step = step


class EmptySample(ToolkitError):
    """A statistic was requested on an empty sample."""


class SingularTau(ToolkitError):
    """I + tau*J is numerically singular: tau hit a critical frequency."""

    def __init__(self, tau, eigenvalue):
        super().__init__(
            f"tau={tau!r} is singular (eigenvalue {eigenvalue!r}, tau = -1/lambda)"
        )
        self.tau = tau
        self.eigenvalue = eigenvalue

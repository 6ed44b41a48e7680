"""Exception types shared across the package."""


class WkbohmError(Exception):
    """Base class for all package errors."""


class ConfigError(WkbohmError):
    """Invalid, incomplete, or unknown run configuration."""


class NonFiniteFieldError(WkbohmError):
    """A grid field contains NaN or infinity.

    Carries the index of the first offending node so diagnostics can
    point at the grid location rather than just the array.
    """

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class NumericalAbort(WkbohmError):
    """A propagation was stopped before reaching its requested end time.

    Optional fields locate the abort: the hierarchy order and grid node
    that failed (for an ensemble, the member that left), the node's x,
    the time t, and the value that crossed the limit. Each is None when
    the guard does not know it.
    """

    def __init__(
        self,
        message: str,
        *,
        order: int | None = None,
        node: int | None = None,
        x: float | None = None,
        t: float | None = None,
        value: float | None = None,
        limit: float | None = None,
    ):
        super().__init__(message)
        self.order = order
        self.node = node
        self.x = x
        self.t = t
        self.value = value
        self.limit = limit


class CflViolation(NumericalAbort):
    """Requested time step exceeds the advective stability bound."""


class CausticDetected(NumericalAbort):
    """A field gradient blew past the blow-up threshold (focal singularity)."""


class EdgeContamination(NumericalAbort):
    """Wavefunction amplitude at the grid edge is no longer negligible."""

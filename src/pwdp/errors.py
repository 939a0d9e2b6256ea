"""Exception types shared across the package."""


class PwdpError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(PwdpError):
    """Malformed instance file. Carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class GraphError(PwdpError):
    """Invalid graph construction (self-loop, bad id, duplicate edge, ...)."""


class DecompositionError(PwdpError):
    """Invalid path decomposition.

    kind is one of 'uncovered-edge', 'non-contiguous-vertex', 'missing-vertex',
    'bad-structure'.
    """

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


class ParameterError(PwdpError, ValueError):
    """Problem parameters missing, out of range, or not valid for the
    instance they come with."""


class SizeLimitError(PwdpError):
    """Instance too large for an exhaustive routine."""


class CapacityError(PwdpError):
    """State space exceeds the configured per-node slot limit."""


class PluginInconsistencyError(PwdpError):
    """A plugin disagrees with itself or with its run: the enumeration
    repeats a state, an expansion lands outside the legal set, a replay
    no longer reaches a state from its origin or reaches the winning
    state at a value other than the run's, the certificate it builds
    fails its own check or scores other than the run's objective; or
    it ranks values by a direction other than 'min' or 'max'."""


class ReconstructionUnavailableError(PwdpError):
    """Solution reconstruction requested but origins were not retained."""


class NotApplicableError(PwdpError):
    """Operation preconditions not met (e.g. pruning on a non-grid order)."""

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
    """A plugin's states disagree with its state space: the enumeration
    repeats a state, or an expansion lands outside the legal set, or a
    replayed expansion differs from the one the run made; or the plugin
    ranks values by a direction other than 'min' or 'max'."""


class ReconstructionUnavailableError(PwdpError):
    """Solution reconstruction requested but origins were not retained."""


class NotApplicableError(PwdpError):
    """Operation preconditions not met (e.g. pruning on a non-grid order)."""

"""Exception hierarchy shared by every module in the package.

All failures raised on purpose derive from :class:`SimulationError`, so
callers (including the CLI) can catch one type and report cleanly.
"""


class SimulationError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(SimulationError):
    """Operand shapes are incompatible, or a result would exceed a size cap."""


class ContractError(SimulationError):
    """An argument violates a documented precondition."""


class CatalogError(SimulationError):
    """A gate name is not in the catalog."""


class ResourceError(SimulationError):
    """A request exceeds a configured resource guard (qubit-count caps)."""


class ParseError(SimulationError):
    """Circuit text is malformed.  Always identifies the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

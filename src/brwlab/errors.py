"""Shared exception types with CLI exit-code semantics."""


class InfeasibleError(ValueError):
    """A requested configuration violates a domain precondition (exit code 3)."""


class NumericError(RuntimeError):
    """An internal numeric procedure failed to converge or overflowed (exit code 4)."""


class PopulationCapError(RuntimeError):
    """A population exceeded the cap of the per-site reference step `step_exact`."""

"""Exception types shared across the package.

The command-line layer maps these onto process exit codes, so library code
should raise the most specific type that applies.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or inconsistent input (files, shapes, parameter values)."""


class InfeasibleError(RuntimeError):
    """A structurally impossible request (disconnected seeds, uncoverable
    skill, requested size exceeding the largest component, ...)."""


class ConvergenceError(RuntimeError):
    """A solver exhausted its budget or its answer failed a residual check.

    Carries the last iterate (or None) so callers can inspect how close the run got.
    """

    def __init__(self, message: str, profiles, residual: float, iterations: int):
        super().__init__(message)
        self.profiles = profiles
        self.residual = residual
        self.iterations = iterations

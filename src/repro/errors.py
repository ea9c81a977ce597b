"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single exception type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The LOCAL simulator was driven into an invalid state."""


class RoundLimitExceeded(SimulationError):
    """An algorithm failed to halt within the configured round budget."""

    def __init__(self, limit: int, still_running: int):
        super().__init__(
            f"algorithm did not halt within {limit} rounds "
            f"({still_running} nodes still running)"
        )
        self.limit = limit
        self.still_running = still_running


class ColoringError(ReproError):
    """A produced coloring violates properness or a palette constraint."""


class InvalidParameterError(ReproError):
    """An algorithm was invoked with parameters outside its contract."""


class CliqueCoverError(ReproError):
    """A clique cover is inconsistent with the graph it annotates."""


class CheckError(ReproError):
    """The static-analysis pass could not run (unscannable tree, syntax
    error in a scanned file, missing/corrupt schema baseline). Distinct
    from a rule *firing* — findings are data, this is a failure."""


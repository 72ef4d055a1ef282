"""Exception hierarchy for the ``repro`` library.

Every exception raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A model, protocol, or experiment was configured with invalid parameters.

    Examples include a disruption budget ``t >= F``, a frequency index outside
    the band, or a non-power-of-two participant bound where one is required.
    """


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state.

    This indicates a bug in a protocol or adversary implementation (for
    example, a protocol returning an action for a node that is not active),
    not a misuse of the public API.
    """


class ProtocolViolationError(ReproError):
    """A protocol produced output that violates the problem specification.

    Raised by the strict mode of :class:`repro.engine.checker.PropertyChecker`
    when a trace breaks validity, synch-commit, correctness, or agreement.
    """


class ExperimentError(ReproError):
    """An experiment, campaign, search or store request was invalid."""

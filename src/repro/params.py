"""Model parameters shared by protocols, adversaries, and experiments.

The paper's model is parameterized by three quantities:

* ``F`` — the number of disjoint narrowband frequencies;
* ``t`` — the maximum number of frequencies the adversary may disrupt per
  round, with ``t < F``;
* ``N`` — an upper bound (possibly very loose) on the number of participating
  devices, with ``N ≥ F``.

:class:`ModelParameters` bundles and validates them and provides the derived
quantities that appear throughout the protocols and bounds (``F' = min(F, 2t)``,
``lg N``, ...).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.radio.frequencies import FrequencyBand


@dataclass(frozen=True)
class ModelParameters:
    """The ``(F, t, N)`` triple of the disrupted radio network model.

    Attributes
    ----------
    frequencies:
        Number of frequencies ``F`` (at least 1).
    disruption_budget:
        Adversary budget ``t`` with ``0 ≤ t < F``.
    participant_bound:
        Upper bound ``N`` on the number of participants, ``N ≥ 2``.
    """

    frequencies: int
    disruption_budget: int
    participant_bound: int

    def __post_init__(self) -> None:
        if self.frequencies < 1:
            raise ConfigurationError(f"F must be at least 1, got {self.frequencies}")
        if not 0 <= self.disruption_budget < self.frequencies:
            raise ConfigurationError(
                f"t must satisfy 0 <= t < F, got t={self.disruption_budget}, F={self.frequencies}"
            )
        if self.participant_bound < 2:
            raise ConfigurationError(
                f"N must be at least 2, got {self.participant_bound}"
            )

    @functools.cached_property
    def band(self) -> FrequencyBand:
        """The frequency band ``[1 .. F]``.

        Cached: protocols and adversaries consult the band every round, so
        handing out one stable instance (instead of building a fresh
        ``FrequencyBand`` per access) keeps band-derived caches effective on
        the simulation hot path.
        """
        return FrequencyBand(self.frequencies)

    @property
    def effective_frequencies(self) -> int:
        """The paper's ``F' = min(F, 2t)``, floored at 1 so ``t = 0`` still works.

        Both protocols restrict themselves to the first ``F'`` frequencies:
        using more than ``2t`` channels does not help, because the adversary
        can never disrupt more than half of ``2t`` channels.
        """
        return max(1, min(self.frequencies, 2 * self.disruption_budget))

    @functools.cached_property
    def log_participants(self) -> int:
        """``⌈lg N⌉`` — the number of epochs used by the protocols."""
        return max(1, math.ceil(math.log2(self.participant_bound)))

    @functools.cached_property
    def log_frequencies(self) -> int:
        """``⌈lg F⌉`` — the number of Good Samaritan super-epochs."""
        return max(1, math.ceil(math.log2(self.frequencies)))

    def with_budget(self, disruption_budget: int) -> "ModelParameters":
        """A copy of these parameters with a different disruption budget."""
        return ModelParameters(self.frequencies, disruption_budget, self.participant_bound)

    def describe(self) -> str:
        """Short label used in experiment tables."""
        return f"F={self.frequencies}, t={self.disruption_budget}, N={self.participant_bound}"

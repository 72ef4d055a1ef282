"""Configuration of the Trapdoor Protocol (§6).

The paper specifies the protocol up to constant factors ("Θ(·) rounds per
epoch").  :class:`TrapdoorConfig` makes those constants explicit so that
experiments can trade running time against error probability, and so the
ablation benchmarks can switch individual design choices off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters


@dataclass(frozen=True)
class TrapdoorConfig:
    """Tunable constants of the Trapdoor Protocol.

    Attributes
    ----------
    epoch_constant:
        The constant in the regular epoch length
        ``⌈epoch_constant · F′/(F′−t) · lg N⌉`` (Figure 1).
    final_epoch_constant:
        The constant in the final epoch length
        ``⌈final_epoch_constant · F′²/(F′−t) · lg N⌉``.
    leader_broadcast_probability:
        Probability with which an elected leader broadcasts its numbering
        message each round (the paper uses 1/2).
    use_effective_band:
        If True (paper behaviour), contenders restrict themselves to the first
        ``F′ = min(F, 2t)`` frequencies; if False they use the whole band —
        the ``ablation_fprime`` benchmark flips this switch.
    use_extended_final_epoch:
        If True (paper behaviour), the last epoch is lengthened to
        ``Θ(F′²/(F′−t) · lg N)``; if False every epoch has the regular length —
        the ``ablation_final_epoch`` benchmark flips this switch.
    """

    epoch_constant: float = 2.0
    final_epoch_constant: float = 2.0
    leader_broadcast_probability: float = 0.5
    use_effective_band: bool = True
    use_extended_final_epoch: bool = True

    def __post_init__(self) -> None:
        if self.epoch_constant <= 0:
            raise ConfigurationError(f"epoch_constant must be positive, got {self.epoch_constant}")
        if self.final_epoch_constant <= 0:
            raise ConfigurationError(
                f"final_epoch_constant must be positive, got {self.final_epoch_constant}"
            )
        if not 0.0 < self.leader_broadcast_probability <= 1.0:
            raise ConfigurationError(
                "leader_broadcast_probability must be in (0, 1], got "
                f"{self.leader_broadcast_probability}"
            )

    def effective_frequencies(self, params: ModelParameters) -> int:
        """The number of frequencies contenders use: ``F′`` or ``F`` (ablation)."""
        if self.use_effective_band:
            return params.effective_frequencies
        return params.frequencies

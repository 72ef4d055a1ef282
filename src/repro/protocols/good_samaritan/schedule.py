"""The Good Samaritan super-epoch / epoch structure (Figure 2 of the paper).

Each node proceeds through ``lg F`` *super-epochs*.  Super-epoch ``k``
consists of ``lg N + 2`` epochs, each of ``s(k) = Θ(2^k · log³ N)`` rounds.
In epoch ``e ≤ lg N`` the broadcast probability is ``2^e / 2N``; the final two
epochs (the *critical* epoch ``lg N + 1`` and the *report* epoch ``lg N + 2``)
use probability 1/2 and may designate rounds as *special*.  A node exiting the
last super-epoch unsynchronized falls back to a modified Trapdoor protocol
whose epochs are at least four times longer than the longest optimistic epoch.

:class:`GoodSamaritanSchedule` materializes this structure for concrete
parameters; the ``fig2`` benchmark renders it as the paper's Figure 2, and the
protocol queries it every round through :meth:`position_of_round`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.good_samaritan.config import GoodSamaritanConfig


@dataclass(frozen=True)
class SchedulePosition:
    """Where one local round falls inside the optimistic portion.

    Attributes
    ----------
    super_epoch:
        1-based super-epoch index ``k`` (``1 .. lg F``).
    epoch:
        1-based epoch index within the super-epoch (``1 .. lg N + 2``).
    round_in_epoch:
        1-based round index within the epoch.
    """

    super_epoch: int
    epoch: int
    round_in_epoch: int


@dataclass(frozen=True)
class FallbackPosition:
    """Where one local round falls inside the fallback (modified Trapdoor) portion.

    Attributes
    ----------
    epoch:
        1-based fallback epoch index (``1 .. lg N``); rounds beyond the last
        fallback epoch report the last epoch.
    round_in_epoch:
        1-based round index within the fallback epoch.
    completed:
        True if the node has finished every fallback epoch (and may become
        leader).
    """

    epoch: int
    round_in_epoch: int
    completed: bool


class GoodSamaritanSchedule:
    """The concrete Good Samaritan round structure for given parameters.

    Parameters
    ----------
    params:
        Model parameters ``(F, t, N)``.
    config:
        Protocol constants.
    """

    def __init__(self, params: ModelParameters, config: GoodSamaritanConfig | None = None) -> None:
        self._params = params
        self._config = config or GoodSamaritanConfig()
        self._config.validate_against(params)
        self._log_n = params.log_participants
        self._log_f = params.log_frequencies
        self._epochs_per_super = self._log_n + 2
        self._epoch_lengths = tuple(
            self._epoch_length(k) for k in range(1, self._log_f + 1)
        )
        self._super_epoch_lengths = tuple(
            length * self._epochs_per_super for length in self._epoch_lengths
        )
        self._optimistic_total = sum(self._super_epoch_lengths)
        self._fallback_epoch_length = max(
            1, math.ceil(self._config.fallback_multiplier * self._epoch_lengths[-1])
        )
        self._fallback_total = self._fallback_epoch_length * self._log_n
        # The protocol reads these every round: build them once.
        self._prefix_widths = tuple(
            min(2**k, params.frequencies) for k in range(1, self._log_f + 1)
        )
        self._broadcast_probabilities = tuple(
            min(0.5, (2.0**e) / (2.0 * params.participant_bound))
            for e in range(1, self._log_n + 1)
        )

    def _epoch_length(self, super_epoch: int) -> int:
        log_n = self._log_n
        return max(
            1, math.ceil(self._config.epoch_constant * (2**super_epoch) * log_n**3)
        )

    # -- structure ----------------------------------------------------------

    @property
    def params(self) -> ModelParameters:
        """The model parameters the schedule was built for."""
        return self._params

    @property
    def config(self) -> GoodSamaritanConfig:
        """The constants the schedule was built with."""
        return self._config

    @property
    def super_epoch_count(self) -> int:
        """``lg F`` — the number of super-epochs."""
        return self._log_f

    @property
    def epochs_per_super_epoch(self) -> int:
        """``lg N + 2`` — epochs per super-epoch."""
        return self._epochs_per_super

    @property
    def critical_epoch(self) -> int:
        """The index of the critical epoch (``lg N + 1``)."""
        return self._log_n + 1

    @property
    def report_epoch(self) -> int:
        """The index of the report epoch (``lg N + 2``)."""
        return self._log_n + 2

    @property
    def optimistic_rounds(self) -> int:
        """Total rounds of the optimistic portion (all super-epochs)."""
        return self._optimistic_total

    @property
    def fallback_epoch_length(self) -> int:
        """Length of one fallback (modified Trapdoor) epoch."""
        return self._fallback_epoch_length

    @property
    def fallback_rounds(self) -> int:
        """Total rounds of the fallback portion before a survivor becomes leader."""
        return self._fallback_total

    @property
    def total_rounds(self) -> int:
        """Optimistic plus fallback rounds (the worst-case trajectory)."""
        return self._optimistic_total + self._fallback_total

    def epoch_length(self, super_epoch: int) -> int:
        """``s(k)`` — the epoch length of super-epoch ``k``."""
        if not 1 <= super_epoch <= self._log_f:
            raise ConfigurationError(
                f"super-epoch must be in [1..{self._log_f}], got {super_epoch}"
            )
        return self._epoch_lengths[super_epoch - 1]

    def prefix_width(self, super_epoch: int) -> int:
        """The width of the low-frequency prefix ``[1 .. 2^k]`` used in super-epoch ``k``."""
        if not 1 <= super_epoch <= self._log_f:
            raise ConfigurationError(
                f"super-epoch must be in [1..{self._log_f}], got {super_epoch}"
            )
        return self._prefix_widths[super_epoch - 1]

    def broadcast_probability(self, epoch: int) -> float:
        """Broadcast probability of epoch ``e`` (``2^e / 2N`` capped at 1/2)."""
        if epoch < 1:
            raise ConfigurationError(f"epoch must be >= 1, got {epoch}")
        if epoch > self._log_n:
            return 0.5
        return self._broadcast_probabilities[epoch - 1]

    def success_threshold(self, super_epoch: int) -> int:
        """Successful rounds a contender needs in its critical epoch of super-epoch ``k``.

        The paper's rule is ``s(k) / 2^{k+6}``; the divisor ``2^6`` is the
        configurable ``success_divisor``.
        """
        length = self.epoch_length(super_epoch)
        threshold = length / ((2**super_epoch) * self._config.success_divisor)
        return max(1, math.ceil(threshold))

    def expected_adaptive_super_epoch(self, actual_disruption: int) -> int:
        """The super-epoch ``lg(2t')`` by which good executions should finish."""
        if actual_disruption < 0:
            raise ConfigurationError(
                f"actual disruption must be non-negative, got {actual_disruption}"
            )
        target = max(2, 2 * actual_disruption)
        return min(self._log_f, max(1, math.ceil(math.log2(target))))

    def adaptive_round_bound(self, actual_disruption: int) -> int:
        """Rounds to the end of super-epoch ``lg(2t')`` — the Theorem 18 good-case bound."""
        last = self.expected_adaptive_super_epoch(actual_disruption)
        return sum(self._super_epoch_lengths[:last])

    # -- per-round queries ----------------------------------------------------

    def position_of_round(self, local_round: int) -> SchedulePosition | None:
        """The optimistic-portion position of a local round, or ``None`` if in fallback."""
        if local_round < 1:
            raise ConfigurationError(f"local round must be >= 1, got {local_round}")
        remaining = local_round
        for k, super_length in enumerate(self._super_epoch_lengths, start=1):
            if remaining <= super_length:
                epoch_length = self._epoch_lengths[k - 1]
                epoch = (remaining - 1) // epoch_length + 1
                round_in_epoch = (remaining - 1) % epoch_length + 1
                return SchedulePosition(super_epoch=k, epoch=epoch, round_in_epoch=round_in_epoch)
            remaining -= super_length
        return None

    def fallback_position_of_round(self, local_round: int) -> FallbackPosition | None:
        """The fallback-portion position of a local round, or ``None`` if still optimistic."""
        if local_round <= self._optimistic_total:
            return None
        offset = local_round - self._optimistic_total
        epoch = (offset - 1) // self._fallback_epoch_length + 1
        round_in_epoch = (offset - 1) % self._fallback_epoch_length + 1
        if epoch > self._log_n:
            return FallbackPosition(epoch=self._log_n, round_in_epoch=round_in_epoch, completed=True)
        return FallbackPosition(epoch=epoch, round_in_epoch=round_in_epoch, completed=False)

    def in_fallback(self, local_round: int) -> bool:
        """True once a node has exhausted the optimistic portion."""
        return local_round > self._optimistic_total

    def fallback_broadcast_probability(self, epoch: int) -> float:
        """Broadcast probability of fallback epoch ``e`` (same ladder as Trapdoor)."""
        return self.broadcast_probability(min(epoch, self._log_n))

    # -- Figure 2 ---------------------------------------------------------------

    def special_frequency_distribution(self, super_epoch: int) -> dict[int, float]:
        """The per-frequency selection probability in special rounds of super-epoch ``k``.

        This is the closed form printed in Figure 2:
        ``P[f] = (2^{⌊lg(F/f)⌋+1} − 1) / (2 F lg F) + 1/2^{k+1}`` restricted to the
        prefix for the ``1/2^{k+1}`` term — we compute it from the generative
        process (choose ``d`` uniform in ``[1 .. lg F]``, then ``f`` uniform in
        ``[1 .. 2^d]``) mixed 50/50 with the prefix-uniform non-special choice,
        which is the distribution the protocol actually samples from in the
        last two epochs.
        """
        frequencies = self._params.frequencies
        log_f = self._log_f
        prefix = self.prefix_width(super_epoch)
        distribution = {f: 0.0 for f in range(1, frequencies + 1)}
        # Non-special half: uniform over the prefix [1 .. 2^k].
        for f in range(1, prefix + 1):
            distribution[f] += 0.5 / prefix
        # Special half: d uniform in [1 .. lg F], then f uniform in [1 .. 2^d].
        for width in self._prefix_widths:
            for f in range(1, width + 1):
                distribution[f] += 0.5 / (log_f * width)
        return distribution

    def describe_rows(self) -> list[dict[str, object]]:
        """Rows for the Figure 2 table: one row per super-epoch."""
        rows = []
        for k in range(1, self._log_f + 1):
            rows.append(
                {
                    "super_epoch": k,
                    "epochs": self._epochs_per_super,
                    "epoch_length": self.epoch_length(k),
                    "prefix_width": self.prefix_width(k),
                    "critical_epoch": self.critical_epoch,
                    "success_threshold": self.success_threshold(k),
                    "super_epoch_rounds": self._super_epoch_lengths[k - 1],
                }
            )
        return rows

    def theoretical_adaptive_bound(self, actual_disruption: int) -> float:
        """``t' · log³N`` — the Theorem 18 good-execution bound without its constant."""
        return max(1, actual_disruption) * float(self._log_n**3)

    def theoretical_worst_case_bound(self) -> float:
        """``F · log³N`` — the Theorem 18 all-executions bound without its constant."""
        return self._params.frequencies * float(self._log_n**3)

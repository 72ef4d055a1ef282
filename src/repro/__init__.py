"""repro — a from-scratch reproduction of *The Wireless Synchronization Problem*.

Dolev, Gilbert, Guerraoui, Kuhn, Newport (PODC 2009) study how devices that
wake up at different times on a jammed, multi-frequency radio band can agree
on a global round numbering.  This package implements the paper's model, its
two protocols (Trapdoor and Good Samaritan), the baselines they are measured
against, the analytical machinery of the lower bounds, and resumable
campaigns and adversary searches over a persistent result store; the
benchmarks regenerate every figure and theorem-shaped result.

Quick start::

    from repro import (
        ModelParameters, SimulationConfig, simulate,
        TrapdoorProtocol, StaggeredActivation, RandomJammer,
    )

    params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
    config = SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=10, spacing=3),
        adversary=RandomJammer(),
    )
    result = simulate(config)
    print(result.summary())
"""

from repro.adversary import (
    ActivationSchedule,
    BurstyJammer,
    CyclicObliviousSchedule,
    ExplicitActivation,
    FixedBandJammer,
    InterferenceAdversary,
    LowBandJammer,
    NoInterference,
    ObliviousSchedule,
    PolicyJammer,
    RandomActivation,
    RandomJammer,
    ReactiveJammer,
    SimultaneousActivation,
    StaggeredActivation,
    SweepJammer,
    TrickleActivation,
    TwoNodeProductJammer,
)
from repro.analysis import (
    good_samaritan_adaptive_bound,
    good_samaritan_worst_case_bound,
    theorem1_lower_bound,
    theorem4_lower_bound,
    theorem5_lower_bound,
    trapdoor_upper_bound,
)
from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    StoredSummary,
)
from repro.engine import (
    PropertyChecker,
    SimulationConfig,
    SimulationResult,
    Simulator,
    StreamingPropertyChecker,
    TraceLevel,
    TrialSummary,
    run_trials,
    simulate,
)
from repro.exceptions import (
    ConfigurationError,
    ExperimentError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
)
from repro.params import ModelParameters
from repro.search import (
    SearchObjective,
    SearchSpec,
    StrategySearch,
    StrategySpace,
)
from repro.protocols import (
    DecayWakeupProtocol,
    FaultTolerantTrapdoorProtocol,
    GoodSamaritanConfig,
    GoodSamaritanProtocol,
    GoodSamaritanSchedule,
    RoundRobinSweepProtocol,
    SingleChannelAlohaProtocol,
    SynchronizationProtocol,
    Timestamp,
    TrapdoorConfig,
    TrapdoorProtocol,
    TrapdoorSchedule,
    UniformWakeupProtocol,
)
from repro.radio import FrequencyBand, SingleHopRadioNetwork

__version__ = "1.0.0"

__all__ = [
    "ActivationSchedule",
    "BurstyJammer",
    "CyclicObliviousSchedule",
    "ExplicitActivation",
    "FixedBandJammer",
    "InterferenceAdversary",
    "LowBandJammer",
    "NoInterference",
    "ObliviousSchedule",
    "PolicyJammer",
    "RandomActivation",
    "RandomJammer",
    "ReactiveJammer",
    "SimultaneousActivation",
    "StaggeredActivation",
    "SweepJammer",
    "TrickleActivation",
    "TwoNodeProductJammer",
    "good_samaritan_adaptive_bound",
    "good_samaritan_worst_case_bound",
    "theorem1_lower_bound",
    "theorem4_lower_bound",
    "theorem5_lower_bound",
    "trapdoor_upper_bound",
    "CampaignRunner",
    "CampaignSpec",
    "ResultStore",
    "StoredSummary",
    "PropertyChecker",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "StreamingPropertyChecker",
    "TraceLevel",
    "TrialSummary",
    "run_trials",
    "simulate",
    "ConfigurationError",
    "ExperimentError",
    "ProtocolViolationError",
    "ReproError",
    "SimulationError",
    "ModelParameters",
    "SearchObjective",
    "SearchSpec",
    "StrategySearch",
    "StrategySpace",
    "DecayWakeupProtocol",
    "FaultTolerantTrapdoorProtocol",
    "GoodSamaritanConfig",
    "GoodSamaritanProtocol",
    "GoodSamaritanSchedule",
    "RoundRobinSweepProtocol",
    "SingleChannelAlohaProtocol",
    "SynchronizationProtocol",
    "Timestamp",
    "TrapdoorConfig",
    "TrapdoorProtocol",
    "TrapdoorSchedule",
    "UniformWakeupProtocol",
    "FrequencyBand",
    "SingleHopRadioNetwork",
    "__version__",
]

"""The experiment registry: every paper artefact and the bench that regenerates it.

The registry is the machine-readable version of DESIGN.md §5.  Each entry maps
a paper artefact (figure, theorem, or design-choice ablation) to the benchmark
module that reproduces it and to the library modules doing the work.  The
``examples/quickstart.py`` script prints it, and the tests assert that every
registered benchmark module actually exists.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment.

    Attributes
    ----------
    identifier:
        Short id used in tables and file names (``fig1``, ``thm10``, ...).
    paper_artefact:
        The figure/theorem/section of the paper being reproduced.
    claim:
        What the paper asserts, in one sentence.
    benchmark_module:
        The file under ``benchmarks/`` that regenerates the artefact.
    modules:
        The library modules implementing the pieces.
    """

    identifier: str
    paper_artefact: str
    claim: str
    benchmark_module: str
    modules: tuple[str, ...]


EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        identifier="fig1",
        paper_artefact="Figure 1",
        claim="Trapdoor epoch lengths and contender broadcast probabilities",
        benchmark_module="benchmarks/test_fig1_trapdoor_schedule.py",
        modules=("repro.protocols.trapdoor.epochs",),
    ),
    ExperimentSpec(
        identifier="fig2",
        paper_artefact="Figure 2",
        claim="Good Samaritan super-epoch structure, probabilities, and frequency distributions",
        benchmark_module="benchmarks/test_fig2_gs_schedule.py",
        modules=("repro.protocols.good_samaritan.schedule",),
    ),
    ExperimentSpec(
        identifier="thm1",
        paper_artefact="Theorem 1",
        claim="Regular protocols need Ω(log²N/((F−t)·loglogN)) rounds",
        benchmark_module="benchmarks/test_thm1_lower_bound.py",
        modules=(
            "repro.analysis.bounds",
            "repro.analysis.balls_in_bins",
            "repro.analysis.good_probability",
        ),
    ),
    ExperimentSpec(
        identifier="thm4",
        paper_artefact="Theorem 4",
        claim="Any protocol needs Ω(F·t/(F−t)·log(1/ε)) rounds (two-node game)",
        benchmark_module="benchmarks/test_thm4_two_node.py",
        modules=("repro.analysis.two_node_game", "repro.adversary.jammers"),
    ),
    ExperimentSpec(
        identifier="thm10",
        paper_artefact="Theorem 10",
        claim="Trapdoor synchronizes in O(F/(F−t)·log²N + F·t/(F−t)·logN) rounds",
        benchmark_module="benchmarks/test_thm10_trapdoor_scaling.py",
        modules=("repro.protocols.trapdoor", "repro.analysis.fitting"),
    ),
    ExperimentSpec(
        identifier="thm18",
        paper_artefact="Theorem 18",
        claim="Good Samaritan finishes in O(t'·log³N) in good executions, O(F·log³N) always",
        benchmark_module="benchmarks/test_thm18_gs_adaptive.py",
        modules=("repro.protocols.good_samaritan", "repro.analysis.fitting"),
    ),
    ExperimentSpec(
        identifier="gs_vs_trapdoor",
        paper_artefact="Section 7 (motivation)",
        claim="The adaptive protocol beats the worst-case protocol when t' ≪ t",
        benchmark_module="benchmarks/test_gs_vs_trapdoor.py",
        modules=("repro.protocols.trapdoor", "repro.protocols.good_samaritan"),
    ),
    ExperimentSpec(
        identifier="baselines",
        paper_artefact="Section 4 (related work)",
        claim="Naive wake-up style strategies lose liveness or agreement under disruption",
        benchmark_module="benchmarks/test_baseline_comparison.py",
        modules=("repro.protocols.baselines",),
    ),
    ExperimentSpec(
        identifier="agreement",
        paper_artefact="Theorems 10 and 15",
        claim="At most one leader is elected and all outputs agree, w.h.p.",
        benchmark_module="benchmarks/test_agreement_properties.py",
        modules=("repro.engine.checker",),
    ),
    ExperimentSpec(
        identifier="fault_tolerance",
        paper_artefact="Section 8 (fault tolerance)",
        claim="Restart-on-silence plus delayed commitment tolerates leader crashes",
        benchmark_module="benchmarks/test_fault_tolerance.py",
        modules=("repro.protocols.fault_tolerant", "repro.faults"),
    ),
    ExperimentSpec(
        identifier="ablation_fprime",
        paper_artefact="Section 6 design choice",
        claim="Restricting contention to F' = min(F, 2t) channels beats using all F",
        benchmark_module="benchmarks/test_ablation_fprime.py",
        modules=("repro.protocols.trapdoor.config",),
    ),
    ExperimentSpec(
        identifier="ablation_final_epoch",
        paper_artefact="Section 6 design choice",
        claim="The extended final epoch is what keeps the leader unique",
        benchmark_module="benchmarks/test_ablation_final_epoch.py",
        modules=("repro.protocols.trapdoor.config",),
    ),
    ExperimentSpec(
        identifier="searched_adversary",
        paper_artefact="Worst-case adversary quantifier (Theorems 1, 10, 18)",
        claim="Machine-searched disruption strategies are at least as strong as every hand-written jammer",
        benchmark_module="benchmarks/test_searched_adversary.py",
        modules=("repro.search.space", "repro.search.optimizers", "repro.search.runner"),
    ),
)


def experiment_ids() -> tuple[str, ...]:
    """All registered experiment identifiers, in registry order."""
    return tuple(spec.identifier for spec in EXPERIMENTS)


def get_experiment(identifier: str) -> ExperimentSpec:
    """Look up one experiment by id (raises ``KeyError`` if unknown)."""
    for spec in EXPERIMENTS:
        if spec.identifier == identifier:
            return spec
    raise KeyError(f"unknown experiment {identifier!r}; known: {', '.join(experiment_ids())}")

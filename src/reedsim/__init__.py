"""Noncoherent paired-energy over-the-air aggregation.

Simulator, exact moment laws and a federated-averaging harness for signed
aggregation via energy differences over paired resource elements.
"""

from .streams import StreamKey
from .estimator import (ReedPhyConfig, ScalarInputs, aggregate_coherent_csit,
                        aggregate_ideal, aggregate_reed, chip_streams, sample_estimates)
from .moments import (ConvergenceConstants, MomentReport, energy_audit,
                      eta_schedule, sigma_air_bound, theorem_bound_rhs,
                      variance_chip)
from .fedavg import (TRACE_COLUMNS, FedRunConfig, Objective, build_objective,
                     local_round, run_fedavg)
from .datasets import LabeledDataset, PartitionSpec, parse_idx, partition, synth_dataset

__all__ = [
    "StreamKey",
    "ScalarInputs", "ReedPhyConfig", "sample_estimates",
    "aggregate_ideal", "aggregate_reed", "aggregate_coherent_csit", "chip_streams",
    "MomentReport", "ConvergenceConstants",
    "variance_chip", "sigma_air_bound", "eta_schedule", "energy_audit",
    "theorem_bound_rhs",
    "Objective", "FedRunConfig", "TRACE_COLUMNS", "build_objective",
    "local_round", "run_fedavg",
    "LabeledDataset", "PartitionSpec", "parse_idx",
    "partition", "synth_dataset",
]

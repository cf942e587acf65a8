"""Desk-scale simulation toolkit for amplitude-estimation-based anomaly detection.

Layers, bottom up: `simcore` (dense statevector simulator over named
registers), `arith` (the fixed-point format of digitally stored estimates),
`dataio` (data loading, query ledger, variance floor, normalizing
constants), `ae` (canonical amplitude estimation), `adde` / `adkpca` (the two
detection pipelines with their error budgets), `flawlab` (numeric exhibits of
the prior analog-encoded scheme's defects), `verify` (aggregate verification
suites), and `cli` (the `qadsim` command).
"""

__version__ = "0.1.0"

from .adde import classical_fit, classical_log_density, flag_anomaly, run_adde
from .adkpca import classical_moments, classical_proximity, run_adkpca
from .ae import AEConfig, AEResult, StatePreparation, estimate_amplitude
from .dataio import DataMatrix, QueryLedger, QueryPoint, load_csv, load_query_csv
from .pipelines import PipelineConfig

__all__ = [
    "AEConfig",
    "AEResult",
    "DataMatrix",
    "PipelineConfig",
    "QueryLedger",
    "QueryPoint",
    "StatePreparation",
    "classical_fit",
    "classical_log_density",
    "classical_moments",
    "classical_proximity",
    "estimate_amplitude",
    "flag_anomaly",
    "load_csv",
    "load_query_csv",
    "run_adde",
    "run_adkpca",
]

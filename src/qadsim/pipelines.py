"""Shared state-preparation builders and run configuration for the pipelines.

Every estimator reduces to one of two preparation shapes:

* an interference preparation (ancilla Hadamard sandwich) whose good
  probability is 1/2 + 1/2 <phi|h>, used to read out signed means/overlaps;
* a squared-mean preparation whose good probability is the mean of squared
  rotation values, used for variances and quadratic sums.

`EstimatorRun.means` is the one stage path: every estimator stage hands it a
table of rotation values, one row per AE run, and it pads, prepares, runs and
rescales each row. A stage over a feature or point index runs one row per
index: the coherent index superposition of the full algorithm is block
diagonal in the passive index register, so per-branch simulation is exact;
the verification harness checks this against a monolithic statevector run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ae import (
    AEConfig,
    AEResult,
    StatePreparation,
    bits_for_epsilon,
    estimate_amplitude,
    grid_epsilon,
)
from .arith import FixedPointFormat
from .dataio import QueryLedger
from .simcore import Controlled, HadamardBlock, RegisterLayout, ValueKeyedRotation


@dataclass
class PipelineConfig:
    """Run-level knobs shared by the detection pipelines."""

    t_bits: int | None = None
    epsilon: float | None = None
    mode: str = "ideal"
    seed: int | None = None
    fp_format: FixedPointFormat = field(default_factory=FixedPointFormat)
    policy: str = "error"

    def __post_init__(self):
        if (self.t_bits is None) == (self.epsilon is None):
            raise ValueError("exactly one of t_bits / epsilon must be given")
        if self.mode == "circuit" and self.seed is None:
            raise ValueError("circuit mode requires a seed")

    def echo(self) -> dict:
        return {
            "t_bits": self.t_bits,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "seed": self.seed,
            "fp_int_bits": self.fp_format.int_bits,
            "fp_frac_bits": self.fp_format.frac_bits,
            "policy": self.policy,
        }

    def check_range(self, *values: float) -> None:
        """Raise RangeError unless fp_format holds every value. The pipelines
        pass the bounds of what they will quantize, before any simulation."""
        for value in values:
            self.fp_format.encode(value)


def _index_bits(padded: int) -> int:
    return padded.bit_length() - 1


def interference_prep(name: str, values: np.ndarray, costs: dict) -> StatePreparation:
    """1/2-weighted interference of the rotated branch with the flat branch.

    Good probability is 1/2 + 1/2 * mean(values), so the signed mean of the
    rotation values is recovered as 2 a - 1.
    """
    values = np.asarray(values, dtype=float)
    bits = _index_bits(values.size)
    layout = RegisterLayout([("s", 1), ("idx", bits), ("anc", 1)])
    ops = (
        HadamardBlock("s"),
        HadamardBlock("idx"),
        Controlled("s", 0, ValueKeyedRotation(["idx"], "anc", values)),
        HadamardBlock("s"),
    )
    return StatePreparation(
        name=name,
        layout=layout,
        ops=ops,
        good_register="s",
        good_predicate=lambda label: label == 0,
        oracle_costs=costs,
    )


def squared_mean_prep(name: str, values: np.ndarray, costs: dict) -> StatePreparation:
    """Good probability is mean(values^2) over the index register."""
    values = np.asarray(values, dtype=float)
    bits = _index_bits(values.size)
    layout = RegisterLayout([("idx", bits), ("anc", 1)])
    ops = (
        HadamardBlock("idx"),
        ValueKeyedRotation(["idx"], "anc", values),
    )
    return StatePreparation(
        name=name,
        layout=layout,
        ops=ops,
        good_register="anc",
        good_predicate=lambda label: label == 0,
        oracle_costs=costs,
    )


class EstimatorRun:
    """Chooses each stage's phase grid and error charge, runs the stages' AEs
    in order, and charges them to its ledger."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.ledger = QueryLedger()
        self._run_index = 0

    def precision(self, eps_target: float | None) -> tuple[int, float]:
        """(phase bits, amplitude error charged) for one estimator stage.

        A configured t wins and is charged its grid's worst-case error;
        otherwise the stage gets the coarsest grid meeting its budget share
        eps_target and is charged that share.
        """
        if self.config.t_bits is not None:
            return self.config.t_bits, grid_epsilon(self.config.t_bits)
        t, _hint = bits_for_epsilon(eps_target)
        return t, eps_target

    def run(self, prep: StatePreparation, t_bits: int) -> AEResult:
        seed = None
        if self.config.mode == "circuit":
            seed = (self.config.seed or 0) + self._run_index
        self._run_index += 1
        cfg = AEConfig(t_bits=t_bits, mode=self.config.mode, seed=seed)
        return estimate_amplitude(prep, cfg, ledger=self.ledger)

    def means(
        self,
        name: str,
        table: np.ndarray,
        padded: int,
        costs: dict,
        t_bits: int,
        *,
        signed: bool,
        scale: float = 1.0,
    ) -> list[float]:
        """One AE per row of the (k, n) `table`, in row order.

        Each row is zero-padded to `padded` entries. A signed row drives an
        interference preparation and reads its mean as 2 a - 1; otherwise a
        squared-mean preparation reads the mean of its squares as a. Returns
        scale * that mean * padded / n per row: the mean over the n real
        entries, the pad's zeros taken out.
        """
        build = interference_prep if signed else squared_mean_prep
        n = table.shape[1]
        ratio = padded / n
        values = np.zeros((table.shape[0], padded))
        values[:, :n] = table
        out = []
        for i, row in enumerate(values):
            a = self.run(build(f"{name}[{i}]", row, costs), t_bits).amplitude
            out.append(scale * (2.0 * a - 1.0 if signed else a) * ratio)
        return out

"""Shared state-preparation builders and run configuration for the pipelines.

Every estimator reduces to one of two preparation shapes:

* an interference preparation (ancilla Hadamard sandwich) whose good
  probability is 1/2 + 1/2 <phi|h>, used to read out signed means/overlaps;
* a squared-mean preparation whose good probability is the mean of squared
  rotation values, used for variances and quadratic sums.

Every stage has one contract: an estimator builds its `Part`, a table of
rotation values with one row per AE run (one per feature or point index); its
pipeline reads it with `EstimatorRun.means`, the one stage path, which pads,
runs and rescales the rows, and stores the estimates with `EstimatorRun.stored`. It is the one place
that pads: each row of n values gets `pad_width(n)` labels, one per value of
the index register, and its mean is rescaled by the pad ratio. The coherent
index superposition of the full algorithm is block diagonal in the passive
index, so a stage's rows run exactly as one stacked AE, in both modes: a
(k, pad_width(n)) rotation table on a (k, dim) stack of states. The verification
harness checks this against a monolithic run.

Stages that depend on the same earlier estimates are handed over together
and read as one wave when they share a t: one `phase_outcomes` call, so in
circuit mode one fill, one readout and one draw. ADDE's p and q both need
only (mu_hat, sigma2_hat), and ADKPCA's a and omega only mu_hat, so a run
under a configured t makes three reads, not four. Row i of a run draws with
seed + i however its rows are grouped (the seeds run on across the parts of
a wave), so grouping changes no outcome.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .ae import (
    AEConfig,
    AEResult,
    StatePreparation,
    bits_for_epsilon,
    check_mode,
    estimate_amplitude,
    grid_epsilon,
    phase_outcomes,
    row_amps,
)
from .arith import FixedPointFormat
from .config import MAX_PHASE_BITS
from .dataio import QueryLedger, check_policy, pad_width
from .simcore import Controlled, HadamardBlock, RegisterLayout, ValueKeyedRotation

# Most amplitudes (16 MiB) a stack of rows may hold at once (see `row_amps`).
MAX_STACK_AMPS = 1 << 21


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
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        check_mode(self.mode, self.seed)
        check_policy(self.policy)

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


def report_dict(report, **renames: str) -> dict:
    """A pipeline report's fields in order, keys renamed, arrays as lists."""
    return {
        renames.get(key, key): value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(report).items()
    }


@lru_cache(maxsize=64)
def _shape(registers: tuple[tuple[str, int], ...], good_register: str) -> StatePreparation:
    """The checked preparation without ops that every build of one shape copies
    (`StatePreparation.restacked`), once per (registers, good register)."""
    return StatePreparation("", RegisterLayout(registers), (), good_register)


_H_S, _H_IDX = HadamardBlock("s"), HadamardBlock("idx")


def interference_prep(name: str, values: np.ndarray, costs: dict) -> StatePreparation:
    """1/2-weighted interference of the rotated branch with the flat branch.

    Good probability is 1/2 + 1/2 * mean(values), so the signed mean of the
    rotation values is recovered as 2 a - 1. A (k, padded) table of values
    makes a stacked preparation of k rows, one per row of the table.
    """
    rotation = ValueKeyedRotation(("idx",), "anc", values)
    ops = (_H_S, _H_IDX, Controlled("s", 0, rotation), _H_S)
    return _keyed_prep(name, (("s", 1),), "s", ops, rotation.values, costs)


def squared_mean_prep(name: str, values: np.ndarray, costs: dict) -> StatePreparation:
    """Good probability is mean(values^2) over the index register; a
    (k, padded) table makes a stacked preparation, as in `interference_prep`."""
    rotation = ValueKeyedRotation(("idx",), "anc", values)
    return _keyed_prep(name, (), "anc", (_H_IDX, rotation), rotation.values, costs)


def _keyed_prep(name: str, below: tuple, good_register: str, ops: tuple, table: np.ndarray, costs: dict) -> StatePreparation:
    """`ops` on the registers `below`, then idx, one label per column of the
    rotation's table, then anc; one row per row of the table."""
    registers = (*below, ("idx", table.shape[-1].bit_length() - 1), ("anc", 1))
    return _shape(registers, good_register).restacked(name, ops, costs, len(table) if table.ndim == 2 else 1)


class Part(NamedTuple):
    """One estimator's rows for `EstimatorRun.means`: a (k, n) table of
    rotation values, one row per AE run, its oracle costs per application of
    A, its phase bits, whether its rows are signed means (interference) or
    means of squares, and the scale its means are reported in."""

    name: str
    table: np.ndarray
    costs: dict
    t_bits: int
    signed: bool
    scale: float = 1.0


class EstimatorRun:
    """Plans each stage's phase grid and error charge, runs the stages' AEs
    in order, and charges them to its ledger."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.ledger = QueryLedger()
        self._run_index = 0

    def plan(
        self, stages: tuple[str, ...], shares: Callable[[float], tuple[float, ...]]
    ) -> tuple[list[tuple[int, float]], dict | None]:
        """Each stage's (phase bits, amplitude error charged), in order, and
        the report's budget.

        A configured t runs every stage and is charged its grid's worst-case
        error; there is no budget. Otherwise `shares(epsilon)` splits the
        run's epsilon into one share per stage, and each stage gets the
        coarsest grid meeting its share and is charged that share. The budget
        holds epsilon, the shares (`eps_<stage>`), the grids (`t_<stage>`)
        and `mode_hint`, "ideal" when some grid is finer than circuit mode
        allows. Circuit mode refuses such a plan here, before any stage runs.
        """
        cfg = self.config
        if cfg.t_bits is not None:
            plan, budget = [(cfg.t_bits, grid_epsilon(cfg.t_bits))] * len(stages), None
        else:
            plan = [(bits_for_epsilon(share), share) for share in shares(cfg.epsilon)]
            budget = {
                "epsilon": cfg.epsilon,
                **{f"eps_{stage}": share for stage, (_, share) in zip(stages, plan)},
                **{f"t_{stage}": t for stage, (t, _) in zip(stages, plan)},
                "mode_hint": "ideal" if max(t for t, _ in plan) > MAX_PHASE_BITS else None,
            }
        for stage, (t, _) in zip(stages, plan):
            if cfg.mode == "circuit" and t > MAX_PHASE_BITS:
                raise ValueError(
                    f"circuit mode supports at most {MAX_PHASE_BITS} phase bits: "
                    f"the {stage} stage plans t = {t}; use --mode ideal"
                )
        return plan, budget

    def _next_config(self, t_bits: int) -> AEConfig:
        """The config of a stack that starts at the next AE run: seeded with
        seed + run index, so `phase_outcomes` draws row i with that seed + i
        (ideal mode ignores the seed)."""
        return AEConfig(t_bits, self.config.mode, (self.config.seed or 0) + self._run_index)

    def run(self, prep: StatePreparation, config: AEConfig, outcome: int | None = None) -> AEResult:
        """The next AE run, under its stack's `config`; `outcome` is the row's,
        which `phase_outcomes` read for every row of the stack at once."""
        self._run_index += 1
        return estimate_amplitude(prep, config, ledger=self.ledger, outcome=outcome)

    def means(self, *parts: Part) -> list[list[float]]:
        """Each part's row means, one AE per row, in part and row order.

        Each row of a part's (k, n) `table` is zero-padded to `pad_width(n)`
        entries. A signed row drives an interference preparation and reads its
        mean as 2 a - 1; otherwise a squared-mean preparation reads the mean of
        its squares as a. A part's list holds scale * that mean * pad_width(n) / n
        per row: the mean over the n real entries, the pad's zeros taken out.

        The rows of consecutive parts that share a t are read as one stack, a
        wave: each part's rows in the wave make one stacked preparation, and
        one `phase_outcomes` call under one config reads every row of the wave
        at once; the rows then run in part and row order. A wave holds at most
        MAX_STACK_AMPS amplitudes, each row counted with its part's own
        `row_amps` (4 pad_width(n) bounds a row's labels), and a part that does not
        fit is split across waves. The seeds run on across the parts, so every
        row draws with the seed it would draw with if each part were read
        alone, in order. A part with no rows runs no AE and splits no wave.
        """
        waves, held, out = [], 0, []  # (t, preparations, (preparation, part, pad ratio, means) per row)
        for part in parts:
            (k, n), t = part.table.shape, part.t_bits
            width = pad_width(n)
            build = interference_prep if part.signed else squared_mean_prep
            cost = row_amps(4 * width, t, self.config.mode)
            values = np.zeros((k, width))
            values[:, :n] = part.table
            out.append(means := [])
            lo = 0
            while lo < k:
                if not waves or waves[-1][0] != t or held + cost > MAX_STACK_AMPS:
                    waves.append((t, [], []))
                    held = 0
                hi = min(k, lo + max(1, (MAX_STACK_AMPS - held) // cost))
                prep = build(f"{part.name}[{lo}]", values[lo:hi], part.costs)
                waves[-1][1].append(prep)
                waves[-1][2].extend([(prep, part, width / n, means)] * (hi - lo))
                held += (hi - lo) * cost
                lo = hi
        for t, preps, rows in waves:
            config = self._next_config(t)
            for (prep, part, ratio, means), y in zip(rows, phase_outcomes(preps, config), strict=True):
                a = self.run(prep, config, y).amplitude
                means.append(part.scale * (2.0 * a - 1.0 if part.signed else a) * ratio)
        return out

    def stored(self, values) -> np.ndarray:
        """The values as digital registers hold them: `fp_format.quantize` of each."""
        return np.array([self.config.fp_format.quantize(v) for v in values])

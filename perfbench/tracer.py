"""Spans and counters recorded by wrapping qadsim's public functions.

Nothing under `src/` is changed: `install` swaps a wrapper in for a public
function (in every qadsim module that imported it by name) or a method (on
its class), and `uninstall` puts the originals back. All spans are nested on
one thread, so a span's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter


def _state_amps(args) -> int:
    return args[1].amps.size     # Operation.apply(self, state)


def _self_amps(args) -> int:
    return args[0].amps.size     # StateVector.check_norm(self)


def _first_amps(args) -> int:
    return args[0].amps.size     # measure(state, register, rng)


def _qpe_amps(args) -> int:
    prep, t = args[0], args[1]   # qpe_state(prep, t)
    return (1 << t) * prep.layout.dim


def targets():
    """(layer, owner, attribute, amplitudes-touched function or None)."""
    from qadsim import adde, adkpca, ae, arith, dataio, pipelines, simcore

    return [
        ("adde.run_adde", adde, "run_adde", None),
        ("adkpca.run_adkpca", adkpca, "run_adkpca", None),
        ("adde.estimate_means", adde, "estimate_means", None),
        ("adde.estimate_variances", adde, "estimate_variances", None),
        ("adde.estimate_p", adde, "estimate_p", None),
        ("adde.estimate_q", adde, "estimate_q", None),
        ("adkpca.estimate_a", adkpca, "estimate_a", None),
        ("adkpca.estimate_omegas", adkpca, "estimate_omegas", None),
        ("adkpca.estimate_b", adkpca, "estimate_b", None),
        ("adde.classical", adde, "classical_fit", None),
        ("adde.classical", adde, "classical_log_density", None),
        ("adkpca.classical", adkpca, "classical_moments", None),
        ("adkpca.classical", adkpca, "classical_proximity", None),
        ("dataio.compute_constants", dataio, "compute_constants", None),
        ("pipelines.prep_build", pipelines, "interference_prep", None),
        ("pipelines.prep_build", pipelines, "squared_mean_prep", None),
        ("pipelines.estimator_run", pipelines.EstimatorRun, "run", None),
        ("arith.quantize", arith.FixedPointFormat, "quantize", None),
        ("ae.estimate_amplitude", ae, "estimate_amplitude", None),
        ("ae.good_probability", ae.StatePreparation, "good_probability", None),
        ("ae.qpe_state", ae, "qpe_state", None),
        ("ae.grover_matrix", ae.GroverOperator, "matrix", None),
        ("simcore.hadamard", simcore.HadamardBlock, "apply", _state_amps),
        ("simcore.qft", simcore.Qft, "apply", _state_amps),
        ("simcore.keyed_rotation", simcore.ValueKeyedRotation, "apply", _state_amps),
        ("simcore.controlled", simcore.Controlled, "apply", _state_amps),
        ("simcore.reflect", simcore.ReflectWhere, "apply", _state_amps),
        ("simcore.reflect", simcore.ReflectAboutZero, "apply", _state_amps),
        ("simcore.check_norm", simcore.StateVector, "check_norm", _self_amps),
        ("simcore.measure", simcore, "measure", _first_amps),
    ]


class Patcher:
    """Replaces functions and methods with wrappers and restores them."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # `from .ae import qpe_state` binds the function in the importing
        # module too, so rebind it wherever qadsim holds it.
        for name, module in list(sys.modules.items()):
            if (name == "qadsim" or name.startswith("qadsim.")) and getattr(
                module, attr, None
            ) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Probe:
    """Counters kept in every run, traced or not: `ae.qpe_amps` and the
    circuit-mode raw outcomes. One cheap call per AE stage."""

    def __init__(self):
        self.qpe_amps = 0
        self.raw: list = []
        self._patcher = Patcher()

    def install(self, keep_raw_outcomes: bool) -> None:
        from qadsim import ae

        def count_qpe(fn):
            def wrapper(*args, **kwargs):
                self.qpe_amps += _qpe_amps(args)
                return fn(*args, **kwargs)
            return wrapper

        def keep_raw(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.raw.append(result.raw_outcome)
                return result
            return wrapper

        self._patcher.wrap(ae, "qpe_state", count_qpe)
        if keep_raw_outcomes:
            self._patcher.wrap(ae, "estimate_amplitude", keep_raw)

    def uninstall(self) -> None:
        self._patcher.restore()


class Tracer:
    """In-memory spans with per-layer calls, self time and computed bytes."""

    def __init__(self):
        self.op = None          # op id stamped on each span
        self.record = False     # keep full spans (first traced pass only)
        self.spans: list = []   # (name, start, end, parent index, op)
        self.stats: dict = {}   # layer -> [calls, self seconds, inclusive seconds]
        self.amps_touched = 0   # amplitudes read and written by simcore ops
        self._stack: list = []  # [span index, child seconds] per open span
        self._patcher = Patcher()

    def install(self) -> None:
        for layer, owner, attr, amps_fn in targets():
            self._patcher.wrap(owner, attr, lambda fn, l=layer, a=amps_fn: self._wrapper(l, fn, a))

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset_stats(self) -> None:
        self.stats = {}
        self.amps_touched = 0

    def _wrapper(self, layer: str, fn, amps_fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if amps_fn is not None:
                self.amps_touched += amps_fn(args)
            index = -1
            if self.record:
                parent = stack[-1][0] if stack else -1
                index = len(self.spans)
                self.spans.append([layer, 0.0, 0.0, parent, self.op])
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = self.stats.get(layer)
                if entry is None:
                    entry = self.stats[layer] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if index >= 0:
                    self.spans[index][1] = start
                    self.spans[index][2] = end

        return wrapper

    def write_spans(self, path) -> None:
        """Spans as gzip JSON lines: [name, start_s, end_s, parent, op]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

"""qadsim benchmark: one closed-loop client driving `run_adde` and `run_adkpca`.

    python3 perfbench/run.py --workload ideal-sweep --seed 1 --seconds 50 --trace 0

Run from the repository root. Each pass runs every op of the workload's
instance set in turn (the next run starts when the previous one returns) and
checks every report; passes repeat while another one fits in --seconds, and
at least one always runs. Latencies and throughput are corrected for the
host's speed with a reference timing taken between ops (hostspeed.py). With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.
Full results, with the host record and the simulated-result digest, go to
perfbench/results/. See perfbench/README.md.
"""
import os

# One process, one thread: pin BLAS before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES_FIRST = 3  # set-up probes before the passes
SETUP_PROBES_SPREAD = 10  # about this many more, spread between the passes
DELTA = 0.01
PROBE_TIMEOUT_S = 60
REF_EVERY_S = 0.02  # time the reference work at most this often (hostspeed.py)

LAYERS = (
    "ae.grover_matrix", "simcore.check_norm", "simcore.keyed_rotation",
    "simcore.controlled", "simcore.reflect", "simcore.hadamard", "simcore.qft",
    "simcore.measure", "ae.qpe_state", "ae.estimate_amplitude",
    "ae.good_probability", "pipelines.prep_build", "arith.quantize",
    "dataio.compute_constants", "adde.classical", "adkpca.classical",
)
STAGES = (
    "adde.estimate_means", "adde.estimate_variances", "adde.estimate_p",
    "adde.estimate_q", "adkpca.estimate_a", "adkpca.estimate_omegas",
    "adkpca.estimate_b",
)
SUITES = ("verify.equivalence", "verify.scaling", "verify.flaws", "flawlab.run_flaw_suite")
LEDGER_KINDS = ("grover", "oracle_data", "oracle_query", "arithmetic")


def _on_alarm(signum, frame):
    raise TimeoutError(f"setup probe ran longer than {PROBE_TIMEOUT_S} s")


def _probe_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running `code`.

    A blocking wait returns as soon as the child exits; `wait(timeout=...)`
    would poll in steps of up to 50 ms and quantize the time. SIGALRM bounds
    the wait instead.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
    )
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(PROBE_TIMEOUT_S)
    try:
        returncode = proc.wait()
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
    elapsed = perf_counter() - start
    if returncode != 0:
        raise subprocess.CalledProcessError(returncode, proc.args)
    return elapsed


class SetupTimer:
    """Fresh-interpreter set-up probes, spread over the run.

    A few run before the passes, then one between passes whenever `every`
    seconds have gone by since the last. The host's speed state lasts from
    seconds to minutes, so probes taken all at once would see one state;
    spread out, their median sees the run's mix.
    """

    def __init__(self, code: str, every: float):
        self.code, self.every = code, every
        self.seconds = [_probe_seconds(code) for _ in range(SETUP_PROBES_FIRST)]
        self._last = perf_counter()

    def between_passes(self) -> None:
        if perf_counter() - self._last >= self.every:
            self.seconds.append(_probe_seconds(self.code))
            self._last = perf_counter()

    def median(self) -> float:
        return statistics.median(self.seconds)


def _nearest_rank(sorted_values: list, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def _jsonable(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def host_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


class Bench:
    """One workload's instance set, op list and references, run pass by pass."""

    def __init__(self, workload, seed: int):
        from checks import Reference
        from qadsim.pipelines import PipelineConfig
        from tracer import Probe
        from workloads import build_inputs, instance_arrays

        self.workload = workload
        self.inputs = build_inputs(workload, seed)
        self.refs = [Reference(x, x0) for x, x0 in instance_arrays(workload, seed)]
        self.issues = []
        for ref, (data, query) in zip(self.refs, self.inputs):
            self.issues.extend(ref.agrees_with_program(data, query))
        self.ops = []
        for i in range(len(self.inputs)):
            for kw in workload.configs:
                for pipeline in ("adde", "adkpca"):
                    op_seed = seed + len(self.ops) if workload.mode == "circuit" else None
                    cfg = PipelineConfig(mode=workload.mode, seed=op_seed, policy="epsilon-floor", **kw)
                    self.ops.append((pipeline, i, cfg))
        # Flaw exhibits need toy data (at most 4x4); with d = 1 the normalized
        # rows are +-1 and their sum can vanish, so those are left out.
        self.flaw_inputs = [
            (data, query) for data, query in self.inputs
            if data.n_rows <= 4 and 2 <= data.n_cols <= 4
        ]
        self.probe = Probe()

    def _run_op(self, pipeline: str, i: int, cfg):
        # Looked up on each call, so that installed wrappers are used.
        from qadsim import adde, adkpca

        data, query = self.inputs[i]
        if pipeline == "adde":
            return adde.run_adde(data, query, cfg, delta=DELTA)
        return adkpca.run_adkpca(data, query, cfg)

    def warm_up(self) -> None:
        """Run the first instance's ops once so lazy set-up is not timed."""
        for pipeline, i, cfg in self.ops:
            if i > 0:
                break
            self._run_op(pipeline, i, cfg)

    def run_pass(self, tracer=None) -> dict:
        """One pass over the ops. Times are corrected for host speed (see
        hostspeed.py); `latency_raw` keeps the measured pipeline times."""
        from checks import check_adde, check_adkpca
        from hostspeed import SpeedLog

        circuit = self.workload.mode == "circuit"
        speed = SpeedLog(REF_EVERY_S)
        # Per op, in op order; None where the run raised.
        latency = [None] * len(self.ops)  # the pipeline call
        op_wall = [None] * len(self.ops)  # the call and its checks
        timing_before = [0] * len(self.ops)
        records, errors = [], []
        misses = checked = 0
        ledger = dict.fromkeys(LEDGER_KINDS, 0)
        qpe_amps0 = self.probe.qpe_amps
        start = perf_counter()
        for k, (pipeline, i, cfg) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = k
            self.probe.raw.clear()
            timing_before[k] = speed.mark()
            t0 = perf_counter()
            try:
                rep = self._run_op(pipeline, i, cfg)
            except Exception as exc:  # a failed run is counted, and the loop goes on
                errors.append(f"op {k} ({pipeline}): {type(exc).__name__}: {exc}")
                continue
            latency[k] = perf_counter() - t0
            body = rep.as_dict()
            if pipeline == "adde":
                m, c, issues = check_adde(body, self.refs[i], DELTA)
            else:
                m, c, issues = check_adkpca(body, self.refs[i])
            misses += m
            checked += c
            self.issues.extend(f"op {k}: {msg}" for msg in issues)
            for kind in LEDGER_KINDS:
                ledger[kind] += body["ledger"][kind]
            record = {"op": k, "ledger": body["ledger"]}
            if circuit:
                record["raw"] = list(self.probe.raw)
            else:
                record["report"] = body
            records.append(record)
            op_wall[k] = perf_counter() - t0
        speed.mark(force=True)
        latency_raw = list(latency)
        for times in (latency, op_wall):
            for k, t in enumerate(times):
                if t is not None:
                    times[k] = t * speed.factor(timing_before[k])

        suite_s = {}
        if self.workload.suites:
            suite_s = self._run_suites(records, tracer, speed)
        wall = perf_counter() - start
        digest = hashlib.sha256(
            json.dumps(records, sort_keys=True, default=_jsonable).encode()
        ).hexdigest()
        return {
            "latency": latency, "latency_raw": latency_raw, "op_wall": op_wall,
            "reference_ms": [t * 1000.0 for t in speed.timings], "errors": errors, "misses": misses,
            "checked": checked, "ledger": ledger, "suite_s": suite_s, "wall": wall,
            "digest": digest, "qpe_amps": self.probe.qpe_amps - qpe_amps0,
        }

    def _run_suites(self, records: list, tracer, speed) -> dict:
        """The verify suites and flaw exhibits, timed apart from pipeline latency
        and corrected for host speed."""
        from qadsim import flawlab, verify

        suite_s = {}
        for name, fn in (
            ("verify.equivalence", verify.equivalence_suite),
            ("verify.scaling", verify.scaling_suite),
            ("verify.flaws", verify.flaws_suite),
        ):
            if tracer is not None:
                tracer.op = name
            before = speed.mark()
            t0 = perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.issues.append(f"{name} raised {type(exc).__name__}: {exc}")
                continue
            seconds = perf_counter() - t0
            speed.mark(force=True)
            suite_s[name] = seconds * speed.factor(before)
            if not result["passed"]:
                self.issues.append(f"{name} failed: {result['failures']}")
            records.append({"suite": name, "result": result})
        if tracer is not None:
            tracer.op = "flawlab.run_flaw_suite"
        before = speed.mark()
        t0 = perf_counter()
        try:
            flaws = [flawlab.run_flaw_suite(d, q).as_dict() for d, q in self.flaw_inputs]
        except Exception as exc:
            self.issues.append(f"run_flaw_suite raised {type(exc).__name__}: {exc}")
        else:
            seconds = perf_counter() - t0
            speed.mark(force=True)
            suite_s["flawlab.run_flaw_suite"] = seconds * speed.factor(before)
            records.append({"suite": "flawlab.run_flaw_suite", "result": flaws})
        return suite_s


def run_passes(bench: Bench, seconds: float, start: float, setup: SetupTimer, tracer=None) -> list:
    """Whole passes while another one fits in the time left; at least one.

    With a tracer, passes alternate untraced and traced (at least one of
    each), so drift of a shared machine biases the overhead estimate less.
    """
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset_stats()
            tracer.install()
        p = bench.run_pass(tracer if traced else None)
        if traced:
            tracer.uninstall()
            p["stats"], p["amps_touched"] = tracer.stats, tracer.amps_touched
            tracer.record = False
        passes.append(p)
        setup.between_passes()
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - start + p["wall"] > seconds:
            return passes


def _pooled_ms(bench: Bench, passes: list, key: str, pipeline: str) -> list:
    """Sorted times in ms of one pipeline's runs, pooled over all passes."""
    return sorted(
        t * 1000.0 for p in passes for t, (name, _, _) in zip(p[key], bench.ops)
        if name == pipeline and t is not None
    )


def _busy_s(p: dict) -> float:
    """A pass's wall time without the reference timings, corrected for host
    speed part by part: every op with its checks, and each suite."""
    return sum(t for t in p["op_wall"] if t is not None) + sum(p["suite_s"].values())


def end_to_end(bench: Bench, passes: list, setup_s: float) -> tuple[dict, dict]:
    """(contract metrics, extra figures) of an untraced run."""
    metrics, extra = {}, {"tail": {}, "uncorrected_ms_p50": {}}
    for pipeline, prefix in (("adde", "detect"), ("adkpca", "kpca")):
        lat = _pooled_ms(bench, passes, "latency", pipeline)
        pct = bench.workload.tail_pct
        tail = _nearest_rank(lat, pct)
        metrics[f"{prefix}_ms_p50"] = (statistics.median(lat), "ms")
        metrics[f"{prefix}_ms_tail"] = (tail, "ms")
        extra["tail"][prefix] = {
            "percentile": pct, "samples": len(lat), "beyond": sum(v > tail for v in lat),
        }
        extra["uncorrected_ms_p50"][prefix] = statistics.median(
            _pooled_ms(bench, passes, "latency_raw", pipeline)
        )
    runs = sum(t is not None for p in passes for t in p["latency"])
    attempted = len(bench.ops) * len(passes)
    misses = sum(p["misses"] for p in passes)
    checked = sum(p["checked"] for p in passes)
    metrics["runs_per_s"] = (runs / sum(map(_busy_s, passes)), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (setup_s, "s")
    extra["failed_frac"] = (attempted - runs) / attempted
    extra["bound_miss_frac"] = misses / checked
    extra["bound_misses"] = {"missed": misses, "checked": checked}
    extra["suite_ms"] = {
        name: statistics.median(p["suite_s"][name] * 1000.0 for p in passes if name in p["suite_s"])
        for name in SUITES if name in passes[0]["suite_s"]
    }
    return metrics, extra


def per_layer(passes: list, cold_start_s: float) -> dict:
    """Per-layer metrics of a traced run, per pass."""
    traced = [p for p in passes if "stats" in p]
    first = traced[0]
    metrics = {}

    def med(fn, among=traced) -> float:
        return statistics.median(fn(p) for p in among)

    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["stats"].get(layer, [0])[0], "count")
        metrics[f"{layer}.self_ms"] = (
            med(lambda p: p["stats"].get(layer, [0, 0.0])[1] * 1000.0), "ms"
        )
    metrics["pipelines.estimator_run.calls"] = (
        first["stats"].get("pipelines.estimator_run", [0])[0], "count"
    )
    for stage in STAGES:
        metrics[f"{stage}.ms"] = (med(lambda p: p["stats"].get(stage, [0, 0.0, 0.0])[2] * 1000.0), "ms")
    for name in SUITES:
        metrics[f"{name}.ms"] = (med(lambda p: p["suite_s"].get(name, 0.0) * 1000.0), "ms")
    metrics["cli.cold_start_s"] = (cold_start_s, "s")
    for kind in LEDGER_KINDS:
        metrics[f"dataio.ledger.{kind}"] = (first["ledger"][kind], "count")
    metrics["ae.qpe_amps"] = (first["qpe_amps"], "count")
    metrics["simcore.bytes_computed"] = (16 * first["amps_touched"], "B")
    untraced = [p for p in passes if "stats" not in p]
    overhead = med(_busy_s) / med(_busy_s, untraced) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qadsim" / "__init__.py").is_file():
        print(f"error: qadsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    boot = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import qadsim.cli"
    if not args.trace:
        boot += (
            f"; import workloads; workloads.build_inputs("
            f"workloads.WORKLOADS[{workload.name!r}], {args.seed})"
        )
    setup = SetupTimer(boot, args.seconds / SETUP_PROBES_SPREAD)

    bench = Bench(workload, args.seed)
    bench.warm_up()
    bench.probe.install(keep_raw_outcomes=workload.mode == "circuit")
    start = perf_counter()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record = True
        passes = run_passes(bench, args.seconds, start, setup, tracer)
        metrics, extra = per_layer(passes, setup.median()), {}
    else:
        passes = run_passes(bench, args.seconds, start, setup)
        metrics, extra = end_to_end(bench, passes, setup.median())
    bench.probe.uninstall()

    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        bench.issues.append("passes replaying the same inputs gave different results")
    if len({p["qpe_amps"] for p in passes}) != 1 or len({json.dumps(p["ledger"]) for p in passes}) != 1:
        bench.issues.append("passes replaying the same inputs gave different counts")
    errors = [e for p in passes for e in p["errors"]]
    attempted = len(bench.ops) * len(passes)
    result = {
        "correct": not bench.issues,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(), "passes": len(passes),
        "ops_per_pass": len(bench.ops), "instances": len(bench.inputs),
        "pass_wall_s": [p["wall"] for p in passes],
        "setup_probes_s": setup.seconds,
        "ops": [[pipeline, i] for pipeline, i, _ in bench.ops],
        "latency_ms": [[t and t * 1000.0 for t in p["latency"]] for p in passes],
        "uncorrected_latency_ms": [[t and t * 1000.0 for t in p["latency_raw"]] for p in passes],
        "reference_ms": [p["reference_ms"] for p in passes],
        "digest": passes[0]["digest"],
        "counts_per_pass": {"ledger": passes[0]["ledger"], "ae.qpe_amps": passes[0]["qpe_amps"]},
        "issues": bench.issues[:50], "errors": errors[:50], **extra, **result,
    }
    if args.trace:
        record["spans_file"] = f"{stem}_spans.jsonl.gz"
        tracer.write_spans(RESULTS / record["spans_file"])
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=_jsonable)
        fh.write("\n")

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes of "
          f"{len(bench.ops)} ops, digest {passes[0]['digest'][:16]}, "
          f"BLAS threads {BLAS_THREADS['OPENBLAS_NUM_THREADS']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for prefix, tail in extra.get("tail", {}).items():
        print(f"  {prefix}_ms_tail is p{tail['percentile']:g} of {tail['samples']} runs "
              f"({tail['beyond']} beyond it)")
    for prefix, ms in extra.get("uncorrected_ms_p50", {}).items():
        print(f"  {prefix}_ms_p50 before the host-speed correction: {ms:.6g} ms")
    if not args.trace:
        print(f"  failed_frac = {extra['failed_frac']:.6g} frac")
        print(f"  bound_miss_frac = {extra['bound_miss_frac']:.6g} frac "
              f"({extra['bound_misses']['missed']} of {extra['bound_misses']['checked']})")
    for issue in bench.issues[:5]:
        print(f"  incorrect: {issue}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

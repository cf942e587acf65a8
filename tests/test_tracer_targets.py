"""Every name the benchmark's tracer wraps must resolve.

`perfbench/tracer.py` wraps qadsim functions and methods by name: a traced
run wraps each entry of `targets()`, and every benchmark run installs a
`Probe` on `ae.qpe_state` and `ae.estimate_amplitude`. A wrap of a name that
is gone raises, so deleting or renaming one of them breaks the benchmark. So
does deleting an attribute the `Probe` reads off a result (`raw_outcome`).
The wrappers forward any arguments, so a signature is free to change, but a
traced run, `Probe` included, must report what an untraced one does.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for layer, owner, attr, _ in _tracer().targets():
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr} is gone"


def test_probe_wraps_its_names_and_restores_them():
    from qadsim import ae

    originals = (ae.qpe_state, ae.estimate_amplitude)
    probe = _tracer().Probe()
    probe.install(keep_raw_outcomes=True)
    try:
        assert ae.qpe_state is not originals[0]
        assert ae.estimate_amplitude is not originals[1]
    finally:
        probe.uninstall()
    assert (ae.qpe_state, ae.estimate_amplitude) == originals


def test_probe_reads_the_raw_outcome_off_each_result():
    from qadsim import ae
    from qadsim.verify import _fixed_amplitude_prep

    probe = _tracer().Probe()
    probe.install(keep_raw_outcomes=True)
    try:
        result = ae.estimate_amplitude(_fixed_amplitude_prep(0.3), ae.AEConfig(4, "circuit", 1))
    finally:
        probe.uninstall()
    assert probe.raw == [result.outcome]


def _runs() -> list:
    """Both pipelines in ideal mode and in circuit mode at t = 4, and the
    equivalence suite, which runs the dense reference."""
    from qadsim import verify
    from qadsim.adde import run_adde
    from qadsim.adkpca import run_adkpca
    from qadsim.pipelines import PipelineConfig

    data, query = verify.random_instance(3)
    reports = []
    for config in (PipelineConfig(t_bits=6), PipelineConfig(t_bits=4, mode="circuit", seed=5)):
        reports += [run_adde(data, query, config).as_dict(), run_adkpca(data, query, config).as_dict()]
    return [*reports, verify.equivalence_suite()]


def test_a_traced_run_equals_the_untraced_one():
    # A wrapped name whose signature or result changed fails here, in
    # process, not only when the benchmark runs traced.
    module = _tracer()
    untraced = _runs()
    probe, tracer = module.Probe(), module.Tracer()
    try:
        probe.install(keep_raw_outcomes=True)
        tracer.install()
        traced = _runs()
    finally:
        tracer.uninstall()
        probe.uninstall()
    assert traced == untraced
    assert tracer.stats["dataio.compute_constants"][0] > 0
    assert tracer.stats["simcore.reflect"][0] > 0
    assert probe.qpe_amps > 0 and len(probe.raw) > 0

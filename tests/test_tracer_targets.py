"""Every name the benchmark's tracer wraps must resolve.

`perfbench/tracer.py` wraps qadsim functions and methods by name: a traced
run wraps each entry of `targets()`, and every benchmark run installs a
`Probe` on `ae.qpe_state` and `ae.estimate_amplitude`. A wrap of a name that
is gone raises, so deleting or renaming one of them breaks the benchmark. So
does deleting an attribute the `Probe` reads off a result (`raw_outcome`).
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

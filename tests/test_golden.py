"""Golden reports: `run_adde` / `run_adkpca` reports on fixed instances.

Ideal-mode reports are deterministic, and circuit-mode reports are functions
of the seeded raw outcomes, so every report must match its stored copy
exactly. A change that moves any number here changes what qadsim computes.

`circuit-digest.json` pins many more circuit runs by hash: the sha256 of each
report's sorted JSON, or the type and message of the error a run raises.

Regenerate the files (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
from pathlib import Path

import pytest

from qadsim.adde import run_adde
from qadsim.adkpca import run_adkpca
from qadsim.config import QadsimError
from qadsim.pipelines import PipelineConfig
from qadsim.verify import random_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = range(6)
CONFIGS = {
    "ideal-t10": dict(t_bits=10),
    "ideal-eps0.2": dict(epsilon=0.2),
    "circuit-t4": dict(t_bits=4, mode="circuit", seed=40),
    "circuit-t6": dict(t_bits=6, mode="circuit", seed=60),
    "circuit-t10": dict(t_bits=10, mode="circuit", seed=100),
}
DIGEST_SEEDS = range(100)
DIGEST_CONFIGS = ("circuit-t6", "circuit-t10")


def reports(name: str) -> dict:
    """{'<pipeline>/<seed>': report dict} for one configuration."""
    out = {}
    for seed in SEEDS:
        data, query = random_instance(seed)
        for pipeline, run in (("adde", run_adde), ("adkpca", run_adkpca)):
            rep = run(data, query, PipelineConfig(**CONFIGS[name]))
            # A JSON round trip gives the stored form (tuples become lists).
            out[f"{pipeline}/{seed}"] = json.loads(json.dumps(rep.as_dict()))
    return out


def digests() -> dict:
    """{'<config>': {'<pipeline>/<seed>': report sha256 or error}} over DIGEST_SEEDS."""
    out = {}
    for name in DIGEST_CONFIGS:
        out[name] = {}
        for seed in DIGEST_SEEDS:
            data, query = random_instance(seed)
            for pipeline, run in (("adde", run_adde), ("adkpca", run_adkpca)):
                try:
                    body = json.dumps(run(data, query, PipelineConfig(**CONFIGS[name])).as_dict(), sort_keys=True)
                except QadsimError as exc:
                    out[name][f"{pipeline}/{seed}"] = f"{type(exc).__name__}: {exc}"
                    continue
                out[name][f"{pipeline}/{seed}"] = hashlib.sha256(body.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert reports(name) == want


def test_circuit_digests_match_golden():
    want = json.loads((GOLDEN / "circuit-digest.json").read_text())
    assert digests() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    files = {name: reports(name) for name in CONFIGS}
    files["circuit-digest"] = digests()
    for name, content in files.items():
        with open(GOLDEN / f"{name}.json", "w") as fh:
            json.dump(content, fh, indent=1, sort_keys=True)
            fh.write("\n")

"""Golden reports: `run_adde` / `run_adkpca` reports on fixed instances.

Ideal-mode reports are deterministic, and circuit-mode reports are functions
of the seeded raw outcomes, so every report must match its stored copy
exactly. A change that moves any number here changes what qadsim computes.

Regenerate the files (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
from pathlib import Path

import pytest

from qadsim.adde import run_adde
from qadsim.adkpca import run_adkpca
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert reports(name) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with open(GOLDEN / f"{name}.json", "w") as fh:
            json.dump(reports(name), fh, indent=1, sort_keys=True)
            fh.write("\n")

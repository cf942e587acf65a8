"""Every function and method defined under `src/qadsim` is reached by a
product path, or is on a named allowlist with its reason.

The product paths are the CLI commands, run in process through `cli.main`
under `sys.setprofile`: `detect` and `kpca` in both modes, each under
`--t-bits` and under `--epsilon`; `fit`; `flaws`; and the four `verify`
suites. The recording keeps the code object of every Python call; a def
whose code object never ran is never called. The bounded caches are cleared
first, so a cached builder runs even when an earlier test filled its cache.
A def that no path reaches is deleted, or named here with the reason it stays.
"""
import ast
import sys
from pathlib import Path

import numpy as np

import qadsim
from qadsim import cli

SRC = Path(qadsim.__file__).resolve().parent

# The benchmark's tracer wraps these by name, so they stay until it stops
# naming them; tests/test_tracer_targets.py holds the names.
TRACER_PINNED = "wrapped by name by perfbench/tracer.py"

NEVER_CALLED = {
    "simcore.Qft.__init__": TRACER_PINNED,
    "simcore.Qft.apply": TRACER_PINNED,
    "simcore.measure": TRACER_PINNED,
    "simcore.draw": "called only by measure (tracer-pinned)",
    "simcore.StateVector.norm_sq": "called only by measure (tracer-pinned)",
    "ae.AEResult.raw_outcome": "read off every result by the benchmark's Probe",
    "simcore.Operation.kernel": "abstract: every op overrides it",
    "simcore.RegisterLayout.__eq__": "the contract for cache keys: equal layouts share "
                                     "cached fields, diagonals and Walsh starts",
}


def _defs() -> set[str]:
    """'module.qualname' of every def in the package, nested ones included."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("qadsim."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _commands(tmp_path) -> list[list[str]]:
    data, query = tmp_path / "data.csv", tmp_path / "query.csv"
    np.savetxt(data, np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 3.0], [2.0, 1.0]]), delimiter=",")
    np.savetxt(query, np.array([[1.0, 3.0]]), delimiter=",")
    files = ["--data", str(data), "--query", str(query)]
    runs = []
    for mode, epsilon in ((["--mode", "ideal"], "0.2"), (["--mode", "circuit", "--seed", "3"], "0.9")):
        for precision in (["--t-bits", "6"], ["--epsilon", epsilon]):
            runs += [["detect", *files, *mode, *precision], ["kpca", *files, *mode, *precision]]
    runs += [["fit", *files[:2]], ["flaws", *files]]
    runs += [["verify", "--suite", suite, "--seeds", "2"] for suite in cli.SUITES]
    return runs


def _called(commands) -> set[str]:
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        exits = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert all(code in (0, 1) for code in exits), list(zip(commands, exits))
    return {
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).resolve().parent == SRC
    }


def test_every_def_is_reached_or_allowlisted(tmp_path):
    defs = _defs()
    assert set(NEVER_CALLED) <= defs, sorted(set(NEVER_CALLED) - defs)
    never = defs - _called(_commands(tmp_path))
    assert never == set(NEVER_CALLED), {
        "unreached, not allowlisted": sorted(never - set(NEVER_CALLED)),
        "allowlisted, but reached": sorted(set(NEVER_CALLED) - never),
    }

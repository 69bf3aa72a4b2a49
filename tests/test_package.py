import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import sgdlab

# Names the package no longer has: the solo result types and helpers no
# experiment used, two test references now in tests/helpers.py, the
# data-source and interval helpers that only tests called, the solo and
# one-schedule SGD and coupled runners, which only re-entered a bank, and
# the solo diffusion runner with its materialized Brownian path, which the
# bias probe no longer needs.
DELETED = (
    "BrownianPath",
    "CoupledRun",
    "DataDistribution",
    "RateSetting",
    "Trajectory",
    "confidence_interval",
    "empirical_data",
    "empirical_sigma",
    "finite_difference_gradient",
    "iid_data",
    "run_gradient_flow",
    "run_coupled",
    "run_projected_sgd",
    "run_sde_em",
    "run_sgd",
    "run_sgd_replicates",
    "sample_brownian_path",
    "suffix_average",
)
RUNNERS = (
    "run_coupled_replicates",
    "run_sgd_sweep",
    "em_bias_probe",
)


def test_public_names_resolve_and_deleted_names_are_gone():
    assert len(set(sgdlab.__all__)) == len(sgdlab.__all__)
    for name in sgdlab.__all__:
        assert not isinstance(getattr(sgdlab, name), ModuleType), name
    for name in DELETED:
        assert name not in sgdlab.__all__
        assert not hasattr(sgdlab, name), name


def test_runners_take_no_record_or_coupling_switch():
    """Every bank keeps its final states and the oracle alone picks the
    coupling, so no public runner takes record_states or kind."""
    for name in RUNNERS:
        params = inspect.signature(getattr(sgdlab, name)).parameters
        assert not {"record_states", "kind"} & set(params), name


def test_readme_quick_start_runs():
    """The README's library quick start, run as written with src on the
    path, exits 0 and prints a distance^2 decay within 0.05 of n^-0.5."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    (block,) = re.findall(r"## Quick start \(library\)\s+```python\n(.*?)```", readme, re.S)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    (slope,) = re.findall(r"decays like n\^(-?[0-9.]+)", done.stdout)
    assert abs(float(slope) + 0.5) <= 0.05, done.stdout


def test_src_stays_within_its_line_budget():
    """src/ holds at most 2359 lines, counting the lines that are not blank
    and whose first non-blank character is not #."""
    root = Path(__file__).resolve().parents[1] / "src"
    lines = [line.strip() for path in sorted(root.rglob("*.py")) for line in path.read_text().splitlines()]
    count = sum(1 for line in lines if line and not line.startswith("#"))
    assert count <= 2359, f"src/ holds {count} lines"

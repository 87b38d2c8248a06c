"""Shared fixtures for the test suite.

Simulation fixtures are deliberately small (a few thousand instructions)
so the whole suite stays fast; the benchmark harness covers full-scale
sweeps.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from repro.core.simulator import ParrotSimulator
from repro.models.configs import model_config
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import specfp_profile, specint_profile
from repro.workloads.suite import application


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/*.json from the current implementation "
             "instead of asserting against it",
    )


@pytest.fixture()
def update_golden(request) -> bool:
    """True when the run should rewrite golden files rather than compare."""
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def _isolated_experiment_state(tmp_path, monkeypatch):
    """Point the result store at a per-test directory and drop shared runners.

    Keeps tests from reading or polluting the user's ``~/.cache/repro``
    and from observing grid state memoised by an earlier test's CLI call.
    """
    from repro import cli

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    cli.reset_runners()
    yield
    cli.reset_runners()


@pytest.fixture()
def dead_pid() -> int:
    """The pid of a child process that has exited and been reaped.

    A literal pid could name a live process; a reaped child's pid is free
    until the kernel wraps around to it.
    """
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    return child.pid


@pytest.fixture(scope="session")
def fp_workload() -> SyntheticWorkload:
    """A small regular (FP-style) synthetic workload."""
    return SyntheticWorkload(specfp_profile("test-fp"), seed=7)


@pytest.fixture(scope="session")
def int_workload() -> SyntheticWorkload:
    """A small irregular (integer-style) synthetic workload."""
    return SyntheticWorkload(specint_profile("test-int"), seed=11)


@pytest.fixture(scope="session")
def swim_result_ton():
    """A cached TON run of swim (shared across read-only assertions)."""
    sim = ParrotSimulator(model_config("TON"))
    return sim.simulate(application("swim"), length=8000)


@pytest.fixture(scope="session")
def swim_result_n():
    """A cached N run of swim."""
    sim = ParrotSimulator(model_config("N"))
    return sim.simulate(application("swim"), length=8000)


@pytest.fixture()
def rng() -> random.Random:
    """A fresh deterministic RNG per test."""
    return random.Random(0xDEADBEEF)

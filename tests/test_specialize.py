"""The ``compiled`` backend value: a compatibility contract.

Hot traces replay through one executor, the scalar row-replay plan
(:meth:`TimingCore.run_hot_plan`); no code is generated for them any
more.  ``ExecutionBackend.COMPILED`` is still accepted, because the
benchmark workloads pass it, and it must select that same executor.
These tests pin that: a ``backend=COMPILED`` run reproduces the goldens
and the default run bit-for-bit, across machine models and under fixed and
adaptive sampling.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.models.configs import model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The same pinned runs the scalar parity gate uses.
PARITY_RUNS = [
    ("swim", "TON", 4000),
    ("gcc", "N", 4000),
    ("eon", "TOW", 4000),
]

COMPILED = RunOptions(backend=ExecutionBackend.COMPILED)


def _simulate(app_name: str, model_name: str, length: int,
              options: RunOptions) -> dict:
    simulator = ParrotSimulator(model_config(model_name))
    result = simulator.simulate(
        application(app_name), options, length=length
    )
    return result.to_dict()


@pytest.mark.parametrize("app_name,model_name,length", PARITY_RUNS)
def test_compiled_matches_golden(app_name, model_name, length):
    """``backend=COMPILED`` reproduces the goldens bit-for-bit."""
    golden_path = GOLDEN_DIR / f"{app_name}_{model_name}_{length}.json"
    golden = json.loads(golden_path.read_text())
    produced = json.loads(
        json.dumps(_simulate(app_name, model_name, length, COMPILED))
    )
    assert produced == golden, (
        f"compiled run of {app_name}/{model_name}/{length} diverged from "
        f"the golden result — both backend values run one executor"
    )


@pytest.mark.parametrize("app_name,model_name", [
    ("gzip", "TOS"),   # split pipeline: state switches between cores
    ("swim", "W"),     # wide baseline, no trace unit at all
    ("mesa", "TN"),    # narrow trace machine, no optimizer
])
def test_compiled_matches_scalar_across_models(app_name, model_name):
    scalar = _simulate(app_name, model_name, 3000, RunOptions())
    compiled = _simulate(app_name, model_name, 3000, COMPILED)
    assert compiled == scalar


def test_compiled_matches_scalar_sampled():
    sampling = SamplingConfig(detail=500, gap=1500, warmup=300,
                              func_warm=500)
    scalar = _simulate("swim", "TON", 20_000, RunOptions(sampling=sampling))
    compiled = _simulate(
        "swim", "TON", 20_000,
        RunOptions(sampling=sampling, backend=ExecutionBackend.COMPILED),
    )
    assert compiled == scalar


def test_compiled_matches_scalar_adaptive():
    """Adaptive sampling ignores the backend value, estimate included.

    The phase classifier's decisions (which periods re-measure, which
    reuse) and the resulting per-phase estimate must be bit-identical,
    not just the machine counters and pooled means.
    """
    sampling = SamplingConfig(mode="adaptive", detail=500, gap=1500,
                              warmup=300, func_warm=500,
                              phase_threshold=0.3)
    runs = {}
    for backend in (ExecutionBackend.SCALAR, ExecutionBackend.COMPILED):
        simulator = ParrotSimulator(model_config("TON"))
        runs[backend] = simulator.simulate(
            application("swim"),
            RunOptions(sampling=sampling, backend=backend, estimate=True),
            length=30_000,
        )
    scalar, compiled = (runs[ExecutionBackend.SCALAR],
                        runs[ExecutionBackend.COMPILED])
    assert compiled.result.to_dict() == scalar.result.to_dict()
    assert compiled.estimate.intervals == scalar.estimate.intervals
    assert compiled.estimate.ipc.mean == scalar.estimate.ipc.mean
    assert compiled.estimate.epi.mean == scalar.estimate.epi.mean
    assert len(compiled.estimate.phases) == len(scalar.estimate.phases)
    for c_phase, s_phase in zip(compiled.estimate.phases,
                                scalar.estimate.phases):
        assert (c_phase.phase, c_phase.periods, c_phase.measured,
                c_phase.closed, c_phase.reused) == (
            s_phase.phase, s_phase.periods, s_phase.measured,
            s_phase.closed, s_phase.reused)
        assert c_phase.ipc.mean == s_phase.ipc.mean
        assert c_phase.epi.mean == s_phase.epi.mean

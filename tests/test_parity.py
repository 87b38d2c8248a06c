"""Parity gate: simulation results are pinned bit-for-bit against goldens.

Every hot-path optimization in this repo must leave ``SimulationResult``
unchanged — not approximately, *exactly*: the serialized ``to_dict()``
payload (which round-trips floats via ``repr``) must match the golden
JSON checked into ``tests/golden/``.  A diff here means an optimization
changed simulator semantics, however slightly, and must be fixed rather
than re-baselined.

When a change is *intended* to alter results (a modelling fix, a new
statistic), regenerate the goldens explicitly::

    python -m pytest tests/test_parity.py --update-golden

and review the resulting JSON diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import repro.core.simulator as simulator_module
from repro.core.simulator import ParrotSimulator, RunOptions
from repro.models.configs import model_config
from repro.pipeline.segment_batch import run_hot_training_sequential
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Pinned (application, model, length) runs: an FP app on the full PARROT
#: model (hot pipeline + optimizer), an integer app on the baseline (pure
#: cold path), and a mixed app on the wide optimized model.  Lengths are
#: small enough for test-suite latency but long enough to exercise trace
#: construction, optimization and hot execution.
PARITY_RUNS = [
    ("swim", "TON", 4000),
    ("gcc", "N", 4000),
    ("eon", "TOW", 4000),
]


def _golden_path(app_name: str, model_name: str, length: int) -> pathlib.Path:
    return GOLDEN_DIR / f"{app_name}_{model_name}_{length}.json"


def _simulate(app_name: str, model_name: str, length: int) -> dict:
    simulator = ParrotSimulator(model_config(model_name))
    return simulator.simulate(application(app_name), length=length).to_dict()


@pytest.mark.parametrize("app_name,model_name,length", PARITY_RUNS)
def test_result_parity(app_name, model_name, length, update_golden):
    payload = _simulate(app_name, model_name, length)
    path = _golden_path(app_name, model_name, length)

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"missing golden {path.name}; generate with "
        f"`python -m pytest tests/test_parity.py --update-golden`"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"{app_name}/{model_name}/{length}: result diverged from golden "
        f"{path.name} — an optimization changed simulator semantics "
        f"(only re-baseline for *intended* modelling changes)"
    )


def test_parity_is_deterministic():
    """The same pinned run twice in-process is bit-identical.

    Guards the premise of the golden files: any nondeterminism (dict
    ordering leaking into results, RNG state bleeding between runs) would
    make the parity gate flaky rather than meaningful.
    """
    app_name, model_name, length = PARITY_RUNS[0]
    first = _simulate(app_name, model_name, length)
    second = _simulate(app_name, model_name, length)
    assert first == second


# --------------------------------------------------------------------------
# Predictor-state parity: batched hot training vs the sequential reference.
# --------------------------------------------------------------------------

#: A sampled regime small enough for test latency that still exercises
#: every predictor-training path: functionally warmed fast-forward
#: (``warm_skip``), trace-machinery warmup, and detailed intervals whose
#: hot frames train the branch predictor through the batched plan.
_SAMPLING = SamplingConfig(detail=500, gap=4500, warmup=500, func_warm=1500)
_SAMPLED_LENGTH = 20_000


def _bpred_state(bpred) -> tuple:
    stats = bpred.stats
    return (
        bytes(bpred._counters), bpred._history, dict(bpred._btb),
        list(bpred._ras),
        (stats.cond_predictions, stats.cond_mispredictions,
         stats.indirect_predictions, stats.indirect_mispredictions,
         stats.return_predictions, stats.return_mispredictions),
    )


def _tpred_state(tpred) -> tuple | None:
    if tpred is None:
        return None
    stats = tpred.stats
    return (
        [[(entry.tid, entry.confidence) for entry in ways]
         for ways in tpred._table],
        list(tpred._history),
        (stats.lookups, stats.predictions, stats.correct,
         stats.mispredictions),
    )


def _predictor_states(app_name: str, model_name: str, *, sequential: bool):
    """Full predictor tables after a warm-skip sampled run.

    ``sequential=True`` swaps the batched hot-path trainer for the
    per-CTI reference loop — the oracle the batched path must match.
    Returns ``(bpred_state, tpred_state, hot_train_calls)``.
    """
    machines: list = []
    real_assemble = ParrotSimulator._assemble
    real_train = run_hot_training_sequential if sequential \
        else simulator_module.run_hot_training
    calls = [0]

    def capturing_assemble(self, **kwargs):
        machine = real_assemble(self, **kwargs)
        machines.append(machine)
        return machine

    def counting_train(bpred, plan, instructions):
        calls[0] += 1
        return real_train(bpred, plan, instructions)

    patcher = pytest.MonkeyPatch()
    try:
        patcher.setattr(ParrotSimulator, "_assemble", capturing_assemble)
        patcher.setattr(simulator_module, "run_hot_training", counting_train)
        simulator = ParrotSimulator(model_config(model_name))
        simulator.simulate(
            application(app_name),
            RunOptions(sampling=_SAMPLING),
            length=_SAMPLED_LENGTH,
        )
    finally:
        patcher.undo()
    assert len(machines) == 1
    machine = machines[0]
    return _bpred_state(machine.bpred), _tpred_state(machine.tpred), calls[0]


@pytest.mark.parametrize("app_name,model_name", [
    (app, model) for app, model, _length in PARITY_RUNS
])
def test_predictor_state_after_warm_skip_matches_sequential(
        app_name, model_name):
    """Batched training leaves predictor tables bit-identical.

    After ``warm_skip`` fast-forward plus detailed intervals, the gshare
    counters, global history, BTB, return-address stack, prediction stats
    and the trace predictor's full way table must equal those of a run
    whose hot segments train the branch predictor one CTI at a time.
    The golden gate pins aggregate results;
    this pins the *internal* state the batched trainer mutates, which
    aggregate counters could mask (e.g. compensating counter errors).
    """
    oracle_b, oracle_t, _ = _predictor_states(
        app_name, model_name, sequential=True
    )
    batched_b, batched_t, hot_trains = _predictor_states(
        app_name, model_name, sequential=False
    )
    assert batched_b == oracle_b
    assert batched_t == oracle_t
    if model_config(model_name).has_trace_cache:
        assert hot_trains > 0, (
            "sampled run never exercised the batched hot-path trainer — "
            "the parity assertion is vacuous"
        )

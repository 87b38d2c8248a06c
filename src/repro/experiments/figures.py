"""Regeneration of every table and figure of the paper's evaluation (§4).

Each ``fig4_*`` function runs (via the memoising
:class:`~repro.experiments.runner.ExperimentRunner`) exactly the models the
corresponding paper figure compares, and returns a :class:`FigureData`
whose rows/series mirror the paper's presentation: per-suite geometric
means, the overall mean, and (where the paper shows them) the three killer
applications flash, wupwise and perlbmk.

``EXPERIMENTS.md`` records the paper-reported value next to each measured
value; ``repro figure`` prints these tables, and its ``claims`` entry checks
the paper's shape claims (:mod:`repro.experiments.claims`) against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.results import SimulationResult
from repro.experiments.aggregate import (
    OVERALL,
    arithmetic_mean,
    by_suite,
    paired_ratio_by_suite,
)
from repro.experiments.claims import (
    ClaimOutcome,
    check_claims,
    claim_figures,
    format_claims,
)
from repro.experiments.runner import ExperimentRunner
from repro.models.configs import MODEL_NAMES, model_config
from repro.power.energy import COMPONENTS
from repro.workloads.suite import KILLER_APPS


@dataclass(slots=True)
class FigureData:
    """One regenerated table/figure: named series over named groups."""

    figure_id: str
    title: str
    #: series label -> (group label -> value)
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    #: how to render values: "percent", "ratio", "rate" or "value"
    unit: str = "percent"
    notes: str = ""

    def format(self) -> str:
        """Render as an aligned text table (the benchmark output)."""
        groups: list[str] = []
        for values in self.series.values():
            for group in values:
                if group not in groups:
                    groups.append(group)
        width = max((len(g) for g in groups), default=8) + 2
        lines = [f"{self.figure_id}: {self.title}"]
        header = " " * width + "".join(f"{label:>12}" for label in self.series)
        lines.append(header)
        for group in groups:
            row = f"{group:<{width}}"
            for values in self.series.values():
                value = values.get(group)
                if value is None:
                    row += f"{'-':>12}"
                elif self.unit == "percent":
                    row += f"{value:>+11.1%} "
                elif self.unit == "rate":
                    row += f"{value:>11.2f} "
                else:
                    row += f"{value:>11.3f} "
            lines.append(row)
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _killer_rows(
    test: list[SimulationResult],
    base: list[SimulationResult],
    metric,
) -> dict[str, float]:
    base_by_name = {r.app_name: r for r in base}
    rows = {}
    for r in test:
        if r.app_name in KILLER_APPS:
            b = base_by_name[r.app_name]
            rows[r.app_name] = metric(r) / metric(b) - 1.0
    return rows


def _improvement_figure(
    runner: ExperimentRunner,
    figure_id: str,
    title: str,
    metric,
    *,
    invert: bool = False,
    include_killers: bool = True,
) -> FigureData:
    """Shared shape of Figures 4.1-4.3: extensions vs same-width baselines."""
    apps = runner.applications()
    baselines = {"TN": "N", "TON": "N", "TW": "W", "TOW": "W"}
    fig = FigureData(figure_id=figure_id, title=title)
    for model, base in baselines.items():
        test_results = runner.results(model, apps)
        base_results = runner.results(base, apps)
        rows = paired_ratio_by_suite(test_results, base_results, metric)
        if include_killers:
            rows.update(_killer_rows(test_results, base_results, metric))
        fig.series[f"{model}/{base}"] = rows
    return fig


def fig4_1(runner: ExperimentRunner) -> FigureData:
    """Figure 4.1: IPC improvement over the baseline of the same width."""
    fig = _improvement_figure(
        runner, "Figure 4.1", "IPC improvement over same-width baseline",
        lambda r: r.ipc,
    )
    fig.notes = "paper: TN~+2%, TW~+7%, TON~+17%, TOW~+25% (overall geomeans)"
    return fig


def fig4_2(runner: ExperimentRunner) -> FigureData:
    """Figure 4.2: increased energy consumption over the same-width baseline."""
    fig = _improvement_figure(
        runner, "Figure 4.2", "Energy increase over same-width baseline",
        lambda r: r.total_energy, include_killers=False,
    )
    fig.notes = (
        "paper: TN~+1%, TON~+3% over N; TOW ~-18% over W; TW +12% "
        "(baseline ambiguity documented in EXPERIMENTS.md)"
    )
    return fig


def fig4_3(runner: ExperimentRunner) -> FigureData:
    """Figure 4.3: improved power-awareness (CMPW) over same-width baseline."""
    fig = _improvement_figure(
        runner, "Figure 4.3", "CMPW improvement over same-width baseline",
        lambda r: r.point.cmpw, include_killers=False,
    )
    fig.notes = "paper: TON +32% over N, TOW +92% over W"
    return fig


def _extremes_figure(
    runner: ExperimentRunner, figure_id: str, title: str, metric
) -> FigureData:
    """Shared shape of Figures 4.4-4.6: {W, TON, TOW} relative to N."""
    apps = runner.applications()
    base_results = runner.results("N", apps)
    fig = FigureData(figure_id=figure_id, title=title)
    for model in ("W", "TON", "TOW"):
        fig.series[f"{model}/N"] = paired_ratio_by_suite(
            runner.results(model, apps), base_results, metric
        )
    return fig


def fig4_4(runner: ExperimentRunner) -> FigureData:
    """Figure 4.4: IPC of the extreme alternatives relative to N."""
    fig = _extremes_figure(
        runner, "Figure 4.4", "IPC relative to N", lambda r: r.ipc
    )
    fig.notes = "paper: TON slightly outperforms W; TOW ~+45% over N"
    return fig


def fig4_5(runner: ExperimentRunner) -> FigureData:
    """Figure 4.5: total energy of the extreme alternatives relative to N."""
    fig = _extremes_figure(
        runner, "Figure 4.5", "Energy relative to N", lambda r: r.total_energy
    )
    fig.notes = "paper: W ~+70% over N; TON ~39% below W (~+3% over N)"
    return fig


def fig4_6(runner: ExperimentRunner) -> FigureData:
    """Figure 4.6: power awareness (CMPW) of the extremes relative to N."""
    fig = _extremes_figure(
        runner, "Figure 4.6", "CMPW relative to N", lambda r: r.point.cmpw
    )
    fig.notes = "paper: TON +67% over W; TOW +51% over N"
    return fig


def fig4_7(runner: ExperimentRunner) -> FigureData:
    """Figure 4.7: front-end predictability — mispredictions per 1K instrs.

    Three series: the baseline N's branch mispredictions (4K-entry
    predictor), the PARROT TON machine's hot-trace mispredictions, and
    TON's cold-code branch mispredictions (2K+2K predictors), each per
    1000 instructions of the corresponding stream portion.
    """
    apps = runner.applications()
    n_results = runner.results("N", apps)
    ton_results = runner.results("TON", apps)
    fig = FigureData(
        figure_id="Figure 4.7",
        title="Mispredictions per 1K instructions",
        unit="rate",
    )
    fig.series["N branch"] = by_suite(
        n_results, lambda r: r.cold_mispredicts_per_kinstr, mean=arithmetic_mean
    )

    def trace_rate(r: SimulationResult) -> float:
        return 1000.0 * r.trace_mispredictions / max(r.instructions, 1)

    def cold_rate(r: SimulationResult) -> float:
        cold_instrs = r.instructions - r.hot_instructions
        return 1000.0 * r.cold_branch_mispredicts / max(cold_instrs, 1)

    fig.series["TON trace (hot)"] = by_suite(
        ton_results, trace_rate, mean=arithmetic_mean
    )
    fig.series["TON branch (cold)"] = by_suite(
        ton_results, cold_rate, mean=arithmetic_mean
    )
    fig.notes = (
        "paper shape: hot-trace rate < N branch rate < TON cold branch rate"
    )
    return fig


def fig4_8(runner: ExperimentRunner) -> FigureData:
    """Figure 4.8: coverage — fraction of instructions committed hot (TON)."""
    ton_results = runner.results("TON")
    fig = FigureData(
        figure_id="Figure 4.8", title="Coverage (TON)", unit="rate"
    )
    fig.series["coverage"] = by_suite(
        ton_results, lambda r: r.coverage, mean=arithmetic_mean
    )
    fig.notes = "paper: ~90% for SpecFP, 60-70% for SpecInt"
    return fig


def fig4_9(runner: ExperimentRunner) -> FigureData:
    """Figure 4.9: optimizer impact on TOW — uop and dependency reduction."""
    tow_results = runner.results("TOW")
    fig = FigureData(
        figure_id="Figure 4.9",
        title="Optimizer impact (TOW): executed-uop and dependency reduction",
        unit="rate",
    )
    fig.series["uop reduction"] = by_suite(
        tow_results, lambda r: r.uop_reduction, mean=arithmetic_mean
    )
    fig.series["dep reduction"] = by_suite(
        tow_results, lambda r: r.dependency_reduction, mean=arithmetic_mean
    )
    fig.notes = (
        "paper: ~19% average uop reduction, ~8% dependency reduction; "
        "dependency reduction relatively higher on SpecInt"
    )
    return fig


def fig4_10(runner: ExperimentRunner) -> FigureData:
    """Figure 4.10: utilization of optimizer work — reuse of optimized traces."""
    tow_results = runner.results("TOW")
    fig = FigureData(
        figure_id="Figure 4.10",
        title="Mean dynamic executions per optimized trace (TOW)",
        unit="rate",
    )
    fig.series["executions/trace"] = by_suite(
        tow_results,
        lambda r: r.trace_stats.mean_optimized_reuse,
        mean=arithmetic_mean,
    )
    fig.notes = "paper: highest reuse for SpecFP (trace-cache locality)"
    return fig


#: The three applications Figure 4.11 breaks down.
BREAKDOWN_APPS = ("flash", "swim", "gcc")
#: The three models Figure 4.11 compares.
BREAKDOWN_MODELS = ("N", "TON", "TOS")


def _energy_shares(result: SimulationResult) -> dict[str, float]:
    assert result.energy is not None
    return {
        component: result.energy.component_share(component)
        for component in COMPONENTS
        if result.energy.by_component.get(component, 0.0) > 0
    }


def fig4_11(runner: ExperimentRunner) -> FigureData:
    """Figure 4.11: energy breakdown by component for {N, TON, TOS}.

    Shown for flash, swim and gcc, as fractional shares of total energy,
    plus each model's mean shares over the whole roster (``Overall/<model>``).
    """
    fig = FigureData(
        figure_id="Figure 4.11",
        title="Energy breakdown (fraction of total)",
        unit="rate",
    )
    for app_name in BREAKDOWN_APPS:
        for model in BREAKDOWN_MODELS:
            fig.series[f"{app_name}/{model}"] = _energy_shares(
                runner.result(model, app_name)
            )
    for model in BREAKDOWN_MODELS:
        shares = [_energy_shares(r) for r in runner.results(model)]
        fig.series[f"{OVERALL}/{model}"] = {
            component: arithmetic_mean(s.get(component, 0.0) for s in shares)
            for component in COMPONENTS
            if any(component in s for s in shares)
        }
    fig.notes = (
        "paper shape: front-end share diminishes N -> TON -> TOS; trace "
        "manipulation ~10% of total"
    )
    return fig


def table3_1() -> str:
    """Table 3.1: the two-dimensional configuration space."""
    lines = [
        "Table 3.1: configuration space (width x trace-cache extension)",
        f"{'':10}{'base':>8}{'+TC':>8}{'+TC+opt':>10}",
        f"{'narrow':10}{'N':>8}{'TN':>8}{'TON':>10}",
        f"{'wide':10}{'W':>8}{'TW':>8}{'TOW':>10}",
        f"{'split':10}{'-':>8}{'-':>8}{'TOS':>10}",
    ]
    return "\n".join(lines)


def table3_2() -> str:
    """Table 3.2: microarchitectural settings of the seven models."""
    header = (
        f"{'model':6}{'rename':>7}{'issue':>6}{'rob':>5}{'win':>5}"
        f"{'depth':>6}{'bpred':>7}{'tpred':>7}{'tc_uops':>8}{'opt':>5}"
        f"{'split':>6}{'area':>6}"
    )
    lines = ["Table 3.2: microarchitectural settings", header]
    for name in MODEL_NAMES:
        config = model_config(name)
        core = config.core
        lines.append(
            f"{name:6}{core.rename_width:>7}{core.issue_width:>6}"
            f"{core.rob_size:>5}{core.window_size:>5}{core.front_depth:>6}"
            f"{config.bpred_entries:>7}"
            f"{config.tpred_entries if config.has_trace_cache else 0:>7}"
            f"{config.tcache_uops if config.has_trace_cache else 0:>8}"
            f"{'yes' if config.optimize_traces else 'no':>5}"
            f"{'yes' if config.is_split else 'no':>6}"
            f"{core.area + config.extra_area:>6.2f}"
        )
    return "\n".join(lines)


def headline(runner: ExperimentRunner) -> FigureData:
    """The abstract's headline claims, regenerated.

    * TON delivers better performance than N at comparable energy, while
      the conventional path to similar performance (W) costs ~70% more
      energy;
    * TOW delivers ~+45% IPC with a >50% CMPW improvement over N.
    """
    apps = runner.applications()
    n = runner.results("N", apps)
    fig = FigureData(figure_id="Headline", title="Abstract claims vs N")
    for model in ("W", "TON", "TOW"):
        rows = {}
        results = runner.results(model, apps)
        rows["IPC"] = paired_ratio_by_suite(results, n, lambda r: r.ipc)[OVERALL]
        rows["Energy"] = paired_ratio_by_suite(
            results, n, lambda r: r.total_energy
        )[OVERALL]
        rows["CMPW"] = paired_ratio_by_suite(
            results, n, lambda r: r.point.cmpw
        )[OVERALL]
        fig.series[model] = rows
    fig.notes = (
        "paper: TON up to ~+16% IPC at ~+3% energy; W ~+70% energy; "
        "TOW ~+45% IPC, >+50% CMPW"
    )
    return fig


@dataclass(slots=True)
class ClaimsFigure(FigureData):
    """The claims table checked against one grid; renders as a text report."""

    outcomes: list[ClaimOutcome] = field(default_factory=list)

    def format(self) -> str:
        return format_claims(self.outcomes)


def claims(runner: ExperimentRunner) -> ClaimsFigure:
    """Every row of :data:`~repro.experiments.claims.CLAIMS` on this grid.

    The full-sweep report: ``repro figure claims --apps all``.  The
    ``measured`` series carries each claim's checked quantity.
    """
    figures = {
        name: FIGURE_GENERATORS[name](runner) for name in claim_figures()
    }
    outcomes = check_claims(figures)
    fig = ClaimsFigure(
        figure_id="Claims", title="the paper's shape claims", unit="value",
        outcomes=outcomes,
    )
    fig.series["measured"] = {
        o.claim.id: o.value for o in outcomes if o.value is not None
    }
    return fig


#: All per-figure generators keyed by their experiment id (DESIGN.md index).
FIGURE_GENERATORS = {
    "fig4_1": fig4_1,
    "fig4_2": fig4_2,
    "fig4_3": fig4_3,
    "fig4_4": fig4_4,
    "fig4_5": fig4_5,
    "fig4_6": fig4_6,
    "fig4_7": fig4_7,
    "fig4_8": fig4_8,
    "fig4_9": fig4_9,
    "fig4_10": fig4_10,
    "fig4_11": fig4_11,
    "headline": headline,
    "claims": claims,
}

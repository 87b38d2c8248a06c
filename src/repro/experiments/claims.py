"""The paper's shape claims as one declarative table, and their checker.

Every qualitative result of §4 the reproduction must keep — TON beats N at
comparable energy, W costs ~70% more energy, TOW is the fastest machine,
SpecFP coverage exceeds SpecInt's, ... — is one :class:`Claim` row: the
figure it reads (a :data:`~repro.experiments.figures.FIGURE_GENERATORS`
key), the series and group, a relation with its bound, and the paper's
value as text.  A row may compare its value with another figure value
instead of with zero, by difference or by ratio.

:func:`check_claims` evaluates rows against regenerated figures.  The
tier-1 suite gates every row on a 15-application x 20k-instruction grid,
and ``repro figure claims`` prints the same table at any scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.experiments.aggregate import OVERALL

#: A figure value: (figure id, series label, group label).
Ref = tuple[str, str, str]

#: Relation -> test of (measured value, bound).
RELATIONS = {
    ">": lambda value, bound: value > bound,
    "<": lambda value, bound: value < bound,
    "|x|<": lambda value, bound: abs(value) < bound,
    "between": lambda value, bound: bound[0] < value < bound[1],
}


@dataclass(frozen=True, slots=True)
class Claim:
    """One paper claim: ``figure/series[key]`` must satisfy ``relation``.

    With ``than`` set the measured quantity is the value minus the ``than``
    value (``by="-"``) or the ratio of the two as improvements over the same
    baseline, ``(1 + value) / (1 + than) - 1`` (``by="/"``).
    """

    id: str
    figure: str
    series: str
    key: str
    relation: str
    bound: float | tuple[float, float]
    paper: str
    than: Ref | None = None
    by: str = "-"

    def refs(self) -> list[Ref]:
        """Every figure value the claim reads."""
        own = (self.figure, self.series, self.key)
        return [own] if self.than is None else [own, self.than]

    def expression(self) -> str:
        """The checked condition, e.g. ``TON/N[Overall] - TN/N[Overall] > +0.000``."""
        quantity = f"{self.series}[{self.key}]"
        if self.than is not None:
            figure, series, key = self.than
            other = f"{series}[{key}]"
            if figure != self.figure:
                other = f"{figure}:{other}"
            quantity = (f"{quantity} - {other}" if self.by == "-"
                        else f"(1+{quantity})/(1+{other})-1")
        if self.relation == "between":
            low, high = self.bound
            return f"{low:+.3f} < {quantity} < {high:+.3f}"
        if self.relation == "|x|<":
            return f"|{quantity}| < {self.bound:.3f}"
        return f"{quantity} {self.relation} {self.bound:+.3f}"


@dataclass(frozen=True, slots=True)
class ClaimOutcome:
    """One claim checked against one set of figures."""

    claim: Claim
    #: The measured quantity; ``None`` when a figure lacks a group the
    #: claim reads (a suite absent from a small application subset).
    value: float | None

    @property
    def held(self) -> bool:
        if self.value is None:
            return False
        return RELATIONS[self.claim.relation](self.value, self.claim.bound)

    @property
    def status(self) -> str:
        if self.value is None:
            return "n/a"
        return "ok" if self.held else "FAIL"

    def message(self) -> str:
        """Why the claim holds or fails, naming figure, bound and paper value."""
        claim = self.claim
        measured = "missing" if self.value is None else f"{self.value:+.3f}"
        return (f"{claim.id} ({claim.figure}): {claim.expression()}; "
                f"measured {measured}; paper: {claim.paper}")


def _rows(figure: str, rows) -> list[Claim]:
    return [Claim(f"{figure}.{name}", figure, *row) for name, *row in rows]


#: Every claim, by figure.  Bounds are shape bands, not the paper's
#: magnitudes: the grid simulates 20k instructions per application where
#: the paper ran 30-100M (see EXPERIMENTS.md, Known deviations).
CLAIMS: tuple[Claim, ...] = (
    *_rows("fig4_1", [
        ("ton_over_tn", "TON/N", OVERALL, ">", 0.0, "TON ~+17% vs TN ~+2%",
         ("fig4_1", "TN/N", OVERALL)),
        ("tow_over_tw", "TOW/W", OVERALL, ">", 0.0, "TOW ~+25% vs TW ~+7%",
         ("fig4_1", "TW/W", OVERALL)),
        ("tn_modest", "TN/N", OVERALL, "between", (-0.02, 0.15), "~+2%"),
        ("tw_neutral", "TW/W", OVERALL, ">", -0.02, "~+7%"),
        ("ton_gain", "TON/N", OVERALL, ">", 0.05, "~+17%"),
        ("tow_gain", "TOW/W", OVERALL, ">", 0.04, "~+25%"),
    ]),
    *_rows("fig4_2", [
        ("tn_energy", "TN/N", OVERALL, "|x|<", 0.2, "~+1%"),
        ("tow_saves", "TOW/W", OVERALL, "<", 0.0, "~-18%"),
        ("tow_below_tw", "TOW/W", OVERALL, "<", 0.0, "TOW ~-18% vs TW +12%",
         ("fig4_2", "TW/W", OVERALL)),
    ]),
    *_rows("fig4_3", [
        ("ton_cmpw", "TON/N", OVERALL, ">", 0.10, "+32%"),
        ("tow_cmpw", "TOW/W", OVERALL, ">", 0.10, "+92%"),
        ("ton_over_tn", "TON/N", OVERALL, ">", 0.0,
         "optimization beats the trace cache alone",
         ("fig4_3", "TN/N", OVERALL)),
        ("tow_over_tw", "TOW/W", OVERALL, ">", 0.0,
         "optimization beats the trace cache alone",
         ("fig4_3", "TW/W", OVERALL)),
    ]),
    *_rows("fig4_4", [
        ("w_gain", "W/N", OVERALL, ">", 0.0, "widening helps"),
        ("ton_near_w", "TON/N", OVERALL, ">", -0.08,
         "TON slightly outperforms W", ("fig4_4", "W/N", OVERALL)),
        ("tow_gain", "TOW/N", OVERALL, ">", 0.0, "~+45%"),
        ("tow_over_ton", "TOW/N", OVERALL, ">", 0.0, "TOW is the fastest",
         ("fig4_4", "TON/N", OVERALL)),
        ("tow_over_tn", "TOW/N", OVERALL, ">", 0.0, "TOW is the fastest",
         ("fig4_1", "TN/N", OVERALL)),
    ]),
    *_rows("fig4_5", [
        ("w_energy", "W/N", OVERALL, ">", 0.40, "~+70%"),
        ("ton_energy", "TON/N", OVERALL, "|x|<", 0.20, "~+3%"),
        ("ton_below_w", "TON/N", OVERALL, "<", -0.40,
         "W ~+70% vs TON ~+3%", ("fig4_5", "W/N", OVERALL)),
        ("ton_over_w", "TON/N", OVERALL, "<", -0.25, "TON ~39% below W",
         ("fig4_5", "W/N", OVERALL), "/"),
    ]),
    *_rows("fig4_6", [
        ("w_cmpw", "W/N", OVERALL, "<", 0.0, "widening hurts power awareness"),
        ("ton_over_w", "TON/N", OVERALL, ">", 0.30, "TON +67% over W",
         ("fig4_6", "W/N", OVERALL)),
        ("tow_over_w", "TOW/N", OVERALL, ">", 0.10, "TOW >+50% vs W <0",
         ("fig4_6", "W/N", OVERALL)),
    ]),
    *_rows("fig4_7", [
        ("hot_below_n", "TON trace (hot)", OVERALL, "<", 0.0,
         "hot trace < N branch", ("fig4_7", "N branch", OVERALL)),
        ("n_below_cold", "N branch", OVERALL, "<", 0.0,
         "N branch < TON cold branch", ("fig4_7", "TON branch (cold)", OVERALL)),
    ]),
    *_rows("fig4_8", [
        ("fp_over_int", "coverage", "SpecFP", ">", 0.0, "~0.90 vs 0.60-0.70",
         ("fig4_8", "coverage", "SpecInt")),
        ("fp", "coverage", "SpecFP", ">", 0.6, "~0.90"),
        ("int", "coverage", "SpecInt", "between", (0.2, 0.9), "0.60-0.70"),
    ]),
    *_rows("fig4_9", [
        ("uop", "uop reduction", OVERALL, ">", 0.08, "~19%"),
        ("dep", "dep reduction", OVERALL, ">", 0.0, "~8%"),
    ]),
    *_rows("fig4_10", [
        ("reuse", "executions/trace", OVERALL, ">", 3.0,
         "optimized traces are executed many times each"),
        ("fp_over_int", "executions/trace", "SpecFP", ">", 0.0,
         "highest reuse for SpecFP", ("fig4_10", "executions/trace", "SpecInt")),
    ]),
    *_rows("fig4_11", [
        *(row
          for app in ("flash", "swim", "gcc")
          for row in (
              (f"{app}.ton_frontend", f"{app}/TON", "frontend", "<", 0.0,
               "front-end share shrinks N -> TON",
               ("fig4_11", f"{app}/N", "frontend")),
              (f"{app}.tos_frontend", f"{app}/TOS", "frontend", "<", 0.0,
               "front-end share shrinks N -> TOS",
               ("fig4_11", f"{app}/N", "frontend")),
              (f"{app}.trace_unit", f"{app}/TON", "trace_unit", "<", 0.30,
               "trace manipulation ~10% of total"),
          )),
        ("mean_frontend", f"{OVERALL}/TON", "frontend", "<", 0.0,
         "front-end share shrinks N -> TON",
         ("fig4_11", f"{OVERALL}/N", "frontend")),
    ]),
)


def claim_figures(claims: Iterable[Claim] = CLAIMS) -> list[str]:
    """The figure ids the claims read, in first-use order."""
    return list(dict.fromkeys(ref[0] for claim in claims for ref in claim.refs()))


def _lookup(figures: Mapping[str, Any], ref: Ref) -> float | None:
    figure, series, key = ref
    return figures[figure].series.get(series, {}).get(key)


def check_claims(
    figures: Mapping[str, Any], claims: Iterable[Claim] = CLAIMS
) -> list[ClaimOutcome]:
    """Evaluate ``claims`` against ``figures`` (figure id -> FigureData)."""
    outcomes = []
    for claim in claims:
        values = [_lookup(figures, ref) for ref in claim.refs()]
        value = None
        if None not in values:
            value = values[0]
            if claim.than is not None:
                other = values[1]
                value = value - other if claim.by == "-" else (
                    (1.0 + value) / (1.0 + other) - 1.0
                )
        outcomes.append(ClaimOutcome(claim, value))
    return outcomes


def format_claims(outcomes: list[ClaimOutcome]) -> str:
    """Render checked claims as an aligned text table plus a verdict line."""
    width = max(len(o.claim.id) for o in outcomes) + 2
    lines = ["Claims: the paper's shape claims on this grid"]
    for outcome in outcomes:
        claim = outcome.claim
        measured = "-" if outcome.value is None else f"{outcome.value:+.3f}"
        lines.append(f"{claim.id:<{width}}{outcome.status:>5} {measured:>9}  "
                     f"{claim.expression()}  (paper: {claim.paper})")
    failing = [o.claim.id for o in outcomes if not o.held]
    verdict = f"{len(outcomes) - len(failing)} of {len(outcomes)} claims hold"
    if failing:
        verdict += "; not held: " + ", ".join(failing)
    lines.append(verdict)
    return "\n".join(lines)

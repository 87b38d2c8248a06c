"""The paper's shape claims, gated on one 15-application x 20k grid.

Every row of :data:`repro.experiments.claims.CLAIMS` is one test, so a
failure names its claim.  One module-scoped runner serves every figure the
table reads; invariants that hold at any scale live beside the figure tests
in ``test_experiments.py``.
"""

import pytest

from repro.experiments.aggregate import OVERALL
from repro.experiments.claims import (
    CLAIMS,
    Claim,
    check_claims,
    claim_figures,
    format_claims,
)
from repro.experiments.figures import FIGURE_GENERATORS, FigureData
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def figures():
    runner = ExperimentRunner(length=20_000, max_apps=15)
    return {name: FIGURE_GENERATORS[name](runner) for name in claim_figures()}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, figures):
    [outcome] = check_claims(figures, [claim])
    assert outcome.held, outcome.message()


def test_every_suite_sheds_uops(figures):
    """Fig 4.9: the optimizer removes uops on every suite, never adds them."""
    uop = figures["fig4_9"].series["uop reduction"]
    assert all(value >= 0.0 for value in uop.values()), uop


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


class TestChecker:
    def test_violation_names_figure_series_bound_and_paper(self):
        claim = next(c for c in CLAIMS if c.id == "fig4_5.w_energy")
        fig = FigureData("Figure 4.5", "Energy relative to N")
        fig.series["W/N"] = {OVERALL: 0.10}
        [outcome] = check_claims({"fig4_5": fig}, [claim])
        assert not outcome.held and outcome.status == "FAIL"
        message = outcome.message()
        for part in ("fig4_5", "W/N[Overall]", "> +0.400", "+0.100",
                     "paper: ~+70%"):
            assert part in message, (part, message)
        assert format_claims([outcome]).endswith(
            "0 of 1 claims hold; not held: fig4_5.w_energy"
        )

    def test_missing_group_fails_as_not_applicable(self):
        claim = next(c for c in CLAIMS if c.id == "fig4_8.fp_over_int")
        fig = FigureData("Figure 4.8", "Coverage (TON)", unit="rate")
        fig.series["coverage"] = {"SpecInt": 0.5, OVERALL: 0.5}
        [outcome] = check_claims({"fig4_8": fig}, [claim])
        assert outcome.value is None and not outcome.held
        assert outcome.status == "n/a" and "measured missing" in outcome.message()

    def test_comparisons_by_difference_and_ratio(self):
        fig = FigureData("F", "t")
        fig.series["a"] = {OVERALL: -0.10}
        fig.series["b"] = {OVERALL: 0.50}
        other = ("f", "b", OVERALL)
        difference = Claim("f.d", "f", "a", OVERALL, "<", -0.55, "p", other)
        ratio = Claim("f.r", "f", "a", OVERALL, "between", (-0.41, -0.39),
                      "p", other, "/")
        held = [o.held for o in check_claims({"f": fig}, [difference, ratio])]
        assert held == [True, True]  # -0.6 < -0.55; 0.9 / 1.5 - 1 = -0.4

"""The execution-backend selector.

The module keeps its historical name because external callers import
:class:`ExecutionBackend` from ``repro.pipeline.columnar``.
"""

from __future__ import annotations

from enum import Enum


class ExecutionBackend(Enum):
    """A run option that no longer selects anything.

    Both members run the one executor: hot traces replay on
    :meth:`~repro.pipeline.core.TimingCore.run_hot_plan` and cold
    segments on :meth:`~repro.pipeline.core.TimingCore.run_cold_plan`,
    both pinned against :meth:`~repro.pipeline.core.TimingCore.run_uop`
    and the golden results.  The enum stays, with both members, because
    the benchmark passes ``COMPILED``; it retires in ROADMAP item 2,
    step 1.
    """

    SCALAR = "scalar"
    COMPILED = "compiled"

"""The execution-backend selector.

The module keeps its historical name because external callers import
:class:`ExecutionBackend` from ``repro.pipeline.columnar``.
"""

from __future__ import annotations

from enum import Enum


class ExecutionBackend(Enum):
    """Which executor replays hot traces.

    ``SCALAR`` is the default and the reference semantics: the row-replay
    path of :class:`~repro.pipeline.core.TimingCore`, itself pinned
    against :meth:`~repro.pipeline.core.TimingCore.run_uop` and the golden
    results.  ``COMPILED`` replays each hot trace through a generated
    function (:mod:`repro.pipeline.specialize`); it is bit-identical to
    ``SCALAR``.  Cold segments replay on the scalar cold plan under both.
    """

    SCALAR = "scalar"
    COMPILED = "compiled"

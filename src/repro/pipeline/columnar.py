"""The execution-backend selector.

The module keeps its historical name because external callers import
:class:`ExecutionBackend` from ``repro.pipeline.columnar``.
"""

from __future__ import annotations

from enum import Enum


class ExecutionBackend(Enum):
    """Which batch executor evaluates planned segments.

    ``SCALAR`` is the default and the reference semantics: the row-replay
    path of :class:`~repro.pipeline.core.TimingCore`, itself pinned
    against :meth:`~repro.pipeline.core.TimingCore.run_uop` and the golden
    results.  ``COMPILED`` replays per-plan generated functions
    (:mod:`repro.pipeline.specialize`); it is bit-identical to ``SCALAR``
    and pays off once its plans are warm (in memory or on disk).
    """

    SCALAR = "scalar"
    COMPILED = "compiled"

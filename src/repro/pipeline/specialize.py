"""Hot-trace specialization: the ``compiled`` execution backend.

The scalar hot executor (:meth:`~repro.pipeline.core.TimingCore.
run_hot_plan`) replays the dispatch/issue/commit recurrence as a
*generic* sequential CPython loop: per uop it unpacks a nine-field row,
re-resolves register ids against the register file, looks up the FU
issue triple and branches on properties that are static per plan.  This
module compiles each hot trace's plan into a dedicated Python function
instead.  Cold segments are not specialized: like PARROT's cold
pipeline they run too few times to repay the compile, so every backend
replays them on the scalar cold plan
(:func:`~repro.core.simulator.compile_cold_plan`).

* **dependency wake-up as precomputed links** — for every uop the
  compiler resolves which *in-segment* producers (by uop index) and which
  *carried-in* architectural registers gate its readiness
  (:func:`_dependency_links`), so the register file is written back once
  per segment (each register's last in-segment writer);
* **straight-line specialization** — one generated code block per uop,
  with the dispatch base, latency, ring sizes, widths and the commit
  step baked in as literals (hot plans are machine-private), producer
  wake-up unrolled to local-variable reads (``c17``), carried-in
  register reads hoisted to function entry (sound because in-segment
  register-file writes are deferred to the last-writer epilogue), and
  memory/branch bindings hoisted into a tiny wrapper prologue that
  preserves the exact scalar probe order;
* **content-keyed caching** — generated sources are loaded through a
  memory LRU keyed by ``sha256(SCHEMA_VERSION + source)`` plus an
  on-disk cache of marshalled code objects under
  ``$REPRO_CACHE_DIR/compiled`` (invalidated by ``SCHEMA_VERSION`` and
  the interpreter's bytecode magic; corrupt or stale entries are
  quarantined).

The generated code performs the scalar recurrence operation for
operation, so results are bit-identical to the scalar backend — pinned
by the parity suite.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import struct
import types
from collections import OrderedDict
from pathlib import Path

from repro.cache import DiskCache
from repro.isa.opcodes import FuClass
from repro.isa.registers import NUM_ARCH_REGS, REG_NONE
from repro.pipeline.core import _PRUNE_INTERVAL, compile_plan_stats
from repro.pipeline.resources import ExecProfile

# SCHEMA_VERSION lives in repro.core.results; imported lazily where used
# to keep this module import-light for the generated-code hot path.


def _schema_version() -> int:
    from repro.core.results import SCHEMA_VERSION

    return SCHEMA_VERSION


# --------------------------------------------------------------------------
# Content-keyed loader: memory LRU + on-disk code-object cache.
# --------------------------------------------------------------------------

_FILE_PREFIX = b"RPSC"
_MEMORY_LIMIT = 512

#: Memory LRU of materialized hot-trace replay functions, keyed by
#: content hash.  Ordered least- to most-recently used; shared by every
#: simulator in the process (engine workers each hold their own copy).
_MEMORY: OrderedDict[str, object] = OrderedDict()

#: Loader statistics for hot plans (the only plans that are generated):
#: compiles vs memory/disk hits, plus whole-plan memo hits (codegen
#: skipped entirely, not just the compile step).
LOADER_STATS = {"compiles": 0, "memory_hits": 0, "disk_hits": 0,
                "plan_hits": 0}

_PLAN_MEMO_LIMIT = 512

#: Whole-plan memo for hot traces, keyed by (rows, fetch grouping, core
#: geometry).  Traces are rebuilt per run, but their planned rows — and
#: therefore the generated source and probe plan — are
#: pure functions of this key, so repeat runs skip codegen outright
#: (string assembly costs real time for a 2000-line source even when the
#: compile step hits the source LRU).
_PLAN_MEMO: OrderedDict[tuple, tuple] = OrderedDict()

#: Globals shared by every generated module: the FuClass members under
#: stable positional names, so disk-cached code objects never depend on
#: the environment that generated them.
_EXEC_GLOBALS = {f"FU_{int(fu)}": fu for fu in FuClass}


def _header() -> bytes:
    return (_FILE_PREFIX + importlib.util.MAGIC_NUMBER
            + struct.pack("<I", _schema_version()))


class CompiledPlanCache(DiskCache):
    """On-disk cache of marshalled replay code objects.

    One ``<root>/<key[:2]>/<key>.rpc`` file per generated source (default
    root ``$REPRO_CACHE_DIR/compiled``) under the shared
    :class:`~repro.cache.DiskCache` contract.  An entry is stale — and
    quarantined like a corrupt one — when its header does not match this
    interpreter's bytecode magic and the current ``SCHEMA_VERSION``;
    either invalidates every generated source.  Writes are best effort.
    """

    name = "plans"
    subdir = "compiled"
    suffix = ".rpc"

    @property
    def schema_version(self) -> int:
        return _schema_version()

    def decode(self, path: Path):
        blob = path.read_bytes()
        header = _header()
        if not blob.startswith(header):
            raise ValueError(f"{path}: stale or foreign header")
        code = marshal.loads(blob[len(header):])
        if not isinstance(code, types.CodeType):
            # marshal is not self-validating: a truncated or flipped body
            # can decode "successfully" into an arbitrary object, which
            # would blow up in exec() far from the cause.
            raise ValueError(f"{path}: body is not a code object")
        return code

    def store(self, key: str, code) -> None:
        """Persist a compiled code object; a failed write is ignored."""
        blob = _header() + marshal.dumps(code)
        try:
            self.write(key, lambda tmp: tmp.write_bytes(blob))
        except OSError:
            pass


def source_key(source: str) -> str:
    """Content key of a generated source (schema-versioned)."""
    material = f"{_schema_version()}\n{source}"
    return hashlib.sha256(material.encode()).hexdigest()


def load_replay(source: str):
    """Materialize a generated replay function, through the cache stack.

    Memory LRU first, then the disk cache of marshalled code objects,
    then ``compile()``.  The pseudo-filename
    ``<repro-compiled:HASH>`` is stable across processes (it is derived
    from the content key), so profiler attribution and disk-cached code
    objects agree.
    """
    key = source_key(source)
    fn = _MEMORY.get(key)
    if fn is not None:
        _MEMORY.move_to_end(key)
        LOADER_STATS["memory_hits"] += 1
        return fn
    disk = CompiledPlanCache()
    code = disk.read(key)
    if code is not None:
        LOADER_STATS["disk_hits"] += 1
    else:
        code = compile(source, f"<repro-compiled:{key[:16]}>", "exec")
        LOADER_STATS["compiles"] += 1
        disk.store(key, code)
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    fn = namespace["replay"]
    _MEMORY[key] = fn
    if len(_MEMORY) > _MEMORY_LIMIT:
        _MEMORY.popitem(last=False)
    return fn


# --------------------------------------------------------------------------
# Code generation.
# --------------------------------------------------------------------------

def _dependency_links(rows: list) -> tuple[list, list, tuple]:
    """Resolve per-uop wake-up structure from planned rows.

    Returns ``(producers, carried, last_writers)``:

    * ``producers[k]`` — tuple of earlier uop indices whose completion
      gates uop ``k`` (one entry per source register last written inside
      the segment), or ``None`` when empty;
    * ``carried[k]`` — tuple of register-file indices uop ``k`` reads from
      the carried-in state (sources with no earlier in-segment writer),
      or ``None`` when empty;
    * ``last_writers`` — ``((reg, k), ...)``: each register's last
      in-segment writer, the only ``reg_ready`` updates that survive the
      segment.

    Source indices are normalised to the register-file cell the scalar
    executor actually reads (``reg_ready[s]`` with a negative ``s`` wraps
    in CPython), so packed extra sources alias bit-identically.
    """
    writer: dict[int, int] = {}
    writer_get = writer.get
    producers: list[tuple | None] = []
    carried: list[tuple | None] = []
    for k, (_fu, _lat, src1, src2, extra, dest, dest2, _mem, _origin) in enumerate(rows):
        prods: list[int] = []
        carry: list[int] = []
        if src1 != REG_NONE:
            j = writer_get(src1)
            if j is None:
                carry.append(src1)
            else:
                prods.append(j)
        if src2 != REG_NONE:
            j = writer_get(src2)
            if j is None:
                carry.append(src2)
            else:
                prods.append(j)
        if extra:
            for src in extra:
                cell = src if src >= 0 else src + NUM_ARCH_REGS
                j = writer_get(cell)
                if j is None:
                    carry.append(cell)
                else:
                    prods.append(j)
        producers.append(tuple(prods) if prods else None)
        carried.append(tuple(carry) if carry else None)
        if dest != REG_NONE:
            writer[dest] = k
        if dest2 != REG_NONE:
            writer[dest2] = k
    return producers, carried, tuple(writer.items())


def _fu_name(fu: FuClass) -> str:
    return f"fu{int(fu)}"


def _emit_wakeup(parts: list[str], prods, carry) -> None:
    if prods is not None:
        for j in prods:
            parts.append(f"    if c{j} > ready:\n        ready = c{j}\n")
    if carry is not None:
        for reg in carry:
            parts.append(f"    if g{reg} > ready:\n        ready = g{reg}\n")


def _emit_issue(parts: list[str], fu: FuClass, issue_width: int,
                fu_width: int, start: str) -> None:
    if fu is FuClass.NONE:
        parts.append(
            f"    cycle = {start}\n"
            "    while True:\n"
            "        used = issue_get(cycle, 0)\n"
            f"        if used < {issue_width}:\n"
            "            break\n"
            "        cycle += 1\n"
            "    issue_slots[cycle] = used + 1\n"
        )
    else:
        name = _fu_name(fu)
        parts.append(
            f"    cycle = {start}\n"
            "    while True:\n"
            "        used = issue_get(cycle, 0)\n"
            f"        if used < {issue_width}:\n"
            f"            fu_used = {name}_get(cycle, 0)\n"
            f"            if fu_used < {fu_width}:\n"
            "                break\n"
            "        cycle += 1\n"
            "    issue_slots[cycle] = used + 1\n"
            f"    {name}_slots[cycle] = fu_used + 1\n"
        )


def _wrap_lines(idx: str, size: int) -> str:
    """Ring-index advance: a mask when the size is a power of two."""
    if size > 0 and not (size & (size - 1)):
        return f"    {idx} = ({idx} + 1) & {size - 1}\n"
    return (
        f"    {idx} += 1\n"
        f"    if {idx} == {size}:\n"
        f"        {idx} = 0\n"
    )


def _emit_commit(parts: list[str], k: int, step: float, rob_size: int,
                 win_size: int) -> None:
    parts.append(
        f"    commit = commit_time + {step!r}\n"
        f"    if c{k} + 1 > commit:\n"
        f"        commit = c{k} + 1.0\n"
        "    commit_time = commit\n"
        "    rob_ring[rob_idx] = commit\n"
        + _wrap_lines("rob_idx", rob_size)
        + "    win_ring[win_idx] = cycle\n"
        + _wrap_lines("win_idx", win_size)
    )


def _emit_epilogue(parts: list[str], last_writers, n: int, n_groups: int,
                   n_reads: int, n_writes: int, fu_counts) -> None:
    for reg, j in last_writers:
        parts.append(f"    reg_ready[{reg}] = c{j}\n")
    parts.append(
        f"    core.fetch_cycle = fetch0 + {n_groups}\n"
        "    core._last_dispatch = last_dispatch\n"
        "    core._disp_cycle = disp_cycle\n"
        "    core._disp_used = disp_used\n"
        "    core._rob_idx = rob_idx\n"
        "    core._win_idx = win_idx\n"
        "    core._commit_time = commit_time\n"
        f"    core._n_src_reads += {n_reads}\n"
        f"    core._n_dest_writes += {n_writes}\n"
    )
    if fu_counts:
        parts.append("    n_exec = core._n_exec\n")
        for fu, count in fu_counts:
            parts.append(f"    n_exec[FU_{int(fu)}] += {count}\n")
    parts.append(
        f"    core.uops_executed += {n}\n"
        f"    core._since_prune += {n}\n"
        f"    if core._since_prune >= {_PRUNE_INTERVAL}:\n"
        "        core._prune_slots()\n"
    )


def _hot_source(rows: list, per_cycle: int, front_depth: int,
                profile: ExecProfile, rob_size: int, win_size: int) -> str:
    """Generate the straight-line hot replay source for one plan.

    Everything machine-specific is baked as a literal: hot plans live in
    one machine's trace cache and always execute under its hot profile.
    ``mem_lats`` carries the effective latency of each load uop (override
    or static), computed by the wrapper in exact scalar probe order.
    """
    n = len(rows)
    producers, carried, last_writers = _dependency_links(rows)
    _n_uops, n_reads, n_writes, fu_counts = compile_plan_stats(rows)
    n_groups = -(-n // per_cycle) if n else 0
    issue_width = profile.issue_width
    rename_width = profile.rename_width
    step = 1.0 / profile.commit_width
    fu_widths = profile.fu_counts

    used_fus = sorted(
        {row[0] for row in rows if row[0] is not FuClass.NONE}, key=int
    )
    load_ks = [k for k, row in enumerate(rows) if row[7] == 1]
    carried_regs = sorted(
        {reg for carry in carried if carry for reg in carry}
    )

    parts: list[str] = [
        "def replay(core, mem_lats):\n"
        "    fetch0 = core.fetch_cycle\n"
        "    reg_ready = core.reg_ready\n"
        "    last_dispatch = core._last_dispatch\n"
        "    disp_cycle = core._disp_cycle\n"
        "    disp_used = core._disp_used\n"
        "    rob_ring = core._rob_ring\n"
        "    rob_idx = core._rob_idx\n"
        "    win_ring = core._win_ring\n"
        "    win_idx = core._win_idx\n"
        "    commit_time = core._commit_time\n"
        "    issue_slots = core._issue_slots\n"
        "    issue_get = issue_slots.get\n"
        "    fu_lookup = core._fu_lookup\n"
    ]
    for fu in used_fus:
        name = _fu_name(fu)
        parts.append(
            f"    {name}_slots, {name}_get, _ = fu_lookup[FU_{int(fu)}]\n"
        )
    if load_ks:
        targets = ", ".join(f"l{k}" for k in load_ks)
        parts.append(f"    {targets}, = mem_lats\n")
    for reg in carried_regs:
        parts.append(f"    g{reg} = reg_ready[{reg}]\n")

    prev_offset = None
    for k, row in enumerate(rows):
        fu, latency = row[0], row[1]
        offset = k // per_cycle + 1 + front_depth
        if offset == prev_offset:
            # Same fetch group: the previous uop dispatched at or above
            # this very base, so max(base, last_dispatch) IS
            # last_dispatch.
            base_lines = "    dispatch = last_dispatch\n"
        else:
            base_lines = (
                f"    dispatch = fetch0 + {offset}\n"
                "    if last_dispatch > dispatch:\n"
                "        dispatch = last_dispatch\n"
            )
        prev_offset = offset
        parts.append(
            base_lines
            # ROB-full is rare in steady state: compare in place and only
            # touch the ring a second time on the binding path.
            + "    if rob_ring[rob_idx] > dispatch:\n"
            "        dispatch = int(rob_ring[rob_idx]) + 1\n"
            "    win_gate = win_ring[win_idx]\n"
            "    if win_gate > dispatch:\n"
            "        dispatch = win_gate\n"
            "    if dispatch > disp_cycle:\n"
            "        disp_cycle = dispatch\n"
            "        disp_used = 0\n"
            "    else:\n"
            "        dispatch = disp_cycle\n"
            f"    if disp_used >= {rename_width}:\n"
            "        disp_cycle += 1\n"
            "        disp_used = 0\n"
            "        dispatch = disp_cycle\n"
            "    disp_used += 1\n"
            "    last_dispatch = dispatch\n"
        )
        # Dependency-free uops start probing directly from dispatch + 1;
        # the ``ready`` accumulator only exists to take wakeup maxes.
        if producers[k] or carried[k]:
            parts.append("    ready = dispatch + 1\n")
            _emit_wakeup(parts, producers[k], carried[k])
            start = "ready"
        else:
            start = "dispatch + 1"
        _emit_issue(parts, fu, issue_width, fu_widths.get(fu, 1), start)
        lat_expr = f"l{k}" if row[7] == 1 else str(latency)
        parts.append(f"    c{k} = cycle + {lat_expr}\n")
        _emit_commit(parts, k, step, rob_size, win_size)

    _emit_epilogue(parts, last_writers, n, n_groups, n_reads, n_writes,
                   fu_counts)
    return "".join(parts)


# --------------------------------------------------------------------------
# Plan compiler + run wrapper (the backend surface the simulator uses).
# --------------------------------------------------------------------------

def compile_hot_specialized(rows: list, per_cycle: int, params) -> tuple:
    """Compile a hot trace's planned rows into a specialized plan.

    ``params`` is the owning machine's :class:`CoreParams` — hot plans
    always execute under the hot profile derived from it, so its widths
    are baked into the generated source.  Layout::

        (replay_fn, probes)

    ``probes`` is ``((origin, mem_code, default_latency), ...)`` in uop
    order — the wrapper's hierarchy-order-preserving prologue.

    Whole plans are memoized on ``(rows, grouping, geometry)``: traces
    are rebuilt every run, but the plan is a pure function of the
    planned rows, so repeat runs skip codegen.
    """
    profile = ExecProfile.from_params(params)
    key = (tuple(rows), per_cycle, params.front_depth, params.rob_size,
           params.window_size, profile.rename_width, profile.issue_width,
           profile.commit_width,
           tuple(sorted((int(f), w) for f, w in profile.fu_counts.items())))
    memo = _PLAN_MEMO
    plan = memo.get(key)
    if plan is not None:
        memo.move_to_end(key)
        LOADER_STATS["plan_hits"] += 1
        return plan
    source = _hot_source(rows, per_cycle, params.front_depth, profile,
                         params.rob_size, params.window_size)
    fn = load_replay(source)
    probes = tuple(
        (row[8], row[7], row[1]) for row in rows if row[7]
    )
    plan = (fn, probes)
    memo[key] = plan
    if len(memo) > _PLAN_MEMO_LIMIT:
        memo.popitem(last=False)
    return plan


_EMPTY: list = []


def run_hot_compiled(core, plan: tuple, instructions: list,
                     load_latency, store_access) -> None:
    """Specialized twin of :meth:`TimingCore.run_hot_plan`.

    The prologue probes memory in recorded uop order (the hierarchy
    sees exactly the scalar probe sequence), then the generated function
    replays the timing recurrence with the collected load latencies.
    """
    fn, probes = plan
    if probes:
        mem_lats = []
        append = mem_lats.append
        for origin, code, default in probes:
            dyn = instructions[origin]
            addr = dyn.mem_addr
            if addr is None:
                addr = dyn.instr.address
            if code == 1:
                append(load_latency(addr) or default)
            else:
                store_access(addr)
    else:
        mem_lats = _EMPTY
    fn(core, mem_lats)

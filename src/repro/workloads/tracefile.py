"""Compiled trace artifacts: record a dynamic stream once, replay it often.

The paper's simulators are *trace-driven*: they replay recorded execution
traces of real applications (§3).  Every machine model of an application
walks the bit-identical generated stream, so the experiment engine
compiles each (app, seed, length) stream once — :func:`compile_artifact`
— into a content-keyed directory under the artifact cache
(``~/.cache/repro/artifacts`` beside the result store,
:class:`ArtifactCache`) and replays it for every grid cell:

    >>> from repro.workloads import application
    >>> from repro.workloads.tracefile import ArtifactCache
    >>> artifact = ArtifactCache().get_or_compile(application("swim"), 100_000)
    >>> result = ParrotSimulator(config).simulate(artifact)

An artifact stores the static image of every *executed* instruction
(addresses, lengths, classes, complete uop encodings), the dynamic record
(instruction index, branch outcome, successor, effective memory address)
and the *full* program prewarm image (all static code addresses and data
ranges, in program order), so an artifact-driven run starts from the
exact hierarchy state a generator-driven run would.  The dynamic record
is a flat uncompressed ``.npy`` loaded with ``mmap_mode="r"``, so
parallel pool workers replaying the same application share its pages
through the page cache instead of each re-walking the stream.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil

import numpy as np

from repro.cache import DiskCache
from repro.errors import WorkloadError
from repro.isa.instruction import DynamicInstruction, MacroInstruction, Uop
from repro.isa.opcodes import (
    FLOW_CALL,
    FLOW_COND_BRANCH,
    FLOW_DIRECT_JUMP,
    FLOW_INDIRECT_JUMP,
    FLOW_RETURN,
    FLOW_SOFTWARE_INT,
    InstrClass,
    UopKind,
)
from repro.workloads.stream import _DYN_CTI_FLOWS, InstructionStream

#: Compiled-trace-artifact format version.  Part of the artifact key, so
#: bumping it silently invalidates every cached artifact (same mechanism
#: as the result store's schema version).
ARTIFACT_SCHEMA_VERSION = 1

#: Sentinel for "no memory access" in the mem-address column.
_NO_MEM = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: Sentinel for "no immediate" in the uop imm column.
_NO_IMM = np.int64(-(1 << 62))


def _static_arrays(statics: list[MacroInstruction]) -> dict[str, "np.ndarray"]:
    """Encode a static-instruction table as the on-disk column arrays."""
    uop_rows: list[tuple[int, int, int, int, int]] = []
    uop_offsets = [0]
    for instr in statics:
        for uop in instr.uops:
            uop_rows.append(
                (
                    int(uop.kind),
                    uop.dest,
                    uop.src1,
                    uop.src2,
                    uop.imm if uop.imm is not None else int(_NO_IMM),
                )
            )
        uop_offsets.append(len(uop_rows))
    return {
        "s_addr": np.array([i.address for i in statics], dtype=np.uint64),
        "s_len": np.array([i.length for i in statics], dtype=np.uint8),
        "s_class": np.array([int(i.iclass) for i in statics], dtype=np.uint8),
        "s_target": np.array(
            [i.taken_target if i.taken_target is not None else 0
             for i in statics],
            dtype=np.uint64,
        ),
        "s_has_target": np.array(
            [i.taken_target is not None for i in statics], dtype=np.bool_
        ),
        "uops": np.array(uop_rows, dtype=np.int64).reshape(-1, 5),
        "uop_offsets": np.array(uop_offsets, dtype=np.int64),
    }


def _decode_statics(data) -> list[MacroInstruction]:
    """Rebuild the static-instruction table from the column arrays.

    Reconstructed uops are interned per row, so two instructions sharing a
    decode template share one :class:`~repro.isa.instruction.Uop` object —
    the same flyweight discipline as
    :func:`~repro.isa.decoder.decode_template` (immutable by convention;
    mutating consumers copy first).
    """
    # Materialize every column exactly once: an NpzFile re-reads (and
    # decompresses) the full member on every subscript, so per-row
    # ``data[...]`` access is quadratic in disguise.
    addresses = data["s_addr"].tolist()
    lengths = data["s_len"].tolist()
    classes = data["s_class"].tolist()
    targets = data["s_target"].tolist()
    has_targets = data["s_has_target"].tolist()
    uop_rows = data["uops"].tolist()
    uop_offsets = data["uop_offsets"].tolist()
    no_imm = int(_NO_IMM)
    interned: dict[tuple, Uop] = {}
    instructions = []
    for i, address in enumerate(addresses):
        uops = []
        for row in uop_rows[uop_offsets[i]:uop_offsets[i + 1]]:
            row = tuple(row)
            uop = interned.get(row)
            if uop is None:
                uop = Uop(
                    UopKind(row[0]), row[1], row[2], row[3],
                    None if row[4] == no_imm else row[4],
                )
                interned[row] = uop
            uops.append(uop)
        instructions.append(
            MacroInstruction(
                address=address,
                length=lengths[i],
                iclass=InstrClass(classes[i]),
                uops=tuple(uops),
                taken_target=targets[i] if has_targets[i] else None,
            )
        )
    return instructions


#: Dynamic-record row layout of an artifact's ``dyn.npy`` (one row per
#: dynamic instruction; ``mem`` uses :data:`_NO_MEM` for "no access").
_DYN_DTYPE = np.dtype([
    ("index", np.uint32),
    ("taken", np.bool_),
    ("next", np.uint64),
    ("mem", np.uint64),
])

#: Instructions pulled per bulk step while compiling an artifact.
_COMPILE_BATCH = 4096

def artifact_key(app_name: str, seed: int, length: int) -> str:
    """Content key of one compiled stream in the artifact cache.

    Covers everything the generated stream is a function of — the
    application, its generator seed and the run length — plus the artifact
    format version, so a format change can never serve stale bytes.
    """
    material = "|".join((
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"app={app_name}",
        f"seed={seed}",
        f"length={length}",
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ArtifactReplayWalker:
    """Replay an artifact's dynamic record through the walker interface.

    Implements the same bulk surface as
    :class:`~repro.workloads.stream.StreamWalker` — ``next_batch``,
    ``skip`` and ``warm_skip`` — so an
    :class:`~repro.workloads.stream.InstructionStream` over it behaves
    bit-identically to one over the generating walker, in both the
    full-detail and the sampled regime.  There is no RNG and no call stack
    to evolve: every outcome is already recorded, so ``skip`` is a cursor
    move and ``warm_skip`` replays only the warming side effects (icache
    probe per new line, predictor training per dynamic CTI, dcache touch
    per memory access — the exact effect order of
    :meth:`~repro.workloads.stream.StreamWalker.warm_skip`).
    """

    __slots__ = (
        "_artifact", "_instructions", "_index", "_taken", "_next", "_mem",
        "_addresses", "_raw", "_dyn_cti", "_pos", "_total",
    )

    def __init__(self, artifact: "TraceArtifact"):
        self._artifact = artifact
        self._instructions = artifact.instructions
        self._index, self._taken, self._next, self._mem = artifact._columns()
        self._addresses = artifact._address_table()
        self._raw = artifact._dyn
        self._dyn_cti = None
        self._pos = 0
        self._total = len(artifact)

    def next_batch(self, count: int) -> list[DynamicInstruction]:
        """Decode ``count`` recorded instructions in one call, in order.

        Iterates C-level ``zip`` over column slices rather than indexing
        four lists per row — measurably faster on the bulk-replay path.
        """
        i = self._pos
        end = min(i + count, self._total)
        if end <= i:
            return []
        instructions = self._instructions
        no_mem = int(_NO_MEM)
        dyn_instr = DynamicInstruction
        out = [
            dyn_instr(instructions[s], t, n, None if m == no_mem else m)
            for s, t, n, m in zip(
                self._index[i:end],
                self._taken[i:end],
                self._next[i:end],
                self._mem[i:end],
            )
        ]
        self._pos = end
        return out

    def raw_batch(self, count: int):
        """Consume up to ``count`` rows without decoding them.

        Returns ``(lo, index)`` — the global row number of the first
        consumed row plus its static-table index column slice — without
        building any :class:`DynamicInstruction`.  The columnar-warmup
        fast path pairs this with :meth:`select_tables`,
        :meth:`warm_effects` and :meth:`materialize`.
        """
        i = self._pos
        end = min(i + count, self._total)
        self._pos = end
        return i, self._index[i:end]

    def materialize(self, lo: int, hi: int) -> list[DynamicInstruction]:
        """Decode recorded rows ``[lo, hi)`` independently of the cursor."""
        instructions = self._instructions
        no_mem = int(_NO_MEM)
        dyn_instr = DynamicInstruction
        return [
            dyn_instr(instructions[s], t, n, None if m == no_mem else m)
            for s, t, n, m in zip(
                self._index[lo:hi],
                self._taken[lo:hi],
                self._next[lo:hi],
                self._mem[lo:hi],
            )
        ]

    def select_tables(self):
        """What columnar selection reads: ``(addresses, scan)``.

        ``addresses`` is the per-static address table (indexed by the
        ``index`` column) and ``scan`` the whole-record scan tables of
        :meth:`TraceArtifact._scan_tables`.  Both are shared per artifact,
        so the vectorized pass is paid once and every warmup window of
        every run over the same artifact reuses it.
        """
        return self._addresses, self._artifact._scan_tables()

    def skip(self, count: int, profile: dict | None = None) -> int:
        """Advance the cursor; no state to evolve, so this is O(1).

        With ``profile``, the skipped rows are additionally scanned as
        numpy columns and the resolved successors of dynamic CTIs
        (:data:`~repro.workloads.stream._DYN_CTI_FLOWS`) accumulate into
        the mapping — count-identical to a profiled
        :meth:`~repro.workloads.stream.StreamWalker.skip` over the same
        window, which the sampled store keys rely on (they do not encode
        whether a run replayed an artifact).
        """
        i = self._pos
        n = min(count, self._total - i)
        end = i + n
        if profile is not None and n:
            dyn_cti = self._dyn_cti
            if dyn_cti is None:
                dyn_cti = np.array(
                    [instr.flow_code in _DYN_CTI_FLOWS
                     for instr in self._instructions],
                    dtype=np.bool_,
                )
                self._dyn_cti = dyn_cti
            rows = self._raw[i:end]
            targets = rows["next"][dyn_cti[rows["index"]]]
            if targets.size:
                values, counts = np.unique(targets, return_counts=True)
                get = profile.get
                for value, c in zip(values.tolist(), counts.tolist()):
                    profile[value] = get(value, 0) + c
        self._pos = end
        return n

    def warm_skip(self, count: int, fetch, touch, train,
                  line_shift: int = 6) -> int:
        """Cursor-advance ``count`` records, replaying warming effects.

        Matches the generating walker's per-instruction effect order —
        icache ``fetch`` on a new line, predictor ``train`` for dynamic
        CTIs (software interrupts fall through untrained, exactly like the
        walker's remapped plans), then dcache ``touch`` — with the
        last-probed line reset per call.
        """
        i = self._pos
        end = min(i + count, self._total)
        if end <= i:
            return 0
        self._replay_warm(i, end, fetch, touch, train, line_shift, -1,
                          trainable_gate=True, touch_last=True)
        self._pos = end
        return end - i

    def warm_effects(self, lo: int, hi: int, fetch, touch, train,
                     line_shift: int, last_line: int = -1) -> int:
        """Replay the trace-warmup window's warming effects for rows
        ``[lo, hi)`` independently of the cursor.

        The columnar-warmup counterpart of the per-instruction loop in
        :meth:`~repro.sampling.warmup.WarmupPolicy.warm`: icache ``fetch``
        on a new line, dcache ``touch`` per access, then ``train`` for
        every CTI (``is_cti`` gate, not the skip path's ``trainable``).
        ``last_line`` carries the last-probed icache line across batches
        of one window; the updated value is returned.
        """
        return self._replay_warm(lo, hi, fetch, touch, train, line_shift,
                                 last_line, trainable_gate=False,
                                 touch_last=False)

    def _replay_warm(self, i: int, end: int, fetch, touch, train,
                     line_shift: int, last_line: int, *,
                     trainable_gate: bool, touch_last: bool) -> int:
        """Replay warming side effects for rows ``[i, end)``, compressed.

        The per-row scan is vectorized: one numpy pass computes which
        rows fire any warming effect (new icache line, trainable CTI,
        memory access) and the Python loop then visits only those rows —
        typically around half the window.  Within a row the effect order
        is exact: ``fetch``, then ``train``/``touch`` in the order the
        mirrored reference loop uses (``touch_last`` selects the skip
        path's fetch-train-touch or the warmup window's
        fetch-touch-train).  Returns the line of the last scanned row.
        """
        n = end - i
        if n <= 0:
            return last_line
        raw = self._raw[i:end]
        idx = raw["index"]
        addr_np, trainable_np, cti_np = self._artifact._warm_np_tables()
        lines = addr_np[idx] >> line_shift
        newline = np.empty(n, dtype=np.bool_)
        newline[0] = last_line < 0 or int(lines[0]) != last_line
        np.not_equal(lines[1:], lines[:-1], out=newline[1:])
        train_mask = (trainable_np if trainable_gate else cti_np)[idx]
        mem_mask = raw["mem"] != _NO_MEM
        events = np.flatnonzero(newline | train_mask | mem_mask)
        index = self._index
        taken = self._taken
        nxt = self._next
        mem = self._mem
        instructions = self._instructions
        addresses = self._addresses
        if touch_last:
            for j, new, tr, mm in zip(
                events.tolist(),
                newline[events].tolist(),
                train_mask[events].tolist(),
                mem_mask[events].tolist(),
            ):
                g = i + j
                if new:
                    fetch(addresses[index[g]])
                if tr:
                    train(instructions[index[g]], taken[g], nxt[g])
                if mm:
                    touch(mem[g])
        else:
            for j, new, tr, mm in zip(
                events.tolist(),
                newline[events].tolist(),
                train_mask[events].tolist(),
                mem_mask[events].tolist(),
            ):
                g = i + j
                if new:
                    fetch(addresses[index[g]])
                if mm:
                    touch(mem[g])
                if tr:
                    train(instructions[index[g]], taken[g], nxt[g])
        return int(lines[-1])


class TraceArtifact:
    """A loaded compiled trace artifact: static image + mmap'd dyn record.

    The static instruction table and the program prewarm image are decoded
    eagerly (they are tiny); the dynamic record stays a memory-mapped
    structured array until first replay, when its columns are decoded once
    and cached for every subsequent stream over the same artifact.
    """

    __slots__ = (
        "path", "app_name", "suite", "seed", "length",
        "instructions", "prewarm_code", "prewarm_data",
        "_dyn", "_cols", "_addrs", "_warm_np", "_scan",
        "_segments", "_cold_plans",
    )

    def __init__(self, path, *, app_name, suite, seed, length,
                 instructions, prewarm_code, prewarm_data, dyn):
        self.path = path
        self.app_name = app_name
        self.suite = suite
        self.seed = seed
        self.length = length
        self.instructions = instructions
        self.prewarm_code = prewarm_code
        self.prewarm_data = prewarm_data
        self._dyn = dyn
        self._cols = None
        self._addrs = None
        self._warm_np = None
        self._scan = None
        self._segments = None
        self._cold_plans = {}

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "TraceArtifact":
        """Load one artifact directory written by :func:`compile_artifact`.

        Raises :class:`~repro.errors.WorkloadError` on a schema mismatch
        or a record-count mismatch (a torn or foreign directory); plain
        ``OSError``/``ValueError`` propagate for missing or undecodable
        files, so callers can treat any failure as a cache miss.
        """
        directory = pathlib.Path(directory)
        meta = json.loads((directory / "meta.json").read_text())
        if meta.get("schema") != ARTIFACT_SCHEMA_VERSION:
            raise WorkloadError(
                f"artifact {directory}: schema {meta.get('schema')} "
                f"unsupported (expected {ARTIFACT_SCHEMA_VERSION})"
            )
        with np.load(directory / "static.npz") as data:
            instructions = _decode_statics(data)
            prewarm_code = data["pw_code"].tolist()
            prewarm_data = list(
                zip(data["pw_base"].tolist(), data["pw_extent"].tolist())
            )
        dyn = np.load(directory / "dyn.npy", mmap_mode="r")
        if dyn.dtype != _DYN_DTYPE or len(dyn) != meta["length"]:
            raise WorkloadError(
                f"artifact {directory}: dynamic record does not match its "
                f"metadata ({len(dyn)} rows, {meta['length']} expected)"
            )
        return cls(
            directory,
            app_name=meta["app"], suite=meta["suite"],
            seed=meta["seed"], length=meta["length"],
            instructions=instructions,
            prewarm_code=prewarm_code, prewarm_data=prewarm_data,
            dyn=dyn,
        )

    def __len__(self) -> int:
        return self.length

    def _columns(self) -> tuple[list, list, list, list]:
        """Dynamic-record columns as plain-int lists (decoded once)."""
        if self._cols is None:
            dyn = self._dyn
            self._cols = (
                dyn["index"].tolist(),
                dyn["taken"].tolist(),
                dyn["next"].tolist(),
                dyn["mem"].tolist(),
            )
        return self._cols

    def _address_table(self) -> list[int]:
        """Per-static instruction addresses, indexed by static-table index."""
        if self._addrs is None:
            self._addrs = [instr.address for instr in self.instructions]
        return self._addrs

    def _warm_np_tables(self):
        """Per-static numpy tables for vectorized warm replay.

        ``(addresses, trainable, cti)`` indexed by static-table index:
        the address vector feeds the icache-line scan, ``trainable``
        gates :meth:`ArtifactReplayWalker.warm_skip` training and ``cti``
        gates the trace-warmup window's training (every CTI class,
        mirroring ``MacroInstruction.is_cti``).  ``trainable`` mirrors the
        generating walker's plan compilation: flow codes 1-5 train the
        branch predictor, software interrupts (flow code 6) are remapped
        to plain fall-through and never train.
        """
        if self._warm_np is None:
            flow = [instr.flow_code for instr in self.instructions]
            self._warm_np = (
                np.array(self._address_table(), dtype=np.uint64),
                np.array([1 <= code <= 5 for code in flow], dtype=np.bool_),
                np.array([code != 0 for code in flow], dtype=np.bool_),
            )
        return self._warm_np

    def _scan_tables(self):
        """Whole-record selection-scan tables (boundary-jumping warmup).

        ``(cum_uops, ctrl_rows, ctrl_kinds, cond_rows, cond_taken)``:
        the cumulative uop count per row (capacity boundaries fall out of
        one ``searchsorted``), the rows whose flow can close a base or
        move the call-context counter — calls (kind 0), returns (1),
        backward-taken branches and backward direct jumps (2), indirect
        jumps (3) and software interrupts (4) — and the conditional-branch
        rows with their taken flags (the direction-string bits).  All of
        it is a pure function of the recorded stream, computed vectorized
        once per loaded artifact and shared by every scan over it.
        """
        if self._scan is None:
            statics = self.instructions
            dyn = self._dyn
            idx = dyn["index"]
            code = np.array(
                [instr.flow_code for instr in statics], dtype=np.int8
            )[idx]
            taken = dyn["taken"]
            backward = dyn["next"] <= np.array(
                self._address_table(), dtype=np.uint64
            )[idx]
            is_cond = code == FLOW_COND_BRANCH
            kind = np.full(len(dyn), -1, dtype=np.int8)
            kind[code == FLOW_CALL] = 0
            kind[code == FLOW_RETURN] = 1
            kind[(is_cond & taken & backward)
                 | ((code == FLOW_DIRECT_JUMP) & backward)] = 2
            kind[code == FLOW_INDIRECT_JUMP] = 3
            kind[code == FLOW_SOFTWARE_INT] = 4
            ctrl = np.flatnonzero(kind >= 0)
            cond = np.flatnonzero(is_cond)
            uops = np.array(
                [instr.num_uops for instr in statics], dtype=np.int64
            )
            self._scan = (
                np.cumsum(uops[idx]).tolist(),
                ctrl.tolist(),
                kind[ctrl].tolist(),
                cond.tolist(),
                taken[cond].tolist(),
            )
        return self._scan

    def walker(self) -> ArtifactReplayWalker:
        """A fresh replay walker positioned at the first record."""
        return ArtifactReplayWalker(self)

    def stream(self, limit: int | None = None) -> InstructionStream:
        """Replay the artifact as an :class:`InstructionStream`."""
        return InstructionStream.from_artifact(self, limit)

    def segments(self) -> list:
        """The full record pre-partitioned into trace-shaped segments.

        Segmentation depends only on the recorded stream (never on the
        simulated machine), so the partition is computed once per loaded
        artifact and replayed by every full-detail run over it.  It lives
        as long as the artifact.  Callers must not mutate it.
        """
        if self._segments is None:
            from repro.core.simulator import segment_stream

            self._segments = list(segment_stream(self.stream()))
        return self._segments

    def cold_plans(self, key) -> dict:
        """The cold-plan dict that every model with fetch parameters
        ``key`` shares over :meth:`segments`.

        The simulator fills and reads it; the artifact only owns it.
        Within one partition a complete segment's TID fixes its
        instruction path, so a plan keyed by TID is valid for every model
        with the same fetch parameters.
        """
        return self._cold_plans.setdefault(key, {})


def compile_artifact(
    app,
    seed: int,
    length: int,
    *,
    root: str | pathlib.Path | None = None,
) -> TraceArtifact:
    """Walk ``app``'s stream once and persist it as a compiled artifact.

    ``app`` is an :class:`~repro.workloads.suite.Application` (or anything
    with ``name``/``suite``/``build()``); ``seed`` is its generator seed —
    part of the content key, so a seed change keys to a fresh artifact.
    The write is atomic (:meth:`ArtifactCache.write`), and a concurrent
    compiler racing on the same key simply loses the rename and loads the
    winner's bytes.  Returns the loaded artifact.
    """
    cache = ArtifactCache(root)
    key = artifact_key(app.name, seed, length)
    cached = cache.read(key)
    if cached is not None:
        return cached

    workload = app.build()
    program = workload.program
    stream = workload.stream(length)
    static_index: dict[int, int] = {}
    statics: list[MacroInstruction] = []
    dyn = np.empty(length, dtype=_DYN_DTYPE)
    no_mem = int(_NO_MEM)
    row = 0
    while True:
        batch = stream.take_batch(_COMPILE_BATCH)
        if not batch:
            break
        for record in batch:
            instr = record.instr
            address = instr.address
            index = static_index.get(address)
            if index is None:
                index = len(statics)
                static_index[address] = index
                statics.append(instr)
            mem = record.mem_addr
            dyn[row] = (index, record.taken, record.next_address,
                        no_mem if mem is None else mem)
            row += 1
    if row != length:
        raise WorkloadError(
            f"artifact compile of {app.name}: stream ended after {row} of "
            f"{length} instructions"
        )

    def fill(tmp: pathlib.Path) -> None:
        shutil.rmtree(tmp, ignore_errors=True)  # a dead namesake's leftover
        tmp.mkdir()
        np.savez_compressed(
            tmp / "static.npz",
            **_static_arrays(statics),
            pw_code=np.array(
                list(program.instructions.keys()), dtype=np.uint64
            ),
            pw_base=np.array(
                [spec.base for spec in program.mem_specs.values()],
                dtype=np.uint64,
            ),
            pw_extent=np.array(
                [spec.extent for spec in program.mem_specs.values()],
                dtype=np.uint64,
            ),
        )
        np.save(tmp / "dyn.npy", dyn)
        (tmp / "meta.json").write_text(json.dumps(
            {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "app": app.name,
                "suite": app.suite,
                "seed": seed,
                "length": length,
                "statics": len(statics),
                "key": key,
            },
            sort_keys=True,
        ))

    cache.write(key, fill)
    return TraceArtifact.load(cache.path(key))


class ArtifactCache(DiskCache):
    """Content-keyed persistent cache of compiled trace artifacts.

    One directory per (app, seed, length) stream at
    ``<root>/<key[:2]>/<key>/`` (default root ``$REPRO_CACHE_DIR/artifacts``),
    under the shared :class:`~repro.cache.DiskCache` contract.  ``hits``
    counts artifacts served from disk, ``compiles`` counts fresh stream
    walks.
    """

    name = "artifacts"
    subdir = "artifacts"
    schema_version = ARTIFACT_SCHEMA_VERSION

    def __init__(self, root: str | pathlib.Path | None = None):
        super().__init__(root)
        self.hits = 0
        self.compiles = 0

    def decode(self, path: pathlib.Path) -> TraceArtifact:
        return TraceArtifact.load(path)

    def load(self, app_name: str, seed: int, length: int) -> TraceArtifact | None:
        """The cached artifact for one stream, or ``None`` on any miss."""
        artifact = self.read(artifact_key(app_name, seed, length))
        if artifact is not None:
            self.hits += 1
        return artifact

    def get_or_compile(self, app, length: int) -> TraceArtifact:
        """The artifact for ``app`` at ``length``, compiling on a miss."""
        cached = self.load(app.name, app.seed, length)
        if cached is not None:
            return cached
        artifact = compile_artifact(app, app.seed, length, root=self.root)
        self.compiles += 1
        return artifact

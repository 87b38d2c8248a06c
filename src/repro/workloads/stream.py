"""Dynamic instruction streams: the program walker and its budgeted wrapper.

The :class:`StreamWalker` interprets a static :class:`~repro.workloads.program.Program`
— resolving branch directions, indirect targets and memory addresses from
the program's behaviour specs — and produces an endless sequence of
:class:`~repro.isa.instruction.DynamicInstruction` records in batches,
exactly like the execution traces driving the paper's simulator.

The :class:`InstructionStream` bounds a walker (this one, or a recorded
artifact's replay walker) to a fixed instruction budget.  The simulator
consumes it in committed batches and fast-forwards it in skips; it never
looks ahead, because trace-prediction correctness is decided on the
committed segment.
"""

from __future__ import annotations

import random
from functools import partial

from repro.errors import WorkloadError
from repro.isa.instruction import DynamicInstruction
from repro.isa.opcodes import (
    FLOW_COND_BRANCH,
    FLOW_INDIRECT_JUMP,
    FLOW_RETURN,
    FLOW_SOFTWARE_INT,
)
from repro.workloads.behaviors import (
    make_branch_state,
    make_mem_state,
    make_switch_state,
)
from repro.workloads.program import Program

#: Flow codes whose outcome consumes dynamic state (conditional branch,
#: return, indirect jump).  Phase signatures count the resolved targets of
#: exactly these instructions: the set is a pure function of the
#: instruction sequence, so the generating walker and artifact replay
#: profile identically (see :mod:`repro.sampling.phases`).
_DYN_CTI_FLOWS = (FLOW_COND_BRANCH, FLOW_RETURN, FLOW_INDIRECT_JUMP)


class StreamWalker:
    """Deterministically execute a program image in batches of dynamic instructions.

    The walker owns one seeded RNG shared by all behaviour states, so a
    given ``(program, seed)`` pair always produces the identical stream.

    Interpretation is the innermost loop of every simulation, so the
    walker compiles each static instruction into a *plan* on first
    execution — flow-dispatch code, static targets and the bound
    behaviour-state methods — and replays the plan on every later visit,
    avoiding the enum chain and three dict probes per step.
    """

    __slots__ = (
        "program",
        "rng",
        "_branch_states",
        "_switch_states",
        "_mem_states",
        "_plans",
        "_skip_blocks",
        "_warm_blocks",
        "_warm_key",
        "_pc",
        "_call_stack",
    )

    #: A generating walker has no recorded columns to hand out, so
    #: :meth:`InstructionStream.consume_raw` declines it.
    raw_batch = None

    def __init__(self, program: Program, seed: int = 0):
        self.program = program
        self.rng = random.Random(seed)
        self._branch_states = {
            addr: make_branch_state(spec, self.rng)
            for addr, spec in program.branch_specs.items()
        }
        self._switch_states = {
            addr: make_switch_state(spec, self.rng)
            for addr, spec in program.switch_specs.items()
        }
        self._mem_states = {
            addr: make_mem_state(spec, self.rng)
            for addr, spec in program.mem_specs.items()
        }
        # address -> (instr, code, taken_target, fallthrough, next_taken,
        #             next_address, next_index, switch_targets), built lazily
        # so never-executed instructions cost nothing.
        self._plans: dict[int, tuple] = {}
        # address -> fused skip block (count, effects, exit_pc,
        # terminator_plan) (see _compile_skip_block), built lazily by
        # :meth:`skip`.
        self._skip_blocks: dict[int, tuple] = {}
        # Same idea with warming effects (see _compile_warm_block); valid
        # for one (fetch, train, line_shift) binding at a time.
        self._warm_blocks: dict[int, tuple] = {}
        self._warm_key: tuple | None = None
        self._pc = program.entry
        self._call_stack: list[int] = []

    def _compile_plan(self, instr) -> tuple:
        """Build the execution plan for one static instruction."""
        address = instr.address
        code = instr.flow_code
        if code == FLOW_SOFTWARE_INT:
            code = 0  # software interrupts fall through like plain instructions
        branch_state = self._branch_states.get(address)
        switch_state = self._switch_states.get(address)
        mem_state = self._mem_states.get(address)
        plan = (
            instr,
            code,
            instr.taken_target,
            instr.fallthrough,
            branch_state.next_taken if branch_state is not None else None,
            mem_state.next_address if mem_state is not None else None,
            switch_state.next_index if switch_state is not None else None,
            self.program.switch_targets.get(address),
        )
        self._plans[address] = plan
        return plan

    #: Skip-block compilation stops after this many instructions (bounds
    #: compile time on direct-jump cycles; a capped block simply chains
    #: into the next one).
    _SKIP_BLOCK_CAP = 128

    def _block_extent(self, start: int, on_static) -> tuple:
        """Walk the deterministic stretch of static control flow at ``start``.

        Follows plain instructions, direct jumps and calls — whose
        successors are static — calling ``on_static(pc, plan)`` for each,
        and stops at the first instruction whose outcome consumes dynamic
        state (conditional branch, return, indirect jump), at an unmapped
        address, or after :attr:`_SKIP_BLOCK_CAP` instructions.  Returns
        ``(count, exit_pc, terminator_plan)``: the terminator is the
        instruction at ``exit_pc``, stepped individually after the block,
        and its plan is ``None`` when ``exit_pc`` is unmapped.
        """
        plans_get = self._plans.get
        instructions = self.program.instructions
        pc = start
        n = 0
        while True:
            plan = plans_get(pc)
            if plan is None:
                instr = instructions.get(pc)
                if instr is None:
                    return n, pc, None
                plan = self._compile_plan(instr)
            code = plan[1]
            if code not in (0, 2, 3) or n == self._SKIP_BLOCK_CAP:
                return n, pc, plan
            on_static(pc, plan)
            pc = plan[3] if code == 0 else plan[2]
            n += 1

    def _compile_skip_block(self, start: int) -> tuple:
        """Compile the basic block at ``start`` for block-granular skipping.

        Returns ``(count, effects, exit_pc, terminator_plan)`` (see
        :meth:`_block_extent`): ``effects`` is the flat, ordered tuple of
        zero-argument side effects a walk of the ``count`` block
        instructions performs — a memory instruction's address draw (the
        behaviour state's bound ``next_address``) and a call's
        return-address push (``partial(call_stack.append, ret)``).
        Calling them in order keeps the shared RNG and the call stack
        bit-identical to an instruction-by-instruction walk, and carrying
        the terminator's plan lets one dict probe cover the block and the
        instruction that ends it.
        """
        push = self._call_stack.append
        effects: list = []

        def on_static(_pc, plan):
            if plan[1] == 3:  # FLOW_CALL: push the return address
                effects.append(partial(push, plan[3]))
            if plan[5] is not None:
                effects.append(plan[5])

        n, exit_pc, terminator = self._block_extent(start, on_static)
        block = (n, tuple(effects), exit_pc, terminator)
        self._skip_blocks[start] = block
        return block

    def _unmapped_error(self, pc: int) -> WorkloadError:
        """The fault of control flowing to ``pc``, which holds no instruction."""
        return WorkloadError(
            f"{self.program.name}: control flowed to unmapped address {pc:#x}"
        )

    def _empty_stack_error(self, pc: int) -> WorkloadError:
        """The fault of the return at ``pc`` finding no return address."""
        return WorkloadError(
            f"{self.program.name}: return with empty call stack at {pc:#x}"
        )

    def skip(self, count: int, profile: dict | None = None) -> int:
        """Advance ``count`` instructions without materialising them.

        The fast-forward path of the sampled simulator: identical control
        flow and behaviour-state evolution to :meth:`next_batch` (every
        branch/memory/switch draw is still made, in the same order, so
        the RNG stream and walker state stay bit-identical to a full
        walk), but :class:`~repro.isa.instruction.DynamicInstruction`
        records are allocated only for the final partial block.  The
        walk advances a *fused block* at a time: one dict probe yields
        the compiled basic block — its count, its flat tuple of
        zero-argument effects (address draws and call pushes), its exit
        address — and the plan of the dynamic instruction that ends it,
        which is then resolved inline.  Each behaviour draw is a single
        Python frame (see :mod:`repro.workloads.behaviors`).  Returns
        the number of instructions skipped (always ``count`` unless
        control flow faults).

        ``profile`` — a mutable mapping — additionally counts the resolved
        successor of every dynamic CTI (:data:`_DYN_CTI_FLOWS`) into it,
        the phase-signature observer of the adaptive sampler.  Dynamic
        CTIs are exactly the block terminators, so profiling adds no work
        to the block effects.
        """
        blocks_get = self._skip_blocks.get
        call_stack = self._call_stack
        pc = self._pc
        skipped = 0
        try:
            while True:
                block = blocks_get(pc)
                if block is None:
                    block = self._compile_skip_block(pc)
                n, effects, exit_pc, plan = block
                if skipped + n + 1 > count:
                    break
                pc = exit_pc
                if plan is None:
                    raise self._unmapped_error(pc)
                for effect in effects:
                    effect()
                skipped += n + 1
                code = plan[1]
                if code == 1:  # FLOW_COND_BRANCH
                    pc = plan[2] if plan[4]() else plan[3]
                elif code == 4:  # FLOW_RETURN
                    if not call_stack:
                        raise self._empty_stack_error(pc)
                    pc = call_stack.pop()
                elif code == 5:  # FLOW_INDIRECT_JUMP
                    pc = plan[7][plan[6]()]
                elif code == 3:  # FLOW_CALL (a capped block's terminator)
                    call_stack.append(plan[3])
                    pc = plan[2]
                elif code == 2:  # FLOW_DIRECT_JUMP
                    pc = plan[2]
                else:
                    pc = plan[3]
                if profile is not None and (code == 1 or code >= 4):
                    profile[pc] = profile.get(pc, 0) + 1
                if plan[5] is not None:
                    plan[5]()
        finally:
            self._pc = pc
        # The remainder is shorter than one block: walk it as records.
        tail = self.next_batch(count - skipped)
        if profile is not None:
            for dyn in tail:
                if dyn.instr.flow_code in _DYN_CTI_FLOWS:
                    target = dyn.next_address
                    profile[target] = profile.get(target, 0) + 1
        return skipped + len(tail)

    def _compile_warm_block(self, start: int, fetch, train,
                            line_shift: int) -> tuple:
        """Compile the basic block at ``start`` for warmed skipping.

        Same block and terminator as :meth:`_compile_skip_block`, with
        the warming work of a walk of the block folded in.  Returns
        ``(count, head_line, effects, exit_pc, terminator_plan,
        exit_line)``.  ``effects`` is the ordered tuple of
        ``(static, draw)`` pairs: a memory access is ``(None,
        next_address)`` and touches the drawn address; every other
        effect is a zero-argument ``static`` partial — an icache probe
        ``fetch(pc)``, a static CTI's ``train(instr, True, target)`` or
        a call's return-address push.

        Lines repeated within the block are filtered statically, so only
        the block's first line (``head_line``, the line of ``start``)
        needs the runtime check against the line probed last; a
        terminator on a new line gets a static probe of its own, and
        ``exit_line`` is the line probed last once the block and its
        terminator ran.
        """
        push = self._call_stack.append
        head_line = start >> line_shift
        prev_line = head_line
        effects: list[tuple] = []

        def on_static(pc, plan):
            nonlocal prev_line
            line = pc >> line_shift
            if line != prev_line:
                effects.append((partial(fetch, pc), None))
                prev_line = line
            if plan[1] == 3:  # FLOW_CALL
                effects.append((partial(push, plan[3]), None))
            if plan[1]:  # direct jump or call
                effects.append((partial(train, plan[0], True, plan[2]), None))
            if plan[5] is not None:
                effects.append((None, plan[5]))

        n, exit_pc, terminator = self._block_extent(start, on_static)
        exit_line = exit_pc >> line_shift
        if n and terminator is not None and exit_line != prev_line:
            effects.append((partial(fetch, exit_pc), None))
        block = (n, head_line, tuple(effects), exit_pc, terminator, exit_line)
        self._warm_blocks[start] = block
        return block

    def warm_skip(self, count: int, fetch, touch, train,
                  line_shift: int = 6) -> int:
        """:meth:`skip` with functional warming of caches and predictor.

        The sampled simulator's fast-forward with always-on warming
        (SMARTS-style): no :class:`DynamicInstruction` is allocated
        before the final partial block, but ``fetch(address)`` is probed
        once per new instruction-cache line (``line_shift`` = log2 of the
        line size), ``touch(mem_addr)`` once per memory access and
        ``train(instr, taken, next_address)`` once per CTI, so icache,
        dcache and branch-predictor state track the skipped stream.
        Behaviour-state evolution is bit-identical to :meth:`skip`, and
        so is the stepping: one dict probe yields a fused warm block
        (see :meth:`_compile_warm_block`) whose effects replay in order
        before its terminator resolves inline.  Warm blocks bind
        ``fetch`` and ``train``, so they are recompiled when either (or
        ``line_shift``) changes between calls.
        """
        key = (fetch, train, line_shift)
        if key != self._warm_key:
            self._warm_blocks.clear()
            self._warm_key = key
        blocks_get = self._warm_blocks.get
        call_stack = self._call_stack
        pc = self._pc
        last_line = -1
        skipped = 0
        try:
            while True:
                block = blocks_get(pc)
                if block is None:
                    block = self._compile_warm_block(pc, fetch, train,
                                                     line_shift)
                n, head_line, effects, exit_pc, plan, exit_line = block
                if skipped + n + 1 > count:
                    break
                if plan is None:
                    pc = exit_pc
                    raise self._unmapped_error(pc)
                if head_line != last_line:
                    fetch(pc)
                for static, draw in effects:
                    if draw is None:
                        static()
                    else:
                        touch(draw())
                last_line = exit_line
                pc = exit_pc
                skipped += n + 1
                code = plan[1]
                if code:
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = plan[4]()
                        next_address = plan[2] if taken else plan[3]
                        train(plan[0], taken, next_address)
                    else:
                        if code == 4:  # FLOW_RETURN
                            if not call_stack:
                                raise self._empty_stack_error(pc)
                            next_address = call_stack.pop()
                        elif code == 5:  # FLOW_INDIRECT_JUMP
                            next_address = plan[7][plan[6]()]
                        elif code == 3:  # FLOW_CALL
                            call_stack.append(plan[3])
                            next_address = plan[2]
                        else:  # FLOW_DIRECT_JUMP
                            next_address = plan[2]
                        train(plan[0], True, next_address)
                    pc = next_address
                else:
                    pc = plan[3]
                if plan[5] is not None:
                    touch(plan[5]())
        finally:
            self._pc = pc
        # The remainder is shorter than one block: walk it as records and
        # replay the same fetch -> train -> touch effects per instruction
        # (software interrupts, flow code 6, fall through untrained).
        tail = self.next_batch(count - skipped)
        for dyn in tail:
            instr = dyn.instr
            line = instr.address >> line_shift
            if line != last_line:
                fetch(instr.address)
                last_line = line
            if 0 < instr.flow_code < FLOW_SOFTWARE_INT:
                train(instr, dyn.taken, dyn.next_address)
            if dyn.mem_addr is not None:
                touch(dyn.mem_addr)
        return skipped + len(tail)

    def next_batch(self, count: int) -> list[DynamicInstruction]:
        """Step ``count`` instructions in one call, returning them in order.

        The stepping state is held in locals across the whole batch — the
        bulk interface the simulator's segmentation loop uses (the walker
        is endless, so a full batch is always produced unless control
        flow faults).
        """
        out: list[DynamicInstruction] = []
        append = out.append
        plans_get = self._plans.get
        call_stack = self._call_stack
        dyn_instr = DynamicInstruction
        pc = self._pc
        try:
            for _ in range(count):
                plan = plans_get(pc)
                if plan is None:
                    try:
                        instr = self.program.instructions[pc]
                    except KeyError as exc:
                        raise self._unmapped_error(pc) from exc
                    plan = self._compile_plan(instr)
                (instr, code, taken_target, fallthrough,
                 next_taken, next_mem, next_index, switch_targets) = plan

                if code:
                    taken = True
                    if code == 1:  # FLOW_COND_BRANCH
                        taken = next_taken()
                        next_address = taken_target if taken else fallthrough
                    elif code == 2:  # FLOW_DIRECT_JUMP
                        next_address = taken_target
                    elif code == 3:  # FLOW_CALL
                        call_stack.append(fallthrough)
                        next_address = taken_target
                    elif code == 4:  # FLOW_RETURN
                        if not call_stack:
                            raise self._empty_stack_error(pc)
                        next_address = call_stack.pop()
                    else:  # FLOW_INDIRECT_JUMP
                        next_address = switch_targets[next_index()]
                else:
                    taken = False
                    next_address = fallthrough

                mem_addr = next_mem() if next_mem is not None else None
                append(dyn_instr(instr, taken, next_address, mem_addr))
                pc = next_address
        finally:
            self._pc = pc
        return out


class InstructionStream:
    """A walker bounded to a fixed instruction budget.

    The walker is a :class:`StreamWalker` or a recorded artifact's
    :class:`~repro.workloads.tracefile.ArtifactReplayWalker`; both expose
    ``next_batch``, ``skip``, ``warm_skip`` and ``raw_batch``.  Every
    operation consumes at most the remaining budget, and ``consumed``
    counts what was taken or skipped so far.
    """

    __slots__ = ("_walker", "_remaining", "consumed")

    def __init__(self, walker, limit: int):
        if limit <= 0:
            raise WorkloadError(f"stream limit must be positive, got {limit}")
        self._walker = walker
        self._remaining = limit
        self.consumed = 0

    @classmethod
    def from_artifact(cls, artifact, limit: int | None = None) -> "InstructionStream":
        """Replay a compiled trace artifact as a bounded stream.

        ``artifact`` is a
        :class:`~repro.workloads.tracefile.TraceArtifact` (duck-typed:
        anything with ``walker()`` and ``__len__``).  The replay walker
        implements the same bulk interface as :class:`StreamWalker`, so
        the stream is bit-identical to one over the generating walker —
        the engine's grid fast path rests on that equivalence.
        """
        total = len(artifact)
        if limit is None or limit > total:
            limit = total
        return cls(artifact.walker(), limit)

    def take_batch(self, count: int) -> list[DynamicInstruction]:
        """Consume up to ``count`` instructions in one call.

        An empty list means the budget is spent.
        """
        n = min(count, self._remaining)
        if n <= 0:
            return []
        batch = self._walker.next_batch(n)
        self._remaining -= len(batch)
        self.consumed += len(batch)
        return batch

    def consume_raw(self, count: int):
        """Bulk-consume up to ``count`` instructions as raw column slices.

        The columnar-warmup fast path: when the stream replays a
        recorded artifact, the rows are consumed without decoding
        :class:`DynamicInstruction` objects and returned as
        ``(walker, lo, index)`` — the walker, the first row's record
        number and the rows' static-table indices; ``consumed`` and the
        remaining budget advance exactly as a ``take_batch`` of the same
        rows would.  Returns ``None`` over a generating walker or a
        spent budget; callers must then use :meth:`take_batch`.
        """
        raw_batch = self._walker.raw_batch
        if raw_batch is None or self._remaining <= 0:
            return None
        lo, index = raw_batch(min(count, self._remaining))
        took = len(index)
        self._remaining -= took
        self.consumed += took
        return self._walker, lo, index

    def skip(self, count: int, warm: tuple | None = None,
             profile: dict | None = None) -> int:
        """Fast-forward past up to ``count`` instructions; returns how many.

        Uses the walker's allocation-free :meth:`StreamWalker.skip`;
        ``consumed`` advances exactly as if the instructions had been
        taken.

        ``warm`` — a ``(fetch, touch, train, line_shift)`` tuple — routes
        the fast-forward through :meth:`StreamWalker.warm_skip`, training
        caches and the branch predictor while skipping.

        ``profile`` counts the resolved successor of every dynamic CTI in
        the skipped window into the given mapping — the adaptive
        sampler's phase-signature observer.  Identical windows produce
        identical profiles over either walker.  Only plain skips profile:
        passing both ``warm`` and ``profile`` raises :class:`WorkloadError`.
        """
        if warm is not None and profile is not None:
            raise WorkloadError("skip() profiles plain fast-forwards only")
        n = min(count, self._remaining)
        if n <= 0:
            return 0
        if warm is not None:
            fetch, touch, train, line_shift = warm
            n = self._walker.warm_skip(n, fetch, touch, train, line_shift)
        else:
            n = self._walker.skip(n, profile)
        self._remaining -= n
        self.consumed += n
        return n

"""Whole-application synthesis: profile -> program -> dynamic stream.

:class:`SyntheticWorkload` assembles a complete application image from a
:class:`~repro.workloads.profiles.WorkloadProfile`: a one-shot startup
section, a compact *hot region* (loop kernels, switch kernels, call trees)
driven by an endless outer loop, and a sprawling *cold region* (a switch
dispatcher over many rarely-executed kernels) entered with small
probability per outer iteration.  The layout reproduces the hot/cold (90/10)
structure the PARROT concept exploits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.isa.opcodes import InstrClass
from repro.workloads.behaviors import BiasedBranchSpec, LoopBranchSpec, SwitchSpec
from repro.workloads.kernels import (
    SWITCH_REG,
    BodyEmitter,
    build_call_tree_kernel,
    build_cold_kernel,
    build_loop_kernel,
    build_switch_kernel,
)
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.program import Program, ProgramBuilder
from repro.workloads.stream import InstructionStream, StreamWalker

#: Trip count of the endless outer loop ("run until the stream budget ends").
_OUTER_TRIPS = 1 << 30


@dataclass(slots=True)
class WorkloadStats:
    """Structural statistics of a synthesised application."""

    static_instructions: int = 0
    code_bytes: int = 0
    hot_kernels: int = 0
    cold_kernels: int = 0
    switch_kernels: int = 0
    call_trees: int = 0


class SyntheticWorkload:
    """A complete synthetic application: static image + stream factory."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1):
        profile.validate()
        self.profile = profile
        self.seed = seed
        self.stats = WorkloadStats()
        self.program = self._build_program()
        self.stats.static_instructions = self.program.num_static_instructions
        self.stats.code_bytes = self.program.code_bytes

    def _build_program(self) -> Program:
        profile = self.profile
        builder = ProgramBuilder(profile.name, self.seed)
        rng = random.Random(self.seed ^ 0x5EED)

        main_lbl = builder.label("main")
        cold_area_lbl = builder.label("cold_area")
        resume_lbl = builder.label("resume")

        # ---- startup section: executed exactly once, then jump to main.
        startup = builder.place(builder.label("startup"))
        startup_emitter = BodyEmitter(builder, profile, rng, hot=False)
        startup_emitter.emit_body(rng.randint(10, 25))
        builder.jump(main_lbl)

        # ---- hot region: loop kernels, switch kernels, call trees.
        hot_entries = []
        n_plain = max(1, profile.n_hot_kernels - profile.n_switch_kernels)
        for i in range(n_plain):
            hot_entries.append(
                build_loop_kernel(builder, profile, rng, hot=True, name=f"hot{i}")
            )
            self.stats.hot_kernels += 1
        for i in range(profile.n_switch_kernels):
            hot_entries.append(
                build_switch_kernel(builder, profile, rng, name=f"sw{i}")
            )
            self.stats.switch_kernels += 1
        if profile.call_depth >= 2:
            hot_entries.append(
                build_call_tree_kernel(
                    builder, profile, rng, depth=min(profile.call_depth - 1, 2),
                    name="tree",
                )
            )
            self.stats.call_trees += 1

        # ---- main outer loop: call every hot kernel, occasionally detour cold.
        builder.place(main_lbl)
        main_head = builder.place(builder.label("main_head"))
        glue = BodyEmitter(builder, profile, rng, hot=True)
        for entry in hot_entries:
            builder.call(entry)
            glue.emit_body(rng.randint(1, 2))
        builder.emit(InstrClass.COMPARE, src1=0)
        builder.cond_branch(cold_area_lbl, BiasedBranchSpec(p_taken=profile.p_cold))
        builder.place(resume_lbl)
        glue.emit_body(rng.randint(1, 3))
        builder.emit(InstrClass.COMPARE, src1=1)
        builder.cond_branch(main_head, LoopBranchSpec(_OUTER_TRIPS, _OUTER_TRIPS))
        # Fallen off the outer loop (never happens within stream budgets):
        builder.jump(main_head)

        # ---- cold region: dispatcher plus many rarely-run kernels.
        cold_entries = []
        for i in range(profile.n_cold_kernels):
            cold_entries.append(
                build_cold_kernel(builder, profile, rng, name=f"cold{i}")
            )
            self.stats.cold_kernels += 1
        builder.place(cold_area_lbl)
        case_labels = [builder.label(f"colddisp{i}") for i in range(len(cold_entries))]
        builder.indirect_jump(
            SWITCH_REG, case_labels, SwitchSpec(len(case_labels), skew=0.8)
        )
        for case_lbl, entry in zip(case_labels, cold_entries):
            builder.place(case_lbl)
            builder.call(entry)
            builder.jump(resume_lbl)

        return builder.finish(startup)

    def stream(self, limit: int, *, stream_seed: int | None = None) -> InstructionStream:
        """Create a fresh, replayable dynamic stream of ``limit`` instructions."""
        seed = self.seed ^ 0xC0FFEE if stream_seed is None else stream_seed
        return InstructionStream(StreamWalker(self.program, seed), limit)

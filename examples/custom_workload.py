#!/usr/bin/env python
"""Build a custom synthetic application and simulate it on PARROT.

Demonstrates the workload-construction API: a hand-assembled program
(one hot streaming kernel + one rarely-taken error path) driven through
the machine models.  This is how a user studies *their own* code shape —
e.g. "how much does PARROT help a tight DSP loop with a 1% error branch?"

Usage:  python examples/custom_workload.py
"""

import random

from repro import ParrotSimulator, model_config
from repro.core.simulator import ParrotSimulator  # noqa: F811 (explicitness)
from repro.isa.opcodes import InstrClass
from repro.workloads import (
    BiasedBranchSpec,
    BodyEmitter,
    LoopBranchSpec,
    ProgramBuilder,
    StrideMemSpec,
    multimedia_profile,
)
from repro.workloads.stream import InstructionStream, StreamWalker


def build_dsp_program():
    """A multiply-accumulate style streaming loop with a rare error check."""
    builder = ProgramBuilder("custom-dsp", seed=2026)
    profile = multimedia_profile("custom-dsp").derive(
        pairable_density=0.5, fusable_density=0.3
    )
    rng = random.Random(7)

    error_path = builder.label("error_path")
    resume = builder.label("resume")

    entry = builder.place(builder.label("entry"))
    emitter = BodyEmitter(builder, profile, rng, hot=True)

    # Streaming input/output arrays.
    src = builder.alloc_data(64 * 1024)
    dst = builder.alloc_data(64 * 1024)

    loop = builder.place(builder.label("loop"))
    builder.emit(InstrClass.FP_LOAD, dest=16, src1=0,
                 mem=StrideMemSpec(src, 8, 64 * 1024))
    builder.emit(InstrClass.FP_LOAD, dest=17, src1=0,
                 mem=StrideMemSpec(src + 8, 8, 64 * 1024))
    builder.emit(InstrClass.FP_ARITH, dest=18, src1=16, src2=17, fp_mul=True)
    builder.emit(InstrClass.FP_ARITH, dest=19, src1=18, src2=20)
    emitter.emit_body(10)  # profile-driven filler (SIMD/fusion food)
    builder.emit(InstrClass.FP_STORE, src1=1, src2=19,
                 mem=StrideMemSpec(dst, 8, 64 * 1024))
    # Rare error check: taken once in ~200 iterations.
    builder.emit(InstrClass.COMPARE, src1=2, src2=3)
    builder.cond_branch(error_path, BiasedBranchSpec(p_taken=0.005))
    builder.place(resume)
    builder.emit(InstrClass.COMPARE, src1=4)
    builder.cond_branch(loop, LoopBranchSpec(1 << 30, 1 << 30))
    builder.jump(loop)

    # Cold error path: bounds fixing, executed almost never.
    builder.place(error_path)
    cold = BodyEmitter(builder, profile, rng, hot=False)
    cold.emit_body(20)
    builder.jump(resume)

    return builder.finish(entry)


def main() -> None:
    program = build_dsp_program()
    print(f"built '{program.name}': {program.num_static_instructions} static "
          f"instructions, {program.code_bytes} code bytes\n")

    length = 20_000
    for model_name in ("N", "TN", "TON"):
        simulator = ParrotSimulator(model_config(model_name))
        stream = InstructionStream(StreamWalker(program, seed=1), length)
        result = simulator.simulate(
            stream, app_name=program.name, suite="Custom", program=program
        )
        print(f"{model_name:4s} IPC={result.ipc:5.2f}  "
              f"energy={result.total_energy:9.0f}  "
              f"coverage={result.coverage:5.1%}  "
              f"uop-reduction={result.uop_reduction:5.1%}")

    print(
        "\nA tight streaming kernel is PARROT's best case: near-total\n"
        "coverage, heavy trace reuse, and SIMD/fusion-friendly bodies."
    )


if __name__ == "__main__":
    main()

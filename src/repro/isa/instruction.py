"""Macro-instructions, micro-operations and dynamic-stream records.

The ISA distinguishes three layers:

* :class:`Uop` — a micro-operation, the unit of execution and optimization.
* :class:`MacroInstruction` — a static variable-length CISC instruction that
  decodes into a short tuple of uops.  Instances are immutable templates
  living in the static program image.
* :class:`DynamicInstruction` — one dynamic execution of a macro-instruction:
  the static template plus this instance's branch outcome, successor address
  and effective memory address.  The simulator consumes a stream of these;
  walkers share one record among all executions with the same outcome, so
  records are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import (
    CTI_CLASSES,
    CTI_KINDS,
    FLOW_CODE,
    UOP_FU,
    UOP_LATENCY,
    FuClass,
    InstrClass,
    UopKind,
)
from repro.isa.registers import REG_NONE, register_name


@dataclass(slots=True)
class Uop:
    """A single micro-operation.

    ``dest``, ``src1`` and ``src2`` are architectural register indices or
    :data:`~repro.isa.registers.REG_NONE`.  ``imm`` carries an immediate
    operand when present (constant producers and reg-imm forms).  ``is_mem``
    marks uops whose timing depends on the data-cache hierarchy.

    The same class represents decoder output and optimizer output; optimizer
    passes mutate *copies* of decoded uops, never the shared templates.
    """

    kind: UopKind
    dest: int = REG_NONE
    src1: int = REG_NONE
    src2: int = REG_NONE
    imm: int | None = None
    #: Index of the originating instruction within a trace segment; lets the
    #: hot pipeline bind a trace's memory uops to the current dynamic
    #: execution's effective addresses.  -1 in shared decode templates.
    origin: int = -1
    #: Second destination, used only by optimizer-packed SIMD2 uops.
    dest2: int = REG_NONE
    #: Additional sources beyond src1/src2 (optimizer-packed uops only);
    #: None in the common case so the timing core's hot path stays cheap.
    extra_srcs: tuple[int, ...] | None = None

    @property
    def latency(self) -> int:
        """Execution latency in cycles (L1-hit latency for loads)."""
        return UOP_LATENCY[self.kind]

    @property
    def fu_class(self) -> FuClass:
        """Functional-unit class this uop issues to."""
        return UOP_FU[self.kind]

    @property
    def is_mem(self) -> bool:
        """True when the uop accesses the data-cache hierarchy."""
        return self.kind in (UopKind.LOAD, UopKind.STORE)

    @property
    def is_cti(self) -> bool:
        """True when the uop is a control-transfer instruction."""
        return self.kind in CTI_KINDS

    def sources(self) -> tuple[int, ...]:
        """The register sources actually read by this uop (no sentinels)."""
        srcs = []
        if self.src1 != REG_NONE:
            srcs.append(self.src1)
        if self.src2 != REG_NONE:
            srcs.append(self.src2)
        if self.extra_srcs:
            srcs.extend(self.extra_srcs)
        return tuple(srcs)

    def destinations(self) -> tuple[int, ...]:
        """The registers written by this uop (no sentinels)."""
        dests = []
        if self.dest != REG_NONE:
            dests.append(self.dest)
        if self.dest2 != REG_NONE:
            dests.append(self.dest2)
        return tuple(dests)

    def copy(self) -> "Uop":
        """Return an independent mutable copy (used by the optimizer)."""
        return Uop(
            self.kind, self.dest, self.src1, self.src2, self.imm,
            self.origin, self.dest2, self.extra_srcs,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.kind.name.lower()]
        if self.dest != REG_NONE:
            parts.append(register_name(self.dest))
        for src in (self.src1, self.src2):
            if src != REG_NONE:
                parts.append(register_name(src))
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        return " ".join(parts)


@dataclass(slots=True, frozen=True)
class MacroInstruction:
    """A static CISC macro-instruction in the program image.

    ``length`` is the encoded byte length (1-15, IA32-like).  ``uops`` is the
    decode template shared by every dynamic execution of this instruction.
    For CTIs, ``taken_target`` is the static target address (or ``None`` for
    indirect CTIs whose target is only known dynamically).
    """

    address: int
    length: int
    iclass: InstrClass
    uops: tuple[Uop, ...]
    taken_target: int | None = None
    # Derived attributes, precomputed once per *static* instruction.  The
    # walker and the trace selector read them once per *dynamic* occurrence,
    # where a property call costs more than the value it wraps; identity,
    # equality and repr intentionally ignore them.
    #: Number of uops this instruction decodes into (``len(uops)``).
    num_uops: int = field(init=False, repr=False, compare=False, default=0)
    #: True when this instruction may transfer control.
    is_cti: bool = field(init=False, repr=False, compare=False, default=False)
    #: Address of the sequentially next instruction.
    fallthrough: int = field(init=False, repr=False, compare=False, default=0)
    #: Control-flow dispatch code (:data:`~repro.isa.opcodes.FLOW_CODE`).
    flow_code: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_uops", len(self.uops))
        object.__setattr__(self, "is_cti", self.iclass in CTI_CLASSES)
        object.__setattr__(self, "fallthrough", self.address + self.length)
        object.__setattr__(self, "flow_code", FLOW_CODE.get(self.iclass, 0))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(str(u) for u in self.uops)
        return f"{self.address:#08x} <{self.iclass.name}> {body}"


@dataclass(slots=True)
class DynamicInstruction:
    """One dynamic execution instance of a macro-instruction.

    ``taken`` records the resolved direction of a conditional branch (always
    True for unconditional CTIs, False for non-CTIs).  ``next_address`` is the
    address control actually flowed to.  ``mem_addr`` is the effective address
    touched by the instruction's memory uops, if any.

    Records may be shared; treat them as read-only.  Both walkers reuse
    one prebuilt record for every execution of an instruction with no
    memory access and a static successor (the generating walker also one
    per direction of a memory-free branch and per target of a memory-free
    indirect jump), so mutating one would rewrite every execution it
    stands for.  The
    class stays a plain slots dataclass rather than ``frozen``, because
    frozen construction costs ~3× as much on the records that still
    allocate.
    """

    instr: MacroInstruction
    taken: bool = False
    next_address: int = 0
    mem_addr: int | None = None

    @property
    def address(self) -> int:
        """Address of the underlying static instruction."""
        return self.instr.address

    @property
    def is_cti(self) -> bool:
        """True when the underlying instruction is a CTI."""
        return self.instr.is_cti


@dataclass(slots=True)
class DisassemblyLine:
    """A formatted line of disassembly, produced by :func:`disassemble`."""

    address: int
    text: str
    num_uops: int = 0
    length: int = 1
    comment: str = ""


def disassemble(instructions: list[MacroInstruction]) -> list[DisassemblyLine]:
    """Render a readable disassembly of a static instruction sequence.

    Useful in examples and debugging; the simulator never calls this.
    """
    lines = []
    for instr in instructions:
        body = "; ".join(str(u) for u in instr.uops)
        comment = ""
        if instr.is_cti and instr.taken_target is not None:
            comment = f"-> {instr.taken_target:#x}"
        lines.append(
            DisassemblyLine(
                address=instr.address,
                text=f"{instr.iclass.name.lower():<14} {body}",
                num_uops=instr.num_uops,
                length=instr.length,
                comment=comment,
            )
        )
    return lines

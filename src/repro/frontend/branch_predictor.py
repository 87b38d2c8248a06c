"""Branch direction/target prediction: gshare + BTB + return-address stack.

The reference model N uses a 4K-entry predictor; the PARROT TON model uses
a 2K-entry branch predictor alongside a 2K-entry trace predictor (§4.2,
Figure 4.7).  Table sizes are therefore configurable.

The predictor is consulted for every control-transfer instruction fetched
on the cold pipeline.  Unconditional direct CTIs (jump/call) are predicted
through the BTB (always taken); returns use the return-address stack;
conditional branches use gshare; indirect jumps use the BTB's last-target
scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.isa.instruction import MacroInstruction
from repro.isa.opcodes import InstrClass


@dataclass(slots=True)
class BranchPredictorStats:
    """Prediction accounting, split by CTI kind."""

    cond_predictions: int = 0
    cond_mispredictions: int = 0
    indirect_predictions: int = 0
    indirect_mispredictions: int = 0
    return_predictions: int = 0
    return_mispredictions: int = 0

    @property
    def predictions(self) -> int:
        """Total predictions made."""
        return (
            self.cond_predictions
            + self.indirect_predictions
            + self.return_predictions
        )

    @property
    def mispredictions(self) -> int:
        """Total mispredictions."""
        return (
            self.cond_mispredictions
            + self.indirect_mispredictions
            + self.return_mispredictions
        )

    @property
    def misprediction_rate(self) -> float:
        """Fraction of predictions that were wrong."""
        total = self.predictions
        return self.mispredictions / total if total else 0.0


class BranchPredictor:
    """gshare direction predictor with BTB and return-address stack."""

    def __init__(self, entries: int = 4096, *, history_bits: int = 12, ras_depth: int = 16):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(f"predictor entries {entries} not a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self._index_mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        # 2-bit saturating counters, initialised weakly taken.
        self._counters = bytearray([2] * entries)
        self._history = 0
        self._btb: dict[int, int] = {}
        self._ras: list[int] = []
        self._ras_depth = ras_depth
        self.stats = BranchPredictorStats()

    # -- direction prediction ------------------------------------------------

    def _index(self, address: int) -> int:
        return ((address >> 1) ^ (self._history & self._history_mask)) & self._index_mask

    def update_conditional(self, address: int, taken: bool) -> bool:
        """Train on the resolved direction; returns True if mispredicted.

        Combines predict + update so the caller cannot forget to train: the
        prediction used is the table state *before* the update, as in
        hardware where fetch-time prediction precedes retire-time training.
        """
        index = self._index(address)
        predicted = self._counters[index] >= 2
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        self.stats.cond_predictions += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.stats.cond_mispredictions += 1
        return mispredicted

    def warm_train(self, instr: MacroInstruction, taken: bool, next_address: int) -> None:
        """State-only training for functional warming.

        Evolves the gshare counters/history, BTB and return-address stack
        exactly as :meth:`predict_and_train` would, but records no
        prediction statistics and computes no mispredict outcome — the
        fast path the sampler drives once per skipped CTI.
        """
        iclass = instr.iclass
        if iclass is InstrClass.COND_BRANCH:
            index = self._index(instr.address)
            counter = self._counters[index]
            if taken:
                if counter < 3:
                    self._counters[index] = counter + 1
            elif counter > 0:
                self._counters[index] = counter - 1
            self._history = (
                (self._history << 1) | (1 if taken else 0)
            ) & self._history_mask
            return
        if iclass is InstrClass.CALL_DIRECT:
            ras = self._ras
            ras.append(instr.fallthrough)
            if len(ras) > self._ras_depth:
                ras.pop(0)
            self._btb[instr.address] = next_address
            return
        if iclass is InstrClass.RETURN_NEAR:
            if self._ras:
                self._ras.pop()
            return
        if iclass is InstrClass.SOFTWARE_INT:
            return
        self._btb[instr.address] = next_address

    # -- full CTI handling ------------------------------------------------------

    def predict_and_train(self, instr: MacroInstruction, taken: bool, next_address: int) -> bool:
        """Predict the CTI ``instr`` and train; returns True on mispredict.

        Models the complete front-end redirect logic: direction for
        conditionals, RAS for returns, BTB last-target for indirect jumps.
        Direct jumps and calls never mispredict (BTB hit assumed after
        first sighting; the first sighting costs a BTB miss).
        """
        iclass = instr.iclass
        if iclass is InstrClass.COND_BRANCH:
            return self.update_conditional(instr.address, taken)
        if iclass is InstrClass.CALL_DIRECT:
            ras = self._ras
            ras.append(instr.fallthrough)
            if len(ras) > self._ras_depth:
                ras.pop(0)
            return self._btb_lookup(instr.address, next_address)
        if iclass is InstrClass.RETURN_NEAR:
            self.stats.return_predictions += 1
            predicted = self._ras.pop() if self._ras else None
            if predicted != next_address:
                self.stats.return_mispredictions += 1
                return True
            return False
        if iclass is InstrClass.INDIRECT_JUMP:
            self.stats.indirect_predictions += 1
            predicted = self._btb.get(instr.address)
            self._btb[instr.address] = next_address
            if predicted != next_address:
                self.stats.indirect_mispredictions += 1
                return True
            return False
        if iclass is InstrClass.SOFTWARE_INT:
            # Software interrupts flush the front end by definition.
            return True
        # Direct jumps: target known from the BTB after first sighting.
        return self._btb_lookup(instr.address, next_address)

    def _btb_lookup(self, address: int, target: int) -> bool:
        known = self._btb.get(address)
        self._btb[address] = target
        return known != target

    def reset(self) -> None:
        """Return to power-on state."""
        for i in range(len(self._counters)):
            self._counters[i] = 2
        self._history = 0
        self._btb.clear()
        self._ras.clear()
        self.stats = BranchPredictorStats()

"""Batched per-segment bookkeeping shared by the hot and cold pipelines.

PR 8 took the replay recurrence out of interpreted dispatch, which left
the *shared* per-segment work — retire-time branch-predictor
training, trace-predictor bookkeeping, LRU refreshes in the trace cache
and hotness filters, and per-segment energy-event accounting — as the
dominant cost of the full-detail profile.  This module is the layer that
amortizes it:

* :func:`compile_hot_training` / :func:`run_hot_training` replay a hot
  trace's retire-time branch training as one planned batch.  A trace's
  conditional branches have static addresses and directions (the TID
  pins the path, the same invariant the replay plans already rely on),
  so the gshare index of the *j*-th conditional is a pure function of
  the history value at segment entry — every per-CTI dispatch,
  ``_index`` recomputation and incremental history shift folds into
  per-plan constants at compile time.  Large batches run as numpy
  reductions over the counter table; small or index-colliding batches
  take a specialized sequential loop over the same constants.  Both are
  bit-identical to per-CTI :meth:`BranchPredictor.predict_and_train`.
  Non-conditional CTIs (RAS/BTB traffic) touch state disjoint from the
  gshare table and replay sequentially in their committed order.  The
  *cold* pipeline keeps fully sequential prediction by construction:
  its predictions feed back into the same segment's fetch redirects.

* :func:`flush_lru_refreshes` applies a journal of deferred LRU
  refreshes in one step.  The trace cache and the counter filters only
  *observe* recency order when they evict (or enumerate), so recurring
  segment sequences journal their refreshes content-keyed (by TID) and
  the journal collapses to one dict reorder per distinct TID right
  before the order becomes observable; eviction and forget invalidate
  the affected journal entries.  The applied order is exactly the eager
  order: residents are re-ranked by their *last* journaled access.

The simulator's segment loop (``_execute_segments``) drives this layer
and folds
the remaining per-segment event traffic (trace-cache frame reads,
filter accesses, cold fetch/decode/predictor totals) into plan-level
reductions whose static parts come from the compiled plans themselves.
"""

from __future__ import annotations

import numpy as np

from repro.isa.opcodes import InstrClass

#: Conditional-branch count at or above which the numpy gshare batch
#: beats the specialized sequential loop.  Typical hot frames carry ~6-10
#: conditionals, where numpy call overhead still dominates; the loop and
#: the vector path are bit-identical, so this is a pure speed knob.
VECTOR_MIN_COND = 16

#: Deferred-LRU journal length at which holders flush pre-emptively, so
#: an eviction-free phase cannot grow the journal without bound.
LRU_JOURNAL_LIMIT = 2048


def compile_hot_training(instructions, history_bits: int):
    """Compile a hot segment's retire-time branch training into a plan.

    ``instructions`` is the committed dynamic path of the trace (the
    same representative execution the trace's uops were built from —
    per-TID path identity is the invariant all hot plans share).
    ``history_bits`` is the owning machine's gshare history width, which
    makes the plan machine-private, as hot plans already are.

    Returns ``(cond_ops, others, n_cti, final_shift, final_prefix,
    vec)`` where ``cond_ops`` is one ``(xor, shift, prefix, taken)``
    tuple per conditional (the gshare index of conditional *j* is
    ``((((h0 << shift) & hmask) | prefix) ^ xor) & imask`` for the
    segment-entry history ``h0``), ``others`` holds the instruction
    indices of non-conditional CTIs that carry RAS/BTB state (software
    interrupts train nothing and are skipped), ``n_cti`` counts *all*
    CTIs for the ``bpred_update`` energy event, ``final_shift`` /
    ``final_prefix`` collapse the segment's whole history evolution
    into one shift-mask, and ``vec`` carries numpy mirrors of
    ``cond_ops`` when the batch is worth vectorizing (else ``None``).
    """
    hist_mask = (1 << history_bits) - 1
    cond_ops = []
    others = []
    n_cti = 0
    prefix = 0
    n_cond = 0
    for index, dyn in enumerate(instructions):
        instr = dyn.instr
        if not instr.is_cti:
            continue
        n_cti += 1
        iclass = instr.iclass
        if iclass is InstrClass.COND_BRANCH:
            taken = bool(dyn.taken)
            cond_ops.append((
                instr.address >> 1,
                min(n_cond, history_bits),
                prefix & hist_mask,
                taken,
            ))
            prefix = (prefix << 1) | taken
            n_cond += 1
        elif iclass is not InstrClass.SOFTWARE_INT:
            others.append(index)
    vec = None
    if n_cond >= VECTOR_MIN_COND:
        vec = (
            np.array([op[0] for op in cond_ops], dtype=np.int64),
            np.array([op[1] for op in cond_ops], dtype=np.int64),
            np.array([op[2] for op in cond_ops], dtype=np.int64),
            np.array([op[3] for op in cond_ops], dtype=bool),
        )
    return (
        tuple(cond_ops),
        tuple(others),
        n_cti,
        min(n_cond, history_bits),
        prefix & hist_mask,
        vec,
    )


def run_hot_training(bpred, plan, instructions) -> None:
    """Replay a compiled training plan against the live predictor.

    Bit-identical to calling ``bpred.predict_and_train`` per CTI in
    committed order: conditionals and RAS/BTB CTIs touch disjoint
    predictor state, so the conditional batch commutes past the
    sequential remainder; within the batch the numpy path only engages
    when every gshare index is distinct (a colliding batch falls back
    to the sequential loop, which reads each counter after the previous
    write exactly as the eager code did).
    """
    cond_ops, others, _n_cti, final_shift, final_prefix, vec = plan
    if cond_ops:
        counters = bpred._counters
        hist_mask = bpred._history_mask
        index_mask = bpred._index_mask
        h0 = bpred._history
        misp = 0
        done = False
        if vec is not None:
            xors, shifts, prefixes, takens = vec
            idx = np.left_shift(h0, shifts)
            np.bitwise_and(idx, hist_mask, out=idx)
            np.bitwise_or(idx, prefixes, out=idx)
            np.bitwise_xor(idx, xors, out=idx)
            np.bitwise_and(idx, index_mask, out=idx)
            uniq = np.unique(idx)
            if len(uniq) == len(idx):
                table = np.frombuffer(counters, dtype=np.uint8)
                vals = table[idx].astype(np.int16)
                misp = int(np.count_nonzero((vals >= 2) != takens))
                np.add(vals, np.where(takens, 1, -1), out=vals)
                np.clip(vals, 0, 3, out=vals)
                table[idx] = vals
                done = True
        if not done:
            for xor, shift, prefix, taken in cond_ops:
                index = ((((h0 << shift) & hist_mask) | prefix)
                         ^ xor) & index_mask
                counter = counters[index]
                if taken:
                    if counter < 2:
                        misp += 1
                    if counter < 3:
                        counters[index] = counter + 1
                else:
                    if counter >= 2:
                        misp += 1
                    if counter > 0:
                        counters[index] = counter - 1
        bpred._history = (((h0 << final_shift) & hist_mask)
                          | final_prefix)
        stats = bpred.stats
        stats.cond_predictions += len(cond_ops)
        stats.cond_mispredictions += misp
    if others:
        predict_and_train = bpred.predict_and_train
        for index in others:
            dyn = instructions[index]
            predict_and_train(dyn.instr, dyn.taken, dyn.next_address)


def run_hot_training_sequential(bpred, plan, instructions) -> None:
    """Reference replay: per-CTI ``predict_and_train`` in committed order.

    The eager loop the batched path must match bit-for-bit — kept as the
    differential oracle for the predictor-state parity suite (and for
    anyone bisecting a divergence by hand).
    """
    predict_and_train = bpred.predict_and_train
    for dyn in instructions:
        if dyn.instr.is_cti:
            predict_and_train(dyn.instr, dyn.taken, dyn.next_address)


def flush_lru_refreshes(store: dict, journal: list) -> None:
    """Apply a deferred-refresh journal to an insertion-ordered dict.

    ``journal`` is the access sequence since the last flush (one entry
    per journaled hit, possibly with many recurrences of the same key).
    Re-ranks every journaled key that is still resident to the position
    eager move-to-MRU bookkeeping would have left it in — ordered by
    *last* access — in one pass over the distinct keys, and clears the
    journal.  Keys evicted (and possibly re-inserted) since their
    journal entry must have been purged by the holder; insertion-order
    semantics make the re-rank exact for everything else.
    """
    if not journal:
        return
    # dict.fromkeys over the reversed journal keeps each key's *last*
    # access (first occurrence in reverse), most recent first; applying
    # in reverse of that re-inserts in ascending last-access order.
    order = dict.fromkeys(reversed(journal))
    pop = store.pop
    for key in reversed(order):
        value = pop(key, _MISSING)
        if value is not _MISSING:
            store[key] = value
    journal.clear()


class _Missing:
    __slots__ = ()


_MISSING = _Missing()

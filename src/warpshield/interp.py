"""Deterministic lock-step interpreter for the kernel IR.

Execution model: each warp holds a set of divergence fragments ``(pc, mask)``.
Every issue picks the fragment with the smallest pc, first merging all
fragments parked at that pc, and executes one instruction over the active
lanes.  For structured control flow (forward branches with a single join,
backward branches for loops) min-pc scheduling reconverges exactly where an
immediate-post-dominator stack would: split paths run separately and merge at
the join, and loops re-execute under the mask of the lanes still iterating.

CTA barriers are rendezvous points: a fragment that executes ``bar`` suspends,
and all suspended fragments resume once no fragment in the CTA can run, i.e.
once every live (not yet exited) thread is waiting.  A thread that exits early
reduces the rendezvous population instead of deadlocking it; runaway loops are
caught by the per-thread instruction budget.

Fault hook: when the matching thread executes its matching dynamic instruction
(counted per thread, 1-based) and that instruction writes a destination
register, one bit of the written value is inverted.  Instructions without a
destination register never host a fault.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import ValidationError
from .ir import KernelProgram, TID_REGISTER, CTAID_REGISTER, REGISTER_COUNT, WARP_SIZE, WORD_MASK

if TYPE_CHECKING:
    from .faults import FaultSite

COMPLETED = "completed"
CRASHED = "crashed"
HUNG = "hung"

DEFAULT_BUDGET = 1_000_000

_DEFAULT_OP_CYCLES = {
    "iadd": 1,
    "isub": 1,
    "imul": 1,
    "fadd": 1,
    "fmul": 1,
    "mov": 1,
    "movi": 1,
    "setp": 1,
    "bra": 1,
    "exit": 1,
    "ld": 4,
    "st": 4,
    "bar": 2,
}


@dataclass(frozen=True)
class CostTable:
    """Cycles charged per issued warp-instruction, plus replica bookkeeping costs."""

    op_cycles: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_OP_CYCLES))
    compare_per_store: int = 1
    vote_per_store: int = 2

    def __post_init__(self):
        missing = set(_DEFAULT_OP_CYCLES) - set(self.op_cycles)
        if missing:
            raise ValidationError(f"cost table missing opcodes: {sorted(missing)}")

    def to_json(self) -> dict:
        return {
            "op_cycles": dict(self.op_cycles),
            "compare_per_store": self.compare_per_store,
            "vote_per_store": self.vote_per_store,
        }

    @classmethod
    def from_json(cls, data) -> "CostTable":
        if not isinstance(data, dict):
            raise ValidationError("cost table must be a JSON object")
        op_cycles = data.get("op_cycles", _DEFAULT_OP_CYCLES)
        compare = data.get("compare_per_store", 1)
        vote = data.get("vote_per_store", 2)
        if not isinstance(op_cycles, dict) or not all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in (*op_cycles.values(), compare, vote)
        ):
            raise ValidationError("cost table cycle counts must be integers")
        return cls(op_cycles=dict(op_cycles), compare_per_store=compare, vote_per_store=vote)


DEFAULT_COST_TABLE = CostTable()


@dataclass
class ExecutionResult:
    """Snapshot of one kernel execution.

    ``per_thread_icnt`` is indexed by global thread id; threads that were not
    launched (warp-filtered runs) stay at zero.  ``per_warp_cycles`` and
    ``per_warp_stores`` are keyed by ``(cta_id, warp_id)``, and so is
    ``store_streams``: each warp's stores in issue order, one
    ``(buffer, index, value, phase)`` record per lane, where ``phase`` counts
    the barrier releases of the warp's CTA before the store.
    """

    outputs: dict[str, list[int]]
    per_thread_icnt: list[int]
    cycles: int
    termination: str
    fault_applied: bool = False
    per_warp_cycles: dict[tuple[int, int], int] = field(default_factory=dict)
    per_warp_stores: dict[tuple[int, int], int] = field(default_factory=dict)
    register_writes: list[tuple[int, ...]] | None = None
    store_streams: dict[tuple[int, int], tuple[tuple[str, int, int, int], ...]] | None = None
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.termination == COMPLETED

    def max_icnt(self) -> int:
        return max(self.per_thread_icnt, default=0)


class _Abort(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message


class _WarpCtx:
    __slots__ = ("key", "members", "frags", "waiting")

    def __init__(self, key, members):
        self.key = key
        self.members = members
        self.frags: list[list[int]] = [[0, (1 << len(members)) - 1]]
        self.waiting: list[list[int]] = []


def _f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _f32_bits(x: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:  # finite double too large for binary32 rounds to inf
        return 0x7F800000 if x > 0 else 0xFF800000


def _signed(v: int) -> int:
    return v - 0x100000000 if v >= 0x80000000 else v


@lru_cache(maxsize=1024)
def _lanes(mask: int) -> tuple[int, ...]:
    # Lane masks repeat across issues and across runs, so each is decoded once.
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def seeded_inputs(program: KernelProgram, seed: int = 0) -> dict[str, list[int]]:
    """Deterministic pseudo-random contents for every declared input buffer."""
    rng = random.Random(f"inputs:{seed}")
    return {
        name: [rng.getrandbits(32) for _ in range(size)]
        for name, size in program.input_buffers
    }


def validate_inputs(program: KernelProgram, inputs: dict[str, list[int]]) -> None:
    declared = dict(program.input_buffers)
    if set(inputs) != set(declared):
        raise ValidationError(
            f"inputs {sorted(inputs)} do not match declared buffers {sorted(declared)}"
        )
    for name, size in declared.items():
        if len(inputs[name]) != size:
            raise ValidationError(
                f"input buffer {name!r} has {len(inputs[name])} words, declared {size}"
            )


class WordInputs(dict):
    """Input buffers checked against a program and masked to 32-bit words.

    :func:`execute` masks a plain mapping on every call; a caller that runs
    one kernel many times builds this once with :func:`word_inputs` so that
    a single-warp run costs O(warp), not O(inputs).  Threads only read input
    buffers, so every run can share the same lists.
    """


def word_inputs(program: KernelProgram, inputs: dict[str, list[int]]) -> WordInputs:
    validate_inputs(program, inputs)
    return WordInputs(
        {name: [v & WORD_MASK for v in inputs[name]] for name, _ in program.input_buffers}
    )


def execute(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    *,
    fault: "FaultSite | None" = None,
    budget: int = DEFAULT_BUDGET,
    cost_table: CostTable | None = None,
    warp_filter: tuple[int, int] | None = None,
    record_writes: bool = False,
    record_stores: bool = False,
) -> ExecutionResult:
    """Run a kernel to completion (or crash/hang) and return its results.

    ``warp_filter=(cta_id, warp_id)`` launches only that warp's threads.
    Threads read only input buffers, never another thread's output, and a
    barrier only delays a warp, so the isolated warp executes the same
    instructions, writes the same registers and emits the same store stream
    as it does inside the full run.  Each recorded store carries the count
    of barrier releases before it, which is the same in both runs, so
    :func:`replay_stores` can put isolated streams back in full-run order.
    Protection replicas and fault injection both run warps this way.
    """
    if budget < 1:
        raise ValidationError("instruction budget must be positive")
    if isinstance(inputs, WordInputs):
        validate_inputs(program, inputs)
        in_bufs = inputs
    else:
        in_bufs = word_inputs(program, inputs)
    costs = (cost_table or DEFAULT_COST_TABLE).op_cycles

    out_bufs = {name: [0] * size for name, size in program.output_buffers}

    total = program.total_threads
    icnt = [0] * total
    regs: list[list[int] | None] = [None] * total
    writes: list[list[int]] | None = [[] for _ in range(total)] if record_writes else None

    launched = range(program.num_ctas)
    if warp_filter is not None:
        launched = [warp_filter[0]] if 0 <= warp_filter[0] < program.num_ctas else []
    ctas: list[list[_WarpCtx]] = []
    for cta in launched:
        order = program.launch_order(cta)
        warps = []
        for wid, start in enumerate(range(0, len(order), WARP_SIZE)):
            key = (cta, wid)
            if warp_filter is not None and key != warp_filter:
                continue
            members = order[start : start + WARP_SIZE]
            warps.append(_WarpCtx(key, members))
            for t in members:
                r = [0] * REGISTER_COUNT
                r[TID_REGISTER] = t
                r[CTAID_REGISTER] = cta
                regs[t] = r
        if warps:
            ctas.append(warps)
    if not ctas:
        raise ValidationError(f"warp filter {warp_filter} matches no warp")

    instructions = program.instructions
    per_warp_cycles: dict[tuple[int, int], int] = {}
    per_warp_stores: dict[tuple[int, int], int] = {}
    streams: dict[tuple[int, int], list[tuple[str, int, int, int]]] | None = (
        {} if record_stores else None
    )

    if fault is not None:
        f_thread, f_dyn, f_mask = fault.thread_id, fault.dyn_instr, 1 << fault.bit
    else:
        f_thread, f_dyn, f_mask = -1, -1, 0
    fault_applied = False

    cycles = 0
    termination = COMPLETED
    error = None

    def issue(wp: _WarpCtx) -> None:
        nonlocal cycles, fault_applied
        frags = wp.frags
        best = 0
        for i in range(1, len(frags)):
            if frags[i][0] < frags[best][0]:
                best = i
        pc, mask = frags.pop(best)
        i = 0
        while i < len(frags):  # merge fragments reconverged at this pc
            if frags[i][0] == pc:
                mask |= frags.pop(i)[1]
            else:
                i += 1

        ins = instructions[pc]
        op = ins.opcode
        cost = costs[op]
        cycles += cost
        per_warp_cycles[wp.key] = per_warp_cycles.get(wp.key, 0) + cost

        members = wp.members
        lanes = _lanes(mask)

        if op == "bra":
            if not ins.srcs:
                for li in lanes:
                    t = members[li]
                    n = icnt[t] + 1
                    icnt[t] = n
                    if n > budget:
                        raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                frags.append([ins.target, mask])
            else:
                p = ins.srcs[0]
                taken = 0
                for li in lanes:
                    t = members[li]
                    n = icnt[t] + 1
                    icnt[t] = n
                    if n > budget:
                        raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                    if regs[t][p] != 0:
                        taken |= 1 << li
                fall = mask & ~taken
                if taken:
                    frags.append([ins.target, taken])
                if fall:
                    frags.append([pc + 1, fall])
            return

        if op == "exit":
            for li in lanes:
                t = members[li]
                icnt[t] += 1
            return  # fragment dropped; lanes are done

        if op == "bar":
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
            wp.waiting.append([pc + 1, mask])
            return

        if op == "st":
            buf = out_bufs[ins.buffer]
            size = len(buf)
            a = ins.addr_reg
            s = ins.srcs[0]
            stored = per_warp_stores.get(wp.key, 0)
            stream = None
            if streams is not None:
                stream = streams.setdefault(wp.key, [])
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                addr = r[a]
                if addr >= size:
                    raise _Abort(
                        CRASHED,
                        f"thread {t} stored out of bounds: {ins.buffer}[{addr}] (size {size})",
                    )
                v = r[s]
                buf[addr] = v
                stored += 1
                if stream is not None:
                    stream.append((ins.buffer, addr, v, phase))
            per_warp_stores[wp.key] = stored
            frags.append([pc + 1, mask])
            return

        # register-writing opcodes
        dest = ins.dest
        if op == "ld":
            buf = in_bufs[ins.buffer]
            size = len(buf)
            a = ins.addr_reg
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                addr = r[a]
                if addr >= size:
                    raise _Abort(
                        CRASHED,
                        f"thread {t} loaded out of bounds: {ins.buffer}[{addr}] (size {size})",
                    )
                v = buf[addr]
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "movi":
            imm = ins.imm
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                v = imm
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                regs[t][dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "mov":
            s = ins.srcs[0]
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                v = r[s]
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "setp":
            a, b = ins.srcs
            cond = ins.cond
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                x = _signed(r[a])
                y = _signed(r[b])
                if cond == "eq":
                    v = 1 if x == y else 0
                elif cond == "ne":
                    v = 1 if x != y else 0
                elif cond == "lt":
                    v = 1 if x < y else 0
                elif cond == "le":
                    v = 1 if x <= y else 0
                elif cond == "gt":
                    v = 1 if x > y else 0
                else:
                    v = 1 if x >= y else 0
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        # two-source arithmetic
        a, b = ins.srcs
        for li in lanes:
            t = members[li]
            n = icnt[t] + 1
            icnt[t] = n
            if n > budget:
                raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
            r = regs[t]
            x = r[a]
            y = r[b]
            if op == "iadd":
                v = (x + y) & WORD_MASK
            elif op == "isub":
                v = (x - y) & WORD_MASK
            elif op == "imul":
                v = (x * y) & WORD_MASK
            elif op == "fadd":
                v = _f32_bits(_f32(x) + _f32(y))
            else:  # fmul
                v = _f32_bits(_f32(x) * _f32(y))
            if n == f_dyn and t == f_thread:
                v ^= f_mask
                fault_applied = True
            r[dest] = v
            if writes is not None:
                writes[t].append(n)
        frags.append([pc + 1, mask])

    try:
        for warps in ctas:
            phase = 0  # barrier releases so far in this CTA; read by issue()
            while True:
                ran = False
                for wp in warps:
                    while wp.frags:
                        issue(wp)
                        ran = True
                if ran:
                    continue
                # nothing runnable: every live thread is waiting at a barrier
                released = False
                for wp in warps:
                    if wp.waiting:
                        wp.frags.extend(wp.waiting)
                        wp.waiting.clear()
                        released = True
                if not released:
                    break
                phase += 1
    except _Abort as abort:
        termination = abort.kind
        error = abort.message

    return ExecutionResult(
        outputs=out_bufs,
        per_thread_icnt=icnt,
        cycles=cycles,
        termination=termination,
        fault_applied=fault_applied,
        per_warp_cycles=per_warp_cycles,
        per_warp_stores=per_warp_stores,
        register_writes=[tuple(w) for w in writes] if writes is not None else None,
        store_streams=(
            {k: tuple(v) for k, v in streams.items()} if streams is not None else None
        ),
        error=error,
    )


def replay_stores(
    outputs: dict[str, list[int]],
    streams: dict[tuple[int, int], tuple[tuple[str, int, int, int], ...]],
) -> dict[str, list[int]]:
    """Apply ``{(cta_id, warp_id): store stream}`` to ``outputs`` in the order
    a full run issues the stores, and return ``outputs``.

    That order is ``(cta, phase, warp_id, seq)``: CTAs run one after another,
    and between two barrier releases each live warp runs to its next wait in
    warp-id order.  A release of the full run is a release of every warp
    still live in it, so a warp's isolated run counts the same phases, even
    when a fault changes how many barriers that warp reaches.
    """
    ordered = sorted(
        (cta, phase, wid, seq, buf, addr, value)
        for (cta, wid), stream in streams.items()
        for seq, (buf, addr, value, phase) in enumerate(stream)
    )
    for _, _, _, _, buf, addr, value in ordered:
        outputs[buf][addr] = value
    return outputs

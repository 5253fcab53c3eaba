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

Fused runs: a *run* is a basic block, a maximal straight line of
register-writing instructions (``iadd isub imul fadd fmul mov movi setp ld``)
that no branch enters except at its first instruction, closed by the ``bra``
that follows it, if one does.  A run is cut before an ``ld`` whose address
register an earlier instruction of the run writes, so every address a run
loads from is a register value at its entry.  ``st`` never joins a run.
When the picked fragment sits at the start of a run, no other fragment of its
warp lies inside the run: fragments enter a run only at its first
instruction (branch target, fall-through, barrier resume), and one that a
single step leaves inside a run is still its warp's minimum, so it is picked
next.  Min-pc scheduling would then issue that fragment alone to the run's
end, and each lane touches only its own registers and the read-only input
buffers; so one issue applies the whole run lane by lane, adds its length to
each lane's iCnt, charges its cycles at once and, for a conditional ``bra``,
builds the taken mask in the same lane loop.  The taken and fall-through
fragments are pushed as a single-stepped ``bra`` pushes them.

Each run is compiled once per program into a Python function built from the
validated integer operands and one table of opcode expressions.  Its body
computes only the run's end state: each written register's value after the
run's last instruction.  A write that a later write of the run overwrites
before anything reads it is dropped, and k consecutive ``iadd rd, rd, rs``
(or ``isub``) with rs ≠ rd are folded into one ``rd ± k * rs`` mod 2^32;
both are exact, since no dropped value is ever read and rs does not change
between the folded adds.  Before it changes anything, it checks every active
lane's load addresses against the buffer sizes, those of dropped loads and
of the faulted lane included.  If one is out of bounds, the issue
single-steps the run instruction-major instead, and so reaches the crash
with the same iCnts, register writes and outputs as single steps would.  An
issue falls back to a single step when the warp's issue count plus the run
length would pass the budget (a lane's iCnt never exceeds its warp's issue
count).  When the faulted thread is active and its faulted dynamic
instruction lies inside the run, the issue runs the run's hooked form,
compiled once per run on first use, which keeps every instruction and flips
the faulted lane's bit where that instruction writes it: no ld address is
written inside a run, so the flip moves no load of the run.  A single step
evaluates each instruction from the same table, so opcode semantics are
written once.

Snapshot and resume: :class:`ThreadRun` runs one thread as its warp runs
it, but holds it between issues.  It names the coming issue (pc, block
end), makes it, or forks a copy at that boundary: the thread's registers,
iCnt, fragment or barrier wait, barrier phase and issue count.  A fork is
armed with a fault, or gets a bit flipped in a register directly, and
runs to its end.  Fault injection walks one fault-free run per injected
thread to the forks of that thread's sites.  A whole warp runs on its own
only as ``execute(..., warp_filter=key)``, from launch: protection's
faulted replica, a fault site whose store shares a location and a phase
with a warp-mate's, and a profile's record of an injected warp's writes.
``execute`` and every ``ThreadRun`` issue through one ``issue`` closure
built by ``_issuer``; a ``ThreadRun`` is a warp of one member and keeps no
output buffers, so it costs O(1) memory.

Lone form: a ``ThreadRun`` finishes in the program's ``lone`` form, one
generated function (:mod:`warpshield.lone`) that keeps the thread's
registers in locals and runs its whole control-flow graph in one ``while``
loop, a block per turn, built from the same opcode table.  It decides
nothing itself: wherever the thread might crash or hang, and wherever it
stands inside a block, it hands its state back to ``issue``, which holds
the one definition of both.  Alone, a thread hangs exactly when it is
about to issue an instruction other than ``exit`` with its iCnt at the
budget, so switching between the two forms anywhere changes nothing.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .ir import (
    CTAID_REGISTER,
    DEFAULT_BUDGET,
    REGISTER_COUNT,
    TID_REGISTER,
    WARP_SIZE,
    WORD_MASK,
    WRITING_OPS,
    Instruction,
    KernelProgram,
)

if TYPE_CHECKING:
    from .faults import FaultSite

COMPLETED = "completed"
CRASHED = "crashed"
HUNG = "hung"

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


class _CostTable(NamedTuple):
    op_cycles: dict[str, int]
    compare_per_store: int
    vote_per_store: int


class CostTable(_CostTable):
    """Cycles charged per issued warp-instruction, plus replica bookkeeping costs."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, op_cycles: dict[str, int] | None = None, compare_per_store: int = 1, vote_per_store: int = 2):
        if op_cycles is None:
            op_cycles = dict(_DEFAULT_OP_CYCLES)
        missing = set(_DEFAULT_OP_CYCLES) - set(op_cycles)
        if missing:
            raise ValidationError(f"cost table missing opcodes: {sorted(missing)}")
        unknown = set(op_cycles) - set(_DEFAULT_OP_CYCLES)
        if unknown:
            raise ValidationError(f"cost table names unknown opcodes: {sorted(unknown)}")
        # Every issued instruction costs time, and savings divide by cycles.
        cheap = sorted(op for op in _DEFAULT_OP_CYCLES if op_cycles[op] < 1)
        if cheap:
            raise ValidationError(f"cost table op cycles must be at least 1: {cheap}")
        if compare_per_store < 0 or vote_per_store < 0:
            raise ValidationError("cost table per-store costs must not be negative")
        return tuple.__new__(cls, (op_cycles, compare_per_store, vote_per_store))

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
        unknown = set(data) - {"op_cycles", "compare_per_store", "vote_per_store"}
        if unknown:
            raise ValidationError(f"cost table has unknown keys: {sorted(unknown)}")
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


class ExecutionResult(NamedTuple):
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
    fault_applied: bool
    per_warp_cycles: dict[tuple[int, int], int]
    per_warp_stores: dict[tuple[int, int], int]
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
    __slots__ = ("key", "members", "frags", "waiting", "issued", "cycles", "phase")

    def __init__(self, key, members):
        self.key = key
        self.members = members
        self.frags: list[list[int]] = [[0, (1 << len(members)) - 1]]
        self.waiting: list[list[int]] = []
        self.issued = 0  # instructions issued, fused ones counted singly
        self.cycles = 0
        self.phase = 0  # barrier releases of the warp's CTA so far


class _State:
    """What issues change besides each warp's own context: registers keyed
    by thread id, for the running CTA's threads only (its one thread's in a
    :class:`ThreadRun`), iCnts keyed by thread id, recorded register
    writes, output buffers, store streams and store counts keyed by warp,
    and whether the fault has been applied."""

    __slots__ = ("icnt", "regs", "writes", "outputs", "streams", "stores", "fault_applied")

    def __init__(self, icnt, regs, writes, outputs, streams, stores):
        self.icnt = icnt
        self.regs = regs
        self.writes = writes
        self.outputs = outputs
        self.streams = streams
        self.stores = stores
        self.fault_applied = False


class _Unkept:
    """An output buffer whose words a run does not keep: its size bounds
    stores, whose values go to the store stream alone."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __setitem__(self, index: int, value: int) -> None:
        pass


_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")


def _f32(bits: int) -> float:
    return _F32.unpack(_U32.pack(bits))[0]


def _f32_bits(x: float) -> int:
    try:
        return _U32.unpack(_F32.pack(x))[0]
    except OverflowError:  # finite double too large for binary32 rounds to inf
        return 0x7F800000 if x > 0 else 0xFF800000


# ---------------------------------------------------------------------------
# fused runs: basic blocks compiled into lane-major functions

# Each register-writing opcode's value as an expression of its source
# operands {a} and {b}, its immediate {imm} and, for ld, its input buffer
# {buf} and address {a}; setp compares signed words: flipping the sign bit
# maps signed order onto unsigned order.
_VALUE = {
    "iadd": "({a} + {b}) & 0xFFFFFFFF",
    "isub": "({a} - {b}) & 0xFFFFFFFF",
    "imul": "({a} * {b}) & 0xFFFFFFFF",
    "fadd": "_f32_bits(_f32({a}) + _f32({b}))",
    "fmul": "_f32_bits(_f32({a}) * _f32({b}))",
    "mov": "{a}",
    "movi": "{imm}",
    "setp": "1 if ({a} ^ 0x80000000) {cmp} ({b} ^ 0x80000000) else 0",
    "ld": "{buf}[{a}]",
}
# When an ld address {a} crashes a buffer of {size} words: registers hold
# unsigned words, so only the end of the buffer can be passed.
_OUT_OF_BOUNDS = "{a} >= {size}"
_SETP_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_GENERATED_GLOBALS = {"_f32": _f32, "_f32_bits": _f32_bits}


def _generate(source: str, name: str):
    namespace: dict = {}
    exec(compile(source, name, "exec"), _GENERATED_GLOBALS, namespace)
    return namespace["f"]


def _block_source(
    instructions: tuple[Instruction, ...],
    start: int,
    end: int,
    buffers: tuple[str, ...],
    hooked: bool = False,
):
    """The block ``instructions[start:end]`` for one lane whose registers
    are locals ``x<reg>``: ``(lines, loads, reads, written)``.

    ``lines`` set ``x<dest> = <value>``.  Hooked, there is one per
    instruction but the closing ``bra``, each followed by the fault hook's
    flip of its register when ``hook`` is its pc.  Unhooked, they compute
    each written register's value at the end of the block, and nothing
    else: a write that a later write of the block overwrites before
    anything reads it is dropped, since no value it made is ever seen, and
    k consecutive ``iadd`` (``isub``) ``rd, rd, rs`` with rs ≠ rd become
    one ``x<rd> = (x<rd> ± k * x<rs>) & 0xFFFFFFFF``, since nothing between
    them writes rs and sums of words are exact mod 2^32.

    ``loads`` are the distinct ``(address register, buffer index)`` of
    all its loads, dropped ones included, so that a caller's entry check
    still crashes wherever single steps would; the input buffer
    ``buffers[k]`` is ``b<k>``.  ``reads`` are the registers the lines
    read before writing them, the closing ``bra``'s predicate included,
    and ``written`` those they write, which are all the block writes; each
    in order of first use in the lines.
    Only validated integers (register numbers, ``movi`` immediates, fold
    counts, buffer indices) and the fixed strings above enter the source.
    """
    block = instructions[start:end]
    loads = list(dict.fromkeys((i.addr_reg, buffers.index(i.buffer)) for i in block if i.opcode == "ld"))
    lines, reads, written = [], [], []

    def read(reg):
        if reg not in written and reg not in reads:
            reads.append(reg)
        return f"x{reg}"

    kept = []  # backwards: (pc, k) per line, k the equal adds folded into it
    overwritten = set()  # registers a kept write sets before anything reads them
    for pc in range(end - 1, start - 1, -1):
        ins = instructions[pc]
        if hooked:
            kept.append((pc, 1))
        elif ins.dest in overwritten:
            continue  # dropped: no value it makes is read
        elif kept and instructions[kept[-1][0]] == ins and ins.opcode in ("iadd", "isub") and (
            ins.srcs[0] == ins.dest != ins.srcs[1]
        ):
            kept[-1] = (pc, kept[-1][1] + 1)
        else:
            kept.append((pc, 1))
            overwritten.add(ins.dest)  # None for the closing bra
            overwritten.difference_update(ins.srcs)
            overwritten.discard(ins.addr_reg)
    for pc, k in reversed(kept):
        ins = instructions[pc]
        if ins.opcode == "bra":  # only ever the last instruction
            if ins.srcs:
                read(ins.srcs[0])
            continue
        if ins.opcode == "ld":
            buf = f"b{buffers.index(ins.buffer)}"
            value = _VALUE["ld"].format(buf=buf, a=read(ins.addr_reg))
        else:
            a, b = (*(read(reg) for reg in ins.srcs), None, None)[:2]
            if k > 1:
                b = f"{k} * {b}"
            value = _VALUE[ins.opcode].format(a=a, b=b, imm=ins.imm, cmp=_SETP_CMP.get(ins.cond))
        lines.append(f"x{ins.dest} = {value}")
        if hooked:
            lines.append(f"if hook == {pc}: x{ins.dest} ^= mask")
        if ins.dest not in written:
            written.append(ins.dest)
    return lines, loads, reads, written


def _compile_run(
    instructions: tuple[Instruction, ...],
    start: int,
    end: int,
    buffers: tuple[str, ...],
    hooked: bool = False,
):
    """One function ``f(regs, members, lanes, icnt, writes, bufs)`` for the
    block ``instructions[start:end]``; ``hooked`` adds the fault hook's
    parameters ``lane, at, mask``.

    If some lane of ``lanes`` would load out of bounds it returns -1 and
    changes nothing.  Otherwise it applies the block to each lane in turn,
    counts it, and returns the lanes that take the closing conditional
    ``bra`` (0 when there is none).  No ld address is written inside the
    block before its ld, so every address is a register value at block
    entry and the check can come first; it covers the loads the body
    drops as well.  Hooked, it inverts ``mask`` in the value instruction
    ``at`` writes on lane ``lane``, where the instruction writes it.  The
    lane's body is :func:`_block_source`'s: unhooked, it computes each
    written register's value at the end of the block, with overwritten
    writes dropped and repeated adds folded; hooked, every instruction.
    iCnts, write records and cycles count every instruction either way.
    """
    body, loads, reads, written = _block_source(instructions, start, end, buffers, hooked)
    closing = instructions[end - 1]
    taken = f"x{closing.srcs[0]}" if closing.opcode == "bra" and closing.srcs else None
    length = end - start
    writing = length - (closing.opcode == "bra")
    lines = [f"def f(regs, members, lanes, icnt, writes, bufs{', lane, at, mask' if hooked else ''}):"]
    for k in dict.fromkeys(k for _, k in loads):
        lines += [f"    b{k} = bufs[{k}]", f"    s{k} = len(b{k})"]
    if loads:
        checks = (_OUT_OF_BOUNDS.format(a=f"r[{reg}]", size=f"s{k}") for reg, k in loads)
        lines += [
            "    for li in lanes:",
            "        r = regs[members[li]]",
            f"        if {' or '.join(checks)}:",
            "            return -1",
        ]
    lines += [
        "    taken = 0",
        "    for li in lanes:",
        "        t = members[li]",
        "        r = regs[t]",
        *(["        hook = at if li == lane else -1"] if hooked else []),
        *(f"        x{reg} = r[{reg}]" for reg in reads),
        *(f"        {line}" for line in body),
        *(f"        r[{reg}] = x{reg}" for reg in written),
        "        n = icnt[t]",
        f"        icnt[t] = n + {length}",
        "        if writes is not None:",
        f"            writes[t].extend(range(n + 1, n + {writing + 1}))",
    ]
    if taken is not None:
        lines += [f"        if {taken} != 0:", "            taken |= 1 << li"]
    lines.append("    return taken")
    return _generate("\n".join(lines) + "\n", f"<{'hooked ' if hooked else ''}run {start}:{end}>")


@lru_cache(maxsize=None)  # one per opcode and setp condition
def _value_of(opcode: str, cond: str | None):
    """``f(r, srcs, imm)``: the value a register-only instruction writes,
    given its thread's registers ``r``, for single steps one lane at a time."""
    value = _VALUE[opcode].format(a="r[srcs[0]]", b="r[srcs[1]]", imm="imm", cmp=_SETP_CMP.get(cond))
    return _generate(f"def f(r, srcs, imm):\n    return {value}\n", f"<{opcode}>")


# ``f(buf, addr)``: the word an ld of ``addr`` reads, or None when it crashes.
_load = _generate(
    "def f(buf, addr):\n"
    f"    if {_OUT_OF_BOUNDS.format(a='addr', size='len(buf)')}:\n"
    "        return None\n"
    f"    return {_VALUE['ld'].format(buf='buf', a='addr')}\n",
    "<ld>",
)


class _Runs:
    """The fused runs of one program: ``end[pc]`` is the end of the run
    holding pc (``pc`` itself when pc is in none), ``fused[pc]`` the compiled
    form of the run starting at pc, ``buffers`` the input buffers its loads
    read, in the order the compiled runs take them, and, made on first use,
    the prefix sums of op cycles per cost table and ``hooked[pc]``, the run
    starting at pc compiled with the fault hook (:meth:`hooked_run`).

    A run is a basic block: a maximal straight line of register-writing
    instructions (``ld`` included) that no branch enters except at its first
    instruction, closed by the ``bra`` that follows it, if one does.  It is
    cut before an ``ld`` whose address register an earlier instruction of
    the run writes.  ``st`` never joins a run: lane-major order would
    reorder a warp's store stream if a run held two.  Nothing inside a run
    sees a register between its instructions, so ``fused`` and ``lone``
    compute each written register's value at the run's end: they drop a
    write that a later one overwrites before any read, and fold k equal
    ``iadd`` (``isub``) ``rd, rd, rs`` into ``rd ± k * rs`` mod 2^32 (see
    :func:`_block_source`).  A fault inside a run is the one case that
    needs each instruction's value, and ``hooked`` keeps them all.

    A fused issue always starts at the first instruction of a run: a single
    step inside a run happens only when the run would pass the budget, and
    then so would the rest of the run after it.

    ``lone``, made on first use by :meth:`lone_run`, is the whole program
    compiled to run one thread alone: registers in locals, a ``while``
    loop that dispatches on the pc of each block start and of each
    instruction in no block, block bodies from the same expression
    tables, iCnt counted per block, ``st`` appended to the stream, ``bar``
    counted as a release (the thread is the only one live), ``exit``
    returning.  It hands the thread back, unchanged since its last block,
    when a block would take its iCnt past the budget, when a ``st``,
    ``bar`` or ``bra`` would issue at the budget, when a load or store
    would be out of bounds, and when its pc lies inside a block; ``issue``
    then decides the crash or the hang as it does for any warp.
    """

    __slots__ = ("buffers", "end", "fused", "hooked", "instructions", "lone", "prefixes")

    def __init__(self, instructions: tuple[Instruction, ...]):
        self.instructions = instructions
        targets = {ins.target for ins in instructions if ins.opcode == "bra"}
        self.buffers = tuple(dict.fromkeys(i.buffer for i in instructions if i.opcode == "ld"))
        # Compiled now: execute asks for the runs before it allocates register
        # files, so compiling's transient memory is not added to theirs.
        self.end = end = list(range(len(instructions)))
        self.fused = {}
        pc = 0
        # The last instruction is exit or bra, so every run ends before it.
        while pc < len(instructions):
            start, written = pc, set()
            while (ins := instructions[pc]).opcode in WRITING_OPS:
                if ins.opcode == "ld" and ins.addr_reg in written:
                    break
                written.add(ins.dest)
                pc += 1
                if pc in targets:
                    break
            else:
                if ins.opcode == "bra" and pc > start:
                    pc += 1  # the closing branch
            if pc == start:  # st, bar, exit or a lone bra: single steps
                pc += 1
                continue
            end[start:pc] = [pc] * (pc - start)
            self.fused[start] = _compile_run(instructions, start, pc, self.buffers)
        self.prefixes: dict[tuple[int, ...], list[int]] = {}
        self.hooked: dict[int, object] = {}
        self.lone = None

    def hooked_run(self, start: int):
        """The run starting at ``start`` compiled with the fault hook, for
        an issue that runs the faulted instruction.  One per run, whichever
        instruction of it is faulted: a form per fault position would cost
        a compile for nearly every site of a sampled campaign."""
        f = self.hooked.get(start)
        if f is None:
            f = self.hooked[start] = _compile_run(
                self.instructions, start, self.end[start], self.buffers, hooked=True
            )
        return f

    def lone_run(self):
        """``(f, stored)``: the program compiled to run one thread alone
        (:func:`~warpshield.lone.compile_lone`) and the output buffers it
        stores to, in the order ``f`` takes them.  Compiled on first use,
        so a command that never finishes a ``ThreadRun`` never pays."""
        if self.lone is None:
            from .lone import compile_lone

            self.lone = compile_lone(self.instructions, self.end, self.buffers)
        return self.lone

    def prefix(self, op_cycles: dict[str, int]) -> list[int]:
        key = tuple(op_cycles[op] for op in _DEFAULT_OP_CYCLES)
        prefix = self.prefixes.get(key)
        if prefix is None:
            prefix = [0]
            for ins in self.instructions:
                prefix.append(prefix[-1] + op_cycles[ins.opcode])
            self.prefixes[key] = prefix
        return prefix


_RUNS_KEPT = 8  # programs; suite, the widest command, runs seven in turn
_runs_by_id: dict[int, _Runs] = {}


def _runs_of(instructions: tuple[Instruction, ...]) -> _Runs:
    # Keyed by identity: hashing the instruction tuple costs more than a warp
    # run.  An entry holds its tuple, so the id cannot be reused while cached.
    runs = _runs_by_id.get(id(instructions))
    if runs is None:
        if len(_runs_by_id) >= _RUNS_KEPT:
            del _runs_by_id[next(iter(_runs_by_id))]
        runs = _runs_by_id[id(instructions)] = _Runs(instructions)
    return runs


def _byte_lanes(first: int) -> tuple[tuple[int, ...], ...]:
    """``table[b]``: the lanes ``first + i`` for the bits ``i`` that the byte ``b`` sets."""
    table = [()]
    for lane in range(first, first + 8):
        table += [lanes + (lane,) for lanes in table]
    return tuple(table)


_BYTE_LANES = tuple(_byte_lanes(first) for first in range(0, WARP_SIZE, 8))


@lru_cache(maxsize=1024)
def _lanes(mask: int) -> tuple[int, ...]:
    # Lane masks repeat across issues and across runs, so each is cached;
    # the fixtures' masks outnumber the cache, so a miss decodes by bytes.
    b0, b1, b2, b3 = _BYTE_LANES
    return b0[mask & 255] + b1[mask >> 8 & 255] + b2[mask >> 16 & 255] + b3[mask >> 24]


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
    """``inputs`` checked against ``program`` and masked, or ``inputs``
    itself, checked, when it is a :class:`WordInputs` already."""
    validate_inputs(program, inputs)
    if isinstance(inputs, WordInputs):
        return inputs
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
    Protection replicas run warps this way, and so does fault injection,
    from launch for a site whose store meets a warp-mate's; every other
    site resumes its thread alone in a :class:`ThreadRun`.  A profile
    records each injected warp's write trace in such a run.

    Each issue runs a whole basic block over the warp's active lanes (see
    the module docstring).  It steps one instruction at a time instead when
    a lane would load out of bounds in the block, so the crash lands where
    single steps put it, and when the budget may run out inside the block.
    ``register_writes`` holds, per thread, the dynamic numbers of its
    register-writing instructions, never those of a ``bra``; a thread not
    launched holds ``()``.

    CTAs run one after another and never share registers, so each CTA's
    warps and register files are made when it starts and dropped when the
    next one does: a run holds one CTA's registers, whatever the kernel's
    size.  Write lists are made for the launched threads alone, so a
    warp-filtered run makes one warp's.
    """
    if budget < 1:
        raise ValidationError("instruction budget must be positive")
    in_bufs = word_inputs(program, inputs)
    costs = (cost_table or DEFAULT_COST_TABLE).op_cycles
    runs = _runs_of(program.instructions)

    total = program.total_threads
    launched = range(program.num_ctas)
    members = range(total)  # the launched threads
    if warp_filter is not None:
        cta, wid = warp_filter
        if not (0 <= cta < program.num_ctas and 0 <= wid * WARP_SIZE < program.cta_size):
            raise ValidationError(f"warp filter {warp_filter} matches no warp")
        launched = [cta]
        members = program.launch_order(cta)[wid * WARP_SIZE : (wid + 1) * WARP_SIZE]
    writes = None
    if record_writes:
        # Made before the run and frozen after it, each in one pass: made
        # or frozen CTA by CTA, among the run's own allocations, the lists
        # cost the garbage collector a tenth of a fault-free run.
        writes = [()] * total
        for t in members:
            writes[t] = []
    state = _State(
        icnt=[0] * total,
        regs={},
        writes=writes,
        outputs={name: [0] * size for name, size in program.output_buffers},
        streams={} if record_stores else None,
        stores={},
    )
    regs = state.regs
    prefix = runs.prefix(costs)
    f_thread = fault.thread_id if fault is not None else -1
    per_warp_cycles: dict[tuple[int, int], int] = {}
    termination = COMPLETED
    error = None
    try:
        for cta in launched:
            order = program.launch_order(cta)
            warps = [
                _WarpCtx((cta, wid), order[start : start + WARP_SIZE])
                for wid, start in enumerate(range(0, len(order), WARP_SIZE))
                if warp_filter in (None, (cta, wid))
            ]
            regs.clear()
            for wp in warps:
                for t in wp.members:
                    r = regs[t] = [0] * REGISTER_COUNT
                    r[TID_REGISTER] = t
                    r[CTAID_REGISTER] = cta
            f_warp = next((wp for wp in warps if f_thread in wp.members), None)
            try:
                _run_cta(warps, _issuer(runs, prefix, in_bufs, budget, state, fault, f_warp))
            finally:  # a crash or a hang ends the run inside this CTA
                per_warp_cycles.update((wp.key, wp.cycles) for wp in warps if wp.issued)
    except _Abort as abort:
        termination = abort.kind
        error = abort.message

    streams = state.streams
    if writes is not None:
        for t in members:  # each list freed as its tuple is made
            writes[t] = tuple(writes[t])
    return ExecutionResult(
        outputs=state.outputs,
        per_thread_icnt=state.icnt,
        cycles=sum(per_warp_cycles.values()),
        termination=termination,
        fault_applied=state.fault_applied,
        per_warp_cycles=per_warp_cycles,
        per_warp_stores=state.stores,
        register_writes=writes,
        store_streams=(
            {k: tuple(v) for k, v in streams.items()} if streams is not None else None
        ),
        error=error,
    )


def _run_cta(warps: list[_WarpCtx], issue) -> None:
    """Issue the warps of one CTA until every thread has exited, releasing
    the barrier each time nothing else can run."""
    while True:
        ran = False
        for wp in warps:
            while wp.frags:
                issue(wp)
                ran = True
        if not ran and not _release(warps):
            return


def _release(warps) -> bool:
    """Release the CTA's barrier if a fragment waits at it: once no fragment
    can run, every live thread is waiting."""
    if not any(wp.waiting for wp in warps):
        return False
    for wp in warps:
        wp.frags.extend(wp.waiting)
        wp.waiting.clear()
        wp.phase += 1
    return True


def _issuer(
    runs: _Runs,
    prefix: list[int],
    in_bufs: WordInputs,
    budget: int,
    state: _State,
    fault: "FaultSite | None",
    f_warp: _WarpCtx | None,
):
    """``issue(wp)``, which issues the next fragment of warp ``wp``, for one
    run: its state, its budget and its fault, whose thread is in warp
    ``f_warp`` (None when no launched warp holds it)."""
    instructions = runs.instructions
    run_end = runs.end
    fused = runs.fused
    load_bufs = [in_bufs[name] for name in runs.buffers]
    icnt, regs, writes = state.icnt, state.regs, state.writes
    out_bufs, streams, per_warp_stores = state.outputs, state.streams, state.stores
    if fault is not None:
        f_thread, f_dyn, f_mask = fault.thread_id, fault.dyn_instr, 1 << fault.bit
    else:
        f_thread, f_dyn, f_mask = -1, -1, 0
    f_lane = f_warp.members.index(f_thread) if f_warp is not None else -1
    f_bit = 1 << f_lane if f_warp is not None else 0

    def step(wp: _WarpCtx, pc: int, lanes) -> int:
        """Issue instruction ``pc`` alone to ``lanes``, one lane after
        another; return the lanes a conditional ``bra`` takes."""
        ins = instructions[pc]
        op = ins.opcode
        members = wp.members
        if op in WRITING_OPS:
            dest = ins.dest
            if op == "ld":
                buf = in_bufs[ins.buffer]
                a = ins.addr_reg
            else:
                value = _value_of(op, ins.cond)
                srcs = ins.srcs
                imm = ins.imm
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                r = regs[t]
                if op == "ld":
                    v = _load(buf, r[a])
                    if v is None:
                        raise _Abort(
                            CRASHED,
                            f"thread {t} loaded out of bounds: {ins.buffer}[{r[a]}] (size {len(buf)})",
                        )
                else:
                    v = value(r, srcs, imm)
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    state.fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
        elif op == "st":
            buf = out_bufs[ins.buffer]
            size = len(buf)
            a = ins.addr_reg
            s = ins.srcs[0]
            stream = streams.setdefault(wp.key, []) if streams is not None else None
            phase = wp.phase
            for li in lanes:
                t = members[li]
                icnt[t] += 1
                r = regs[t]
                addr = r[a]
                if addr >= size:
                    raise _Abort(
                        CRASHED,
                        f"thread {t} stored out of bounds: {ins.buffer}[{addr}] (size {size})",
                    )
                v = r[s]
                buf[addr] = v
                if stream is not None:
                    stream.append((ins.buffer, addr, v, phase))
        else:  # bra, bar, exit
            for li in lanes:
                icnt[members[li]] += 1
            if op == "bra" and ins.srcs:
                p = ins.srcs[0]
                taken = 0
                for li in lanes:
                    if regs[members[li]][p] != 0:
                        taken |= 1 << li
                return taken
        return 0

    def issue(wp: _WarpCtx) -> None:
        frags = wp.frags
        if len(frags) == 1:
            frag = frags.pop()
        else:
            best = 0
            for i in range(1, len(frags)):
                if frags[i][0] < frags[best][0]:
                    best = i
            frag = frags.pop(best)
            i = 0
            while i < len(frags):  # merge fragments reconverged at this pc
                if frags[i][0] == frag[0]:
                    frag[1] |= frags.pop(i)[1]
                else:
                    i += 1
        pc, mask = frag
        lanes = _lanes(mask)

        # Issue a whole run at once unless the budget may run out in it; a
        # single step leaves pc inside the run only then (see _Runs).  No
        # other fragment lies inside the run: fragments enter a run only at
        # its first instruction (branch target, fall-through, barrier
        # resume), and one that a single step leaves inside a run is still
        # its warp's minimum, so it is picked next.
        end = run_end[pc]
        if end > pc and wp.issued + end - pc <= budget:
            faulted = -1  # the faulted instruction, when this issue runs it
            if wp is f_warp and mask & f_bit:
                at = pc + f_dyn - icnt[f_thread] - 1
                if pc <= at < end and instructions[at].dest is not None:
                    faulted = at
            if faulted < 0:
                taken = fused[pc](regs, wp.members, lanes, icnt, writes, load_bufs)
            else:
                # No ld address is written inside a run, so the flip moves
                # no load of the run and the bounds check still comes first.
                taken = runs.hooked_run(pc)(
                    regs, wp.members, lanes, icnt, writes, load_bufs, f_lane, faulted, f_mask
                )
                if taken >= 0:
                    state.fault_applied = True
            if taken < 0:
                # A lane would load out of bounds, and nothing has changed:
                # single steps, instruction-major, reach that crash as the
                # hardware would, with every earlier write of every lane.
                for s in range(pc, end):
                    wp.issued += 1
                    wp.cycles += prefix[s + 1] - prefix[s]
                    taken = step(wp, s, lanes)
            else:
                wp.issued += end - pc
                wp.cycles += prefix[end] - prefix[pc]
        else:
            end = pc + 1
            wp.issued += 1
            wp.cycles += prefix[end] - prefix[pc]
            hung = -1
            if wp.issued > budget and instructions[pc].opcode != "exit":
                # Some lane may pass the budget: issue to the lanes before the
                # first that does, then stop.
                for k, li in enumerate(lanes):
                    t = wp.members[li]
                    if icnt[t] >= budget:
                        hung = t
                        mask &= (1 << li) - 1
                        lanes = lanes[:k]
                        break
            taken = step(wp, pc, lanes)
            if hung >= 0:
                icnt[hung] += 1
                raise _Abort(HUNG, f"thread {hung} exceeded budget {budget}")

        ins = instructions[end - 1]
        op = ins.opcode
        if op == "bra":
            if not ins.srcs:
                taken = mask
            if taken:
                frags.append([ins.target, taken])
            if mask & ~taken:
                frags.append([end, mask & ~taken])
        elif op == "bar":
            frag[0] = end
            wp.waiting.append(frag)
        elif op != "exit":  # an exited fragment is dropped
            if op == "st":
                per_warp_stores[wp.key] = per_warp_stores.get(wp.key, 0) + len(lanes)
            frag[0] = end
            frags.append(frag)

    return issue


class ThreadRun:
    """One thread run on its own, as its warp runs it, held between issues
    so that it can be copied and resumed.

    A new ``ThreadRun`` is the fault-free thread at launch.
    :meth:`next_issue` names its coming issue, :meth:`advance` makes it,
    :meth:`fork` copies the run at that boundary (armed with a fault, or
    with its bit already flipped), and :meth:`finish` runs a run to its end
    in the program's lone form.  Every run records its stores; a copy's
    stream starts at the fork.  The thread lives in a one-member warp
    context, so every issue goes through the same :func:`_issuer` as
    :func:`execute`, and with one lane the issue count always equals the
    thread's iCnt.  Output buffers are not kept, so a
    run allocates O(1) memory whatever the kernel's thread count.

    A thread runs alone as it runs in its warp: it reads only input
    buffers, so its path, registers, crash, hang and stores depend on it
    alone, and each store's phase counts its own barrier waits, since a
    release happens only when every live thread waits.  What a run of one
    thread cannot tell is the order of its stores against a warp-mate's
    store to the same location in the same phase; for that the whole warp
    runs from launch, as ``execute(..., warp_filter=key)``.
    """

    __slots__ = ("warp", "termination", "_state", "_runs", "_prefix", "_inputs", "_budget", "_issue", "_armed")

    def __init__(
        self, program: KernelProgram, inputs: WordInputs, thread: int, key: tuple[int, int], budget: int
    ):
        if budget < 1:
            raise ValidationError("instruction budget must be positive")
        validate_inputs(program, inputs)
        cta, wid = key
        order = program.launch_order(cta) if 0 <= cta < program.num_ctas else ()
        if wid < 0 or thread not in order[wid * WARP_SIZE : (wid + 1) * WARP_SIZE]:
            raise ValidationError(f"thread {thread} is not in warp {key}")
        regs = [0] * REGISTER_COUNT
        regs[TID_REGISTER] = thread
        regs[CTAID_REGISTER] = cta
        self._runs, self._inputs, self._budget = _runs_of(program.instructions), inputs, budget
        self._prefix = self._runs.prefix(DEFAULT_COST_TABLE.op_cycles)
        outputs = {name: _Unkept(size) for name, size in program.output_buffers}
        self._begin(_WarpCtx(key, (thread,)), 0, regs, outputs)

    def _begin(self, ctx: _WarpCtx, icnt: int, regs: list[int], outputs, fault: "FaultSite | None" = None):
        """Hold the one thread of ``ctx`` with iCnt ``icnt`` and registers
        ``regs``, armed with ``fault``, its records empty."""
        thread = ctx.members[0]
        self.warp = ctx
        self.termination = COMPLETED
        self._state = _State(
            icnt={thread: icnt},
            regs={thread: regs},
            writes=None,
            outputs=outputs,
            streams={ctx.key: []},
            stores={},
        )
        self._armed = fault is not None
        self._issue = _issuer(
            self._runs, self._prefix, self._inputs, self._budget, self._state, fault, ctx if self._armed else None
        )

    @property
    def thread(self) -> int:
        return self.warp.members[0]

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._runs.instructions

    @property
    def icnt(self) -> int:
        """The thread's dynamic instructions so far."""
        return self._state.icnt[self.thread]

    @property
    def stream(self) -> list[tuple[str, int, int, int]]:
        """The run's stores, from launch or, in a copy, from the fork, as
        ``execute`` records them."""
        return self._state.streams[self.warp.key]

    def next_issue(self) -> tuple[int, int] | None:
        """``(pc, end)`` of the coming issue: it runs instructions ``pc`` to
        ``end - 1``.  None once the thread has exited.  A barrier release,
        if due, happens here: the thread is the only one live."""
        wp = self.warp
        if not wp.frags and not _release((wp,)):
            return None
        pc = wp.frags[0][0]
        end = self._runs.end[pc]
        if not (end > pc and wp.issued + end - pc <= self._budget):  # as issue decides
            end = pc + 1
        return pc, end

    def advance(self) -> None:
        """Make the issue :meth:`next_issue` names."""
        self._issue(self.warp)

    def fork(self, fault: "FaultSite", written: int | None = None) -> "ThreadRun":
        """A copy of this run at the boundary before the coming issue: the
        thread's registers, iCnt, fragment or barrier wait, barrier phase
        and issue count, with an empty store stream.

        The copy is armed with ``fault``, whose dynamic instruction has not
        issued yet.  With ``written``, that instruction has issued and wrote
        register ``written``, which nothing has read since: the copy gets
        the fault's bit flipped in that register instead, as the faulted
        run would have it now.
        """
        wp, state = self.warp, self._state
        ctx = _WarpCtx(wp.key, wp.members)
        ctx.frags = [frag[:] for frag in wp.frags]
        ctx.waiting = [frag[:] for frag in wp.waiting]
        ctx.issued, ctx.phase = wp.issued, wp.phase
        regs = state.regs[self.thread][:]
        applied = state.fault_applied
        if written is not None:
            regs[written] ^= 1 << fault.bit
            applied, fault = True, None
        twin = object.__new__(ThreadRun)
        twin._runs, twin._prefix, twin._inputs, twin._budget = self._runs, self._prefix, self._inputs, self._budget
        twin._begin(ctx, self.icnt, regs, state.outputs, fault)
        twin._state.fault_applied = applied
        return twin

    def finish(self) -> "ThreadRun":
        """Run to the end: completion, a crash or a hang.

        The run first makes, through ``issue``, any issue still due before
        its thread runs in the lone form: a pending barrier release, and the
        issues up to and including an armed fault's (its hooked block).
        Then it runs the program's ``lone`` form (see :class:`_Runs`),
        which hands back to ``issue`` for each instruction the thread might
        crash or hang on, or that lies inside a block, and resumes after
        it.  This is exact because a lone thread's crash, hang, path and
        stores depend on its own iCnt alone, so fused and single-stepped
        issues give the same result wherever the switch happens: it hangs
        exactly when it is about to issue an instruction other than
        ``exit`` with its iCnt at the budget.
        """
        from .lone import finish_alone

        try:
            finish_alone(self)
        except _Abort as abort:
            self.termination = abort.kind
        return self

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

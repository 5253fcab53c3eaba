"""Single-bit fault-space enumeration, injection campaigns, and outcome triage.

A fault site is a ``(thread, dynamic instruction, bit)`` coordinate.  The
space is trace-driven: enumeration walks the fault-free run and yields one
site per bit of every dynamic instruction that wrote a destination register,
so user-supplied lists are the only way a site can reference something that
never executes (those classify as masked with detail ``not-executed``).

Campaigns inject warp-locally.  A flipped bit in thread *t* can change only
what *t*'s warp does: threads read input buffers and never each other's
output, a barrier delays a warp without changing its own store stream, and
the injected budget covers every fault-free thread, so no other warp can
crash, hang or store anything new.  Each site therefore re-runs only the
faulted warp.  Its store stream, tagged with barrier phases, is replayed
with :func:`~warpshield.interp.replay_stores` together with the golden
stores of the other warps to every location it touches, which puts every
store to those locations in the order the full faulted run issues them,
even when the fault moves a store across a barrier.  Locations the warp does
not touch keep their golden values, so comparing the touched ones
classifies the site exactly, without a full-kernel run.

Nor does a site re-run its warp from launch.  Until the faulted thread
first reads the flipped register, the faulted run equals the golden run but
for that register.  So one fault-free :class:`~warpshield.interp.WarpRun`
of each warp that hosts sites serves as a golden checkpoint: as it advances
issue by issue, each site's run forks from it at the issue that first reads
the flipped value, and a site whose value is overwritten before any read,
or never read before its thread exits, is masked with no run at all (the
exact form of def-use pruning: Hari et al., Relyzer, ASPLOS 2012; Nie et
al., MICRO 2018).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import CampaignRefused, ValidationError
from .interp import (
    COMPLETED,
    CRASHED,
    DEFAULT_BUDGET,
    ExecutionResult,
    WarpRun,
    _lanes,
    execute,
    replay_stores,
    word_inputs,
)
from .ir import WARP_SIZE, Instruction, KernelProgram

MASKED = "masked"
SDC = "sdc"
OTHER = "other"

_OUTCOME_KINDS = (MASKED, SDC, OTHER)
_DETAILS = (None, "crashed", "hung", "not-executed")


@dataclass(frozen=True, order=True)
class FaultSite:
    thread_id: int
    dyn_instr: int  # 1-based ordinal in the thread's dynamic instruction stream
    bit: int

    def __post_init__(self):
        if not (0 <= self.bit <= 31):
            raise ValidationError(f"bit {self.bit} outside [0, 31]")
        if self.dyn_instr < 1:
            raise ValidationError("dyn_instr is 1-based")
        if self.thread_id < 0:
            raise ValidationError("thread_id must be non-negative")


@dataclass(frozen=True)
class Outcome:
    kind: str  # masked | sdc | other
    detail: str | None = None  # crashed | hung | not-executed

    def __post_init__(self):
        if self.kind not in _OUTCOME_KINDS or self.detail not in _DETAILS:
            raise ValidationError(f"bad outcome {self.kind!r}/{self.detail!r}")


@dataclass
class CampaignResult:
    per_site: dict[FaultSite, Outcome]
    per_thread_counts: dict[int, tuple[int, int, int]]  # tid -> (masked, sdc, other)
    seed: int | None = None

    def counts(self, thread_id: int) -> tuple[int, int, int]:
        return self.per_thread_counts.get(thread_id, (0, 0, 0))


def default_budget(golden: ExecutionResult) -> int:
    """Hang threshold for injected runs: 10x the fault-free peak iCnt, floor 10,000."""
    return max(10_000, 10 * golden.max_icnt())


def golden_run(
    program: KernelProgram, inputs: dict[str, list[int]], budget: int = DEFAULT_BUDGET
) -> ExecutionResult:
    """Fault-free reference run with the write trace and store streams recorded.

    Raises :class:`CampaignRefused` if the kernel itself crashes or hangs,
    since outcomes are only defined against a clean golden output.
    """
    golden = execute(program, inputs, budget=budget, record_writes=True, record_stores=True)
    if not golden.completed:
        raise CampaignRefused(
            f"golden run of {program.name!r} terminated {golden.termination}: {golden.error}"
        )
    return golden


def classify_outcome(golden: ExecutionResult, result: ExecutionResult) -> Outcome:
    if result.termination != COMPLETED:
        return Outcome(OTHER, "crashed" if result.termination == CRASHED else "hung")
    if result.outputs == golden.outputs:
        return Outcome(MASKED, None if result.fault_applied else "not-executed")
    return Outcome(SDC)


def enumerate_fault_space(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    threads: list[int] | None = None,
    *,
    golden: ExecutionResult | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[FaultSite]:
    """Every (thread, register-writing dynamic instruction, bit) site, in
    (thread, dyn_instr, bit) lexicographic order."""
    if golden is None:
        golden = golden_run(program, inputs, budget)
    if threads is None:
        threads = range(program.total_threads)
    return list(FaultSpace(golden, threads))


class FaultSpace(Sequence):
    """The sites of :func:`enumerate_fault_space` as a lazy sequence.

    Indexing builds one site, so :func:`sample_sites` on a small fraction of
    a large space builds only the sites it draws.  A sample drawn from it
    equals one drawn from the list, because :meth:`random.Random.sample`
    picks indices from the length alone.
    """

    def __init__(self, golden: ExecutionResult, threads):
        if golden.register_writes is None:
            raise ValidationError("golden result lacks the register write trace")
        self._writes = [(t, golden.register_writes[t]) for t in sorted(threads)]
        self._starts = list(accumulate((32 * len(w) for _, w in self._writes), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index: int) -> FaultSite:
        if not -len(self) <= index < len(self):
            raise IndexError("fault site index out of range")
        index %= len(self)
        k = bisect_right(self._starts, index) - 1  # skips threads with no sites
        thread, writes = self._writes[k]
        offset = index - self._starts[k]
        return FaultSite(thread, writes[offset // 32], offset % 32)

    def __iter__(self):
        for thread, writes in self._writes:
            for dyn in writes:
                for bit in range(32):
                    yield FaultSite(thread, dyn, bit)


def sample_sites(sites: Sequence[FaultSite], fraction: float, seed: int) -> list[FaultSite]:
    """Uniform sample without replacement; deterministic per seed, sorted output.

    ``fraction=1`` returns the input unchanged.  Smaller fractions keep at
    least one site so a sampled campaign always measures something.
    """
    if not 0 < fraction <= 1:
        raise ValidationError(f"sample fraction {fraction} outside (0, 1]")
    if fraction == 1:
        return list(sites)
    if not sites:
        return []
    k = max(1, round(fraction * len(sites)))
    rng = random.Random(f"sites:{seed}")
    return sorted(rng.sample(sites, k))


def run_campaign(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    sites: list[FaultSite],
    *,
    budget: int | None = None,
    golden: ExecutionResult | None = None,
    seed: int | None = None,
) -> CampaignResult:
    """Classify every site against the golden run, re-running only its warp
    from the golden state before the fault's effect first matters.

    One fault-free :class:`~warpshield.interp.WarpRun` of each warp that
    hosts sites advances issue by issue.  A site enters at the issue whose
    block executes its dynamic instruction, and its written register is
    then followed along the faulted lane's issues:

    - a site on no register-writing instruction of its thread's golden
      path, past that path's end or on a thread never launched is masked,
      not executed, without a run;
    - a site whose register is overwritten before it is read, or never read
      before the lane exits, is masked without a run;
    - otherwise the run forks at the issue that first reads it: at the
      fault's own issue, armed with the fault, when its block reads the
      value, or at a later issue with the bit already flipped.

    A read is a source register, the address register of an ``ld`` or
    ``st``, the value register of an ``st`` or the predicate of a ``bra``;
    an instruction that reads a register and rewrites it reads it.  This
    is exact: until the first read, the faulted run equals the golden run
    but for that one register, and a value never read cannot change a
    branch, an address, a store, a crash or an iCnt.

    A forked run that crashes or hangs is ``other``.  Otherwise the
    locations the warp stores to, in the golden or the faulted run, are
    decided by replaying the faulted stream together with the golden
    stores of every other warp to those locations, in full-run order (a
    location no replayed store writes is 0).  Any difference from the golden
    output is ``sdc``, none is ``masked``.

    The sites of one warp share its fault-free pass, so they are classified
    in the pass's order; each outcome depends on its site alone, so the
    result does not depend on the order of ``sites``.  A list that repeats
    a site is refused.
    """
    if golden is None:
        golden = golden_run(program, inputs)
    if golden.store_streams is None:
        raise ValidationError("golden result lacks the store streams")
    if budget is None:
        budget = default_budget(golden)
    if budget < golden.max_icnt():
        raise ValidationError(
            f"budget {budget} is below the golden run's peak iCnt {golden.max_icnt()}"
        )
    per_site: dict[FaultSite, Outcome] = dict.fromkeys(sites)  # filled in below, in site order
    if len(per_site) != len(sites):
        raise ValidationError("site list repeats a site")
    words = word_inputs(program, inputs)
    writers = _location_writers(program, golden.store_streams)
    by_warp: dict[tuple[int, int], list[FaultSite]] = {}
    for site in sites:
        if site.thread_id < program.total_threads:
            by_warp.setdefault(_warp_key(program, site.thread_id), []).append(site)
        else:
            per_site[site] = _NOT_EXECUTED
    for key, warp_sites in by_warp.items():
        cursor = WarpRun(program, words, key, budget)
        own = {(buf, addr) for buf, addr, _, _ in golden.store_streams.get(key, ())}
        for site, run in _warp_forks(cursor, warp_sites, per_site):
            per_site[site] = _warp_outcome(golden, run, key, own, writers)
    tallies: dict[int, list[int]] = {}
    for site, outcome in per_site.items():
        tally = tallies.setdefault(site.thread_id, [0, 0, 0])
        tally[_OUTCOME_KINDS.index(outcome.kind)] += 1
    return CampaignResult(
        per_site=per_site,
        per_thread_counts={t: tuple(v) for t, v in sorted(tallies.items())},
        seed=seed,
    )


_MASKED = Outcome(MASKED)
_NOT_EXECUTED = Outcome(MASKED, "not-executed")
_SDC = Outcome(SDC)


def _warp_forks(cursor: WarpRun, sites: list[FaultSite], outcomes: dict):
    """Yield ``(site, finished faulted run)`` for each site of the cursor's
    warp whose flipped value is read, in the order the fault-free cursor
    reaches the forks; put every other site's outcome in ``outcomes``.

    Sites of one thread and dynamic instruction differ only in the bit, so
    they share every decision but their run.
    """
    instructions = cursor.instructions
    members = cursor.warp.members
    lane_of = {t: li for li, t in enumerate(members)}
    bits: dict[tuple[int, int], list[FaultSite]] = {}
    for site in sites:
        bits.setdefault((site.thread_id, site.dyn_instr), []).append(site)
    todo: dict[int, list[int]] = {}  # lane -> dynamic instructions not reached, last first
    for thread, dyn in sorted(bits, reverse=True):
        todo.setdefault(lane_of[thread], []).append(dyn)
    watched: dict[int, list[tuple[int, list[FaultSite]]]] = {}  # lane -> (register, sites)
    interest = sum(1 << li for li in todo)  # lanes with sites not yet decided
    scans: dict[tuple[int, int], tuple[dict[int, bool], bool]] = {}

    def first_access(start: int, end: int) -> tuple[dict[int, bool], bool]:
        """Per register, whether its first access in ``start:end`` reads
        it (True) or only writes it (False); and whether the range exits."""
        scan = scans.get((start, end))
        if scan is None:
            accessed: dict[int, bool] = {}
            exits = False
            for ins in instructions[start:end]:
                for reg in _reads(ins):
                    accessed.setdefault(reg, True)
                if ins.dest is not None:
                    accessed.setdefault(ins.dest, False)
                exits = ins.opcode == "exit"
            scan = scans[(start, end)] = (accessed, exits)
        return scan

    while interest:
        coming = cursor.next_issue()
        if coming is None:
            break
        pc, end, mask = coming
        forks = []
        for li in _lanes(mask & interest):
            t = members[li]
            n = cursor.icnt[t]
            dyns = todo.get(li, [])
            if li not in watched and dyns[-1] > n + end - pc:
                continue  # nothing of this lane's is due in this issue
            # (register, sites, first instruction to scan, register if written before this issue)
            follow = [(reg, group, pc, reg) for reg, group in watched.pop(li, ())]
            while dyns and dyns[-1] <= n + end - pc:
                group = bits[(t, dyns.pop())]
                at = pc + group[0].dyn_instr - n - 1
                dest = instructions[at].dest
                if dest is None:  # st, bra, bar or exit writes no register
                    outcomes.update(dict.fromkeys(group, _NOT_EXECUTED))
                else:
                    follow.append((dest, group, at + 1, None))
            kept = []
            for reg, group, start, written in follow:
                accessed, exits = first_access(start, end)
                read = accessed.get(reg)
                if read:
                    forks += ((site, written) for site in group)
                elif read is None and not exits:
                    kept.append((reg, group))
                else:  # overwritten before any read, or never read
                    outcomes.update(dict.fromkeys(group, _MASKED))
            if kept:
                watched[li] = kept
            elif not dyns:
                interest &= ~(1 << li)
        for site, written in forks:
            yield site, cursor.fork(site, written).finish()
        cursor.advance()
    for li, dyns in todo.items():  # past the end of the thread's path
        for dyn in dyns:
            outcomes.update(dict.fromkeys(bits[(members[li], dyn)], _NOT_EXECUTED))


def _reads(ins: Instruction) -> tuple[int, ...]:
    """The registers an instruction reads: its sources (an ``st``'s value,
    a ``bra``'s predicate) and the address register of an ``ld`` or ``st``."""
    return ins.srcs if ins.addr_reg is None else (*ins.srcs, ins.addr_reg)


def _location_writers(program: KernelProgram, streams) -> dict[str, list[tuple]]:
    """Per output location, the warps whose golden stream stores to it."""
    writers = {name: [()] * size for name, size in program.output_buffers}
    for key, stream in streams.items():
        alone = (key,)  # shared by every location only this warp writes
        for buf, addr, _, _ in stream:
            row = writers[buf]
            if not row[addr]:
                row[addr] = alone
            elif row[addr][-1] != key:
                row[addr] += alone
    return writers


def _warp_key(program: KernelProgram, thread_id: int) -> tuple[int, int]:
    cta = program.cta_of(thread_id)
    return (cta, program.launch_order(cta).index(thread_id) // WARP_SIZE)


def _warp_outcome(golden: ExecutionResult, run: WarpRun, key, own, writers) -> Outcome:
    """Outcome of a faulted run of warp ``key`` against the golden run;
    ``own`` is the set of locations the warp's golden stream stores to.

    Only the touched locations are replayed: the faulted stream and, in
    stream order, the other warps' golden stores to those locations, which
    is all :func:`~warpshield.interp.replay_stores` needs to order them as
    the full faulted run would.
    """
    if run.termination != COMPLETED:
        return classify_outcome(golden, run)
    stream = run.stream
    touched = own.union((buf, addr) for buf, addr, _, _ in stream)
    streams = {}
    for buf, addr in touched:
        for warp in writers[buf][addr]:
            if warp != key and warp not in streams:
                streams[warp] = [
                    record
                    for record in golden.store_streams[warp]
                    if (record[0], record[1]) in touched
                ]
    streams[key] = stream
    outputs = golden.outputs
    replayed = replay_stores({buf: {} for buf in outputs}, streams)
    if all(replayed[buf].get(addr, 0) == outputs[buf][addr] for buf, addr in touched):
        return _MASKED  # a forked run always reaches its fault
    return _SDC

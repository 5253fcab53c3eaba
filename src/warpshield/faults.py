"""Single-bit fault-space enumeration, injection campaigns, and outcome triage.

A fault site is a ``(thread, dynamic instruction, bit)`` coordinate.  The
space is trace-driven: enumeration walks the fault-free run and yields one
site per bit of every dynamic instruction that wrote a destination register,
so user-supplied lists are the only way a site can reference something that
never executes (those classify as masked with detail ``not-executed``).

Campaigns inject thread-locally.  A flipped bit in thread *t* can change
only what *t* does: threads read input buffers and never each other's
output, a barrier delays a thread without changing its own store stream,
and the injected budget covers every fault-free thread, so no other thread
can crash, hang or store anything new.  Each site therefore re-runs only
the faulted thread, alone.  Its stores, tagged with barrier phases, are
replayed with :func:`~warpshield.interp.replay_stores` together with the
golden stores of every other thread to every location it touches, which
puts every store to those locations in the order the full faulted run
issues them, even when the fault moves a store across a barrier.
Locations the thread does not touch keep their golden values, so
comparing the touched ones classifies the site exactly, without a
full-kernel run.

Phases order the thread's stores against every other store but one kind:
a warp-mate's store to the same location in the same phase, which only
lock-step orders (lanes issue in lane order).  A site whose thread, golden
or faulted, shares a location and a phase with a warp-mate's golden store
re-runs its whole warp from launch instead, as
``execute(..., warp_filter=key)``, the run protection makes of a faulted
replica, and the replay orders that warp's stream exactly.

Nor does a site re-run its thread from launch.  Until the faulted thread
first reads the flipped register, the faulted run equals the golden run but
for that register.  So one fault-free
:class:`~warpshield.interp.ThreadRun` per injected thread serves as a
golden checkpoint: as it advances issue by issue along the thread's own
path, each site's run forks from it at the issue that first reads the
flipped value, and a site whose value is overwritten before any read, or
never read before the thread exits, is masked with no run at all (the
exact form of def-use pruning: Hari et al., Relyzer, ASPLOS 2012; Nie et
al., MICRO 2018, whose thread-wise pruning injects one thread at a time
too).  It is the thread's only fault-free run: the stores it has recorded
when a site forks are the thread's golden stores before the fork, and
once it has passed the thread's last fork it runs on to the end for the
thread's whole golden store stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .errors import CampaignRefused, ValidationError
from .interp import (
    COMPLETED,
    CRASHED,
    DEFAULT_BUDGET,
    ExecutionResult,
    ThreadRun,
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


class _FaultSite(NamedTuple):
    thread_id: int
    dyn_instr: int  # 1-based ordinal in the thread's dynamic instruction stream
    bit: int


class FaultSite(_FaultSite):
    """One bit of one register write; sites sort by (thread, dyn_instr, bit)."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, thread_id: int, dyn_instr: int, bit: int):
        if not (0 <= bit <= 31):
            raise ValidationError(f"bit {bit} outside [0, 31]")
        if dyn_instr < 1:
            raise ValidationError("dyn_instr is 1-based")
        if thread_id < 0:
            raise ValidationError("thread_id must be non-negative")
        return tuple.__new__(cls, (thread_id, dyn_instr, bit))


class _Outcome(NamedTuple):
    kind: str  # masked | sdc | other
    detail: str | None = None  # crashed | hung | not-executed


class Outcome(_Outcome):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, kind: str, detail: str | None = None):
        if kind not in _OUTCOME_KINDS or detail not in _DETAILS:
            raise ValidationError(f"bad outcome {kind!r}/{detail!r}")
        return tuple.__new__(cls, (kind, detail))


class RunCounts:
    """How many sites a campaign decided with no run, by a run of the
    faulted thread alone, and by a run of its whole warp; and how many of
    its ``other`` sites crashed and how many hung."""

    __slots__ = ("without_run", "lone_thread", "full_warp", "crashed", "hung")

    def __init__(self, without_run: int = 0, lone_thread: int = 0, full_warp: int = 0, crashed: int = 0, hung: int = 0):
        self.without_run = without_run
        self.lone_thread = lone_thread
        self.full_warp = full_warp
        self.crashed = crashed
        self.hung = hung

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"RunCounts({fields})"

    def __iadd__(self, other: "RunCounts") -> "RunCounts":
        self.without_run += other.without_run
        self.lone_thread += other.lone_thread
        self.full_warp += other.full_warp
        self.crashed += other.crashed
        self.hung += other.hung
        return self

    def to_json(self) -> dict:
        return {
            "sites_without_run": self.without_run,
            "sites_by_lone_thread": self.lone_thread,
            "sites_by_full_warp": self.full_warp,
            "sites_crashed": self.crashed,
            "sites_hung": self.hung,
        }


class CampaignResult(NamedTuple):
    per_site: dict[FaultSite, Outcome]
    per_thread_counts: dict[int, tuple[int, int, int]]  # tid -> (masked, sdc, other)
    seed: int | None
    runs: RunCounts

    def counts(self, thread_id: int) -> tuple[int, int, int]:
        return self.per_thread_counts.get(thread_id, (0, 0, 0))


def default_budget(golden: ExecutionResult) -> int:
    """Hang threshold for injected runs: 10x the fault-free peak iCnt, floor 10,000."""
    return max(10_000, 10 * golden.max_icnt())


def golden_run(
    program: KernelProgram, inputs: dict[str, list[int]], budget: int = DEFAULT_BUDGET, *, record_writes: bool = True
) -> ExecutionResult:
    """Fault-free reference run with the store streams and, unless
    ``record_writes`` is false, every thread's write trace recorded: what
    :func:`run_campaign` scores against and :class:`FaultSpace` enumerates.

    Raises :class:`CampaignRefused` if the kernel itself crashes or hangs,
    since outcomes are only defined against a clean golden output.
    :func:`~warpshield.profiling.profile_kernel` records no write trace
    here; it takes each injected thread's from a run of its warp alone.
    """
    golden = execute(program, inputs, budget=budget, record_writes=record_writes, record_stores=True)
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

    ``golden`` is any fault-free run whose write trace holds ``threads``:
    :func:`golden_run`'s, which records every thread's, or a run of one
    warp alone, ``execute(..., warp_filter=key, record_writes=True)``,
    which records its members' and equals the full run's for them.
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
    """Classify every site against the golden run, re-running only its
    thread from the golden state before the fault's effect first matters.

    One fault-free :class:`~warpshield.interp.ThreadRun` per injected
    thread advances issue by issue along that thread's path.  A site enters
    at the issue whose block executes its dynamic instruction, and its
    written register is then followed along the thread's later issues:

    - a site on no register-writing instruction of its thread's golden
      path, past that path's end or on a thread never launched is masked,
      not executed, without a run;
    - a site whose register is overwritten before it is read, or never read
      before the thread exits, is masked without a run;
    - otherwise a copy of that run forks at the issue that first reads it:
      at the fault's own issue, armed with the fault, when its block reads
      the value, or at a later issue with the bit already flipped.

    A read is a source register, the address register of an ``ld`` or
    ``st``, the value register of an ``st`` or the predicate of a ``bra``;
    an instruction that reads a register and rewrites it reads it.  This
    is exact: until the first read, the faulted run equals the golden run
    but for that one register, and a value never read cannot change a
    branch, an address, a store, a crash or an iCnt.

    A forked run that crashes or hangs is ``other``.  Otherwise the
    locations the thread stores to, in the golden or the faulted run, are
    decided by replaying, in full-run order, the faulted run's stores, the
    thread's golden stores before the fork (what the fault-free run has
    recorded when the site forks) and every other thread's golden stores
    to those locations (a location no replayed store writes is 0).
    Any difference from the golden output is ``sdc``, none is ``masked``.
    When a store of the thread, golden or faulted, shares a location and a
    barrier phase with a warp-mate's golden store, only lock-step orders
    the two: that site re-runs its whole warp from launch, as
    ``execute(..., fault=site, warp_filter=key)`` (the run protection makes
    of a faulted replica), and replays the warp's stream instead.  The
    result's ``runs`` counts the sites decided with no run, by a
    one-thread run and by a warp run.

    The sites of one thread share its fault-free run, so they are run in
    the order that run reaches them and scored once it has run to its end;
    each outcome depends on its site alone, so the result does not depend
    on the order of ``sites``.  A list that repeats a site is refused.
    """
    words = word_inputs(program, inputs)  # ``inputs`` itself when masked already
    if golden is None:
        golden = golden_run(program, words)
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
    writers = _location_writers(program, golden.store_streams)
    warp_of = _warps_of(program, {s.thread_id for s in sites if s.thread_id < program.total_threads})
    by_warp: dict[tuple[int, int], list[FaultSite]] = {}
    for site in sites:
        key = warp_of.get(site.thread_id)
        if key is None:  # a thread never launched
            per_site[site] = _NOT_EXECUTED
        else:
            by_warp.setdefault(key, []).append(site)
    runs = RunCounts()
    for key, warp_sites in by_warp.items():
        scorer = _WarpScorer(program, words, budget, golden, key, writers)
        by_thread: dict[int, list[FaultSite]] = {}
        for site in warp_sites:
            by_thread.setdefault(site.thread_id, []).append(site)
        for thread, thread_sites in by_thread.items():
            cursor = ThreadRun(program, words, thread, key, budget)
            completed = []  # (site, how many golden stores precede its fork, the fork's stores)
            for site, written in _thread_forks(cursor, thread_sites, per_site):
                lone = cursor.fork(site, written).finish()
                if lone.termination == COMPLETED:
                    completed.append((site, len(cursor.stream), lone.stream))
                else:
                    runs.lone_thread += 1
                    per_site[site] = classify_outcome(golden, lone)
            if completed:
                per_site.update(scorer.outcomes(cursor.finish().stream, completed, runs))
    runs.without_run = len(sites) - runs.lone_thread - runs.full_warp
    tallies: dict[int, list[int]] = {}
    for site, outcome in per_site.items():
        tally = tallies.setdefault(site.thread_id, [0, 0, 0])
        tally[_OUTCOME_KINDS.index(outcome.kind)] += 1
        if outcome.detail == "crashed":
            runs.crashed += 1
        elif outcome.detail == "hung":
            runs.hung += 1
    return CampaignResult(
        per_site=per_site,
        per_thread_counts={t: tuple(v) for t, v in sorted(tallies.items())},
        seed=seed,
        runs=runs,
    )


_MASKED = Outcome(MASKED)
_NOT_EXECUTED = Outcome(MASKED, "not-executed")
_SDC = Outcome(SDC)


def _thread_forks(cursor: ThreadRun, sites: list[FaultSite], outcomes: dict):
    """Yield ``(site, written)`` for each site of the cursor's thread whose
    flipped value is read, with the cursor at the boundary its run forks
    from (``written`` as :meth:`~warpshield.interp.ThreadRun.fork` takes
    it), in the order the fault-free cursor reaches the forks; put every
    other site's outcome in ``outcomes``.

    Sites of one dynamic instruction differ only in the bit, so they share
    every decision but their run.
    """
    instructions = cursor.instructions
    bits: dict[int, list[FaultSite]] = {}
    for site in sites:
        bits.setdefault(site.dyn_instr, []).append(site)
    todo = sorted(bits, reverse=True)  # dynamic instructions not reached, last first
    watched: list[tuple[int, list[FaultSite]]] = []  # (register, sites) written, not yet read
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

    while todo or watched:
        coming = cursor.next_issue()
        if coming is None:
            break
        pc, end = coming
        n = cursor.icnt
        if watched or todo[-1] <= n + end - pc:
            # (register, sites, first instruction to scan, register if written before this issue)
            follow = [(reg, group, pc, reg) for reg, group in watched]
            while todo and todo[-1] <= n + end - pc:
                group = bits[todo.pop()]
                at = pc + group[0].dyn_instr - n - 1
                dest = instructions[at].dest
                if dest is None:  # st, bra, bar or exit writes no register
                    outcomes.update(dict.fromkeys(group, _NOT_EXECUTED))
                else:
                    follow.append((dest, group, at + 1, None))
            watched = []
            for reg, group, start, written in follow:
                accessed, exits = first_access(start, end)
                read = accessed.get(reg)
                if read:
                    yield from ((site, written) for site in group)
                elif read is None and not exits:
                    watched.append((reg, group))
                else:  # overwritten before any read, or never read
                    outcomes.update(dict.fromkeys(group, _MASKED))
        cursor.advance()
    for dyn in todo:  # past the end of the thread's path
        outcomes.update(dict.fromkeys(bits[dyn], _NOT_EXECUTED))


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


def _warps_of(program: KernelProgram, threads) -> dict[int, tuple[int, int]]:
    """``{thread: (cta, warp)}`` for ``threads``, building each CTA's launch
    order once and searching it once per thread, not once per site."""
    orders: dict[int, tuple[int, ...]] = {}
    warp_of = {}
    for t in threads:
        cta = program.cta_of(t)
        order = orders.get(cta)
        if order is None:
            order = orders[cta] = program.launch_order(cta)
        warp_of[t] = (cta, order.index(t) // WARP_SIZE)
    return warp_of


class _WarpScorer:
    """Scores the completed forked runs of one warp's threads, each from its
    run of the thread alone where that is exact, else from a run of the
    whole warp.

    The warp-mates' golden stores come from the golden run's stream of the
    warp.  A warp-mate's golden store to a location in a phase the thread
    also stores to, in the golden or the faulted run, is a collision: only
    lock-step orders the two, so such a site re-runs the whole warp from
    launch through ``execute(..., warp_filter=key)``, the isolated run
    protection makes of a faulted replica.
    """

    def __init__(self, program, words, budget: int, golden, key: tuple[int, int], writers):
        self.program, self.words, self.budget = program, words, budget
        self.golden = golden
        self.key = key
        self.writers = writers
        self.stream = golden.store_streams.get(key, ())

    def outcomes(self, own: list[tuple], forks: list[tuple], runs: RunCounts):
        """Yield ``(site, outcome)`` for each completed fork ``(site,
        prefix, faulted)`` of one thread, whose whole golden store stream
        is ``own``: the fork's run stored ``faulted`` after the thread's
        first ``prefix`` golden stores.

        A fork free of collisions is scored by replaying, at the locations
        the thread stores to in the golden or the faulted run, the other
        warps' golden stores, the warp-mates' golden stores, ``own[:prefix]``
        and ``faulted``.  With no collision, a warp-mate's store and the
        thread's never share a location and a phase, so phases order them.
        """
        golden = self.golden
        triples = Counter((buf, addr, phase) for buf, addr, _, phase in own)
        everyone = Counter((buf, addr, phase) for buf, addr, _, phase in self.stream)
        mate_triples = {triple for triple, n in everyone.items() if n > triples[triple]}
        collides = not mate_triples.isdisjoint(triples)
        locations = {(buf, addr) for buf, addr, _, _ in own}
        mates_at: dict[tuple[str, int], list[tuple]] = {}
        for record in self.stream:
            if (record[0], record[1], record[3]) not in triples:
                mates_at.setdefault((record[0], record[1]), []).append(record)
        for site, prefix, faulted in forks:
            if collides or any((buf, addr, phase) in mate_triples for buf, addr, _, phase in faulted):
                runs.full_warp += 1
                run = execute(
                    self.program,
                    self.words,
                    fault=site,
                    budget=self.budget,
                    warp_filter=self.key,
                    record_stores=True,
                )
                if not run.completed:  # as the lone run: never
                    yield site, classify_outcome(golden, run)
                    continue
                stream = run.store_streams.get(self.key, ())
                touched = {(buf, addr) for buf, addr, _, _ in (*self.stream, *stream)}
            else:
                runs.lone_thread += 1
                touched = locations.union((buf, addr) for buf, addr, _, _ in faulted)
                # Records at different locations never meet, so only each
                # location's own order matters.
                stream = [record for loc in touched if loc in mates_at for record in mates_at[loc]]
                stream += own[:prefix]
                stream += faulted
            yield site, _replayed_outcome(golden, self.key, stream, touched, self.writers)


def _replayed_outcome(golden: ExecutionResult, key, stream, touched, writers) -> Outcome:
    """Outcome of a completed faulted run whose warp ``key`` stores
    ``stream`` to the locations of ``touched``, every other location keeping
    its golden value.

    Only the touched locations are replayed: ``stream`` and, in stream
    order, the other warps' golden stores to those locations, which is all
    :func:`~warpshield.interp.replay_stores` needs to order them as the full
    faulted run would.
    """
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

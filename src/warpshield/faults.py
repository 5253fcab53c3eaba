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
streams of the other warps that write any location it touches, which puts
every store to those locations in the order the full faulted run issues
them, even when the fault moves a store across a barrier.  Locations the
warp does not touch keep their golden values, so comparing the touched ones
classifies the site exactly, without a full-kernel run.
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
    execute,
    replay_stores,
    word_inputs,
)
from .ir import WARP_SIZE, KernelProgram

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
    """Classify every site against the golden run, re-running only its warp.

    A run that crashes or hangs is ``other``.  Otherwise the locations the
    warp stores to, in the golden or the faulted run, are decided by
    replaying the faulted stream together with the golden streams of every
    other warp that writes one of them, in full-run order (a location no
    replayed store writes is 0).  Any difference from the golden output is
    ``sdc``, none is ``masked``.  A site whose thread is never launched is
    masked, not executed, without a run.

    Runs are independent and may be reordered or parallelised; aggregation is
    commutative counting, so the result does not depend on schedule.
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
    words = word_inputs(program, inputs)
    writers = _location_writers(program, golden.store_streams)
    warp_of = {
        t: _warp_key(program, t)
        for t in {s.thread_id for s in sites}
        if t < program.total_threads
    }
    per_site: dict[FaultSite, Outcome] = {}
    tallies: dict[int, list[int]] = {}
    for site in sites:
        key = warp_of.get(site.thread_id)
        if key is None:
            outcome = Outcome(MASKED, "not-executed")
        else:
            run = execute(
                program, words, fault=site, budget=budget, warp_filter=key, record_stores=True
            )
            outcome = _warp_outcome(golden, run, key, writers)
        per_site[site] = outcome
        tally = tallies.setdefault(site.thread_id, [0, 0, 0])
        tally[_OUTCOME_KINDS.index(outcome.kind)] += 1
    return CampaignResult(
        per_site=per_site,
        per_thread_counts={t: tuple(v) for t, v in sorted(tallies.items())},
        seed=seed,
    )


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


def _warp_outcome(golden: ExecutionResult, run: ExecutionResult, key, writers) -> Outcome:
    """Outcome of a warp-filtered faulted run against the golden run."""
    if run.termination != COMPLETED:
        return classify_outcome(golden, run)
    stream = run.store_streams.get(key, ())
    touched = {(buf, addr) for buf, addr, _, _ in golden.store_streams.get(key, ())}
    touched.update((buf, addr) for buf, addr, _, _ in stream)
    streams = {w: golden.store_streams[w] for buf, addr in touched for w in writers[buf][addr]}
    streams[key] = stream
    outputs = golden.outputs
    replayed = replay_stores({buf: [0] * len(v) for buf, v in outputs.items()}, streams)
    if all(replayed[buf][addr] == outputs[buf][addr] for buf, addr in touched):
        return Outcome(MASKED, None if run.fault_applied else "not-executed")
    return Outcome(SDC)

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
faulted warp and scores its store stream against the golden run's.  The one
thing the isolated run cannot show is where the warp's stores land among
other warps' stores, which decides a location that two warps write; a site
whose warp touches such a location (in its golden or its faulted stream) is
classified by one full-kernel run instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CampaignRefused, ValidationError
from .interp import COMPLETED, CRASHED, DEFAULT_BUDGET, ExecutionResult, execute, word_inputs
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
    full_runs: int = 0  # sites classified by a whole-kernel run

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
    if golden.register_writes is None:
        raise ValidationError("golden result lacks the register write trace")
    if threads is None:
        threads = list(range(program.total_threads))
    sites = []
    for t in sorted(threads):
        for dyn in golden.register_writes[t]:
            for bit in range(32):
                sites.append(FaultSite(t, dyn, bit))
    return sites


def sample_sites(sites: list[FaultSite], fraction: float, seed: int) -> list[FaultSite]:
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

    A run that crashes or hangs is ``other``.  Otherwise each output location
    the warp stores to, in the golden or the faulted run, takes the warp's
    last faulted store (0 if none) and is compared with the golden output:
    any difference is ``sdc``, none is ``masked``.  When another warp also
    writes one of those locations in the golden run, the site is classified
    by one full-kernel run (counted in ``full_runs``).  A site whose thread
    is never launched is masked, not executed, without a run.

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
    owners = _location_owners(program, golden.store_streams)
    warp_of = {
        t: _warp_key(program, t)
        for t in {s.thread_id for s in sites}
        if t < program.total_threads
    }
    per_site: dict[FaultSite, Outcome] = {}
    tallies: dict[int, list[int]] = {}
    full_runs = 0
    for site in sites:
        key = warp_of.get(site.thread_id)
        if key is None:
            outcome = Outcome(MASKED, "not-executed")
        else:
            run = execute(
                program, words, fault=site, budget=budget, warp_filter=key, record_stores=True
            )
            outcome = _warp_outcome(golden, run, key, owners)
            if outcome is None:
                full_runs += 1
                outcome = classify_outcome(golden, execute(program, words, fault=site, budget=budget))
        per_site[site] = outcome
        tally = tallies.setdefault(site.thread_id, [0, 0, 0])
        tally[_OUTCOME_KINDS.index(outcome.kind)] += 1
    return CampaignResult(
        per_site=per_site,
        per_thread_counts={t: tuple(v) for t, v in sorted(tallies.items())},
        seed=seed,
        full_runs=full_runs,
    )


_SHARED = "shared"  # location owner: stored to by more than one warp


def _location_owners(program: KernelProgram, streams) -> dict[str, list]:
    """Per output location: ``None`` if no golden store writes it, the one warp
    that does, or ``_SHARED``."""
    owners = {name: [None] * size for name, size in program.output_buffers}
    for key, stream in streams.items():
        for buf, addr, _ in stream:
            row = owners[buf]
            if row[addr] is None:
                row[addr] = key
            elif row[addr] != key:
                row[addr] = _SHARED
    return owners


def _warp_key(program: KernelProgram, thread_id: int) -> tuple[int, int]:
    cta = program.cta_of(thread_id)
    return (cta, program.launch_order(cta).index(thread_id) // WARP_SIZE)


def _warp_outcome(golden: ExecutionResult, run: ExecutionResult, key, owners) -> Outcome | None:
    """Outcome of a warp-filtered faulted run, or ``None`` when it touches a
    location another warp writes and only a full run can tell."""
    if run.termination != COMPLETED:
        return classify_outcome(golden, run)
    last = {(buf, addr): 0 for buf, addr, _ in golden.store_streams.get(key, ())}
    for buf, addr, value in run.store_streams.get(key, ()):
        last[(buf, addr)] = value
    for buf, addr in last:
        if owners[buf][addr] not in (None, key):
            return None
    outputs = golden.outputs
    if all(outputs[buf][addr] == value for (buf, addr), value in last.items()):
        return Outcome(MASKED, None if run.fault_applied else "not-executed")
    return Outcome(SDC)

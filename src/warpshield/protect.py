"""Selective warp replication: duplicate for detection, triplicate for correction.

Each protected warp runs as isolated replicas with private output shadows;
replica store streams are then compared (detect) or majority-voted
(correct).  Reliable warps run once and are never replicated.  Because kernel
threads never read other threads' output, an isolated single-warp execution
reproduces exactly what that warp does inside the full run, barrier phase of
every store included, so :func:`~warpshield.interp.replay_stores` composes
the chosen per-warp streams into the kernel's outputs.

A fault, when given, lands only in the primary replica, matching the
single-event model the outcome taxonomy is built on.  Every other replica is
fault-free, and a fault-free isolated run is deterministic, so all of a
warp's fault-free replicas share one run: it executes once per warp, plus
once more for the primary of the faulted warp.  Cycles are still charged per
replica, as the hardware would spend them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .classify import RELIABLE, WarpClassification
from .errors import ProtectionError, ValidationError
from .faults import FaultSite
from .interp import (
    COMPLETED,
    CostTable,
    DEFAULT_BUDGET,
    DEFAULT_COST_TABLE,
    execute,
    replay_stores,
    word_inputs,
)
from .ir import KernelProgram

DETECT = "detect"
CORRECT = "correct"

_FACTORS = {DETECT: 2, CORRECT: 3}


@dataclass(frozen=True)
class ProtectionPlan:
    mode: str  # detect | correct
    factors: dict[tuple[int, int], int]  # (cta_id, warp_id) -> replication factor

    @property
    def protected_warps(self) -> list[tuple[int, int]]:
        return sorted(k for k, f in self.factors.items() if f > 1)


@dataclass(frozen=True)
class WarpIncident:
    """A detection or correction event on one warp."""

    cta_id: int
    warp_id: int
    locations: tuple[tuple[str, int], ...]  # (buffer, index) pairs


@dataclass
class ProtectedRunResult:
    mode: str
    final_outputs: dict[str, list[int]]
    detections: list[WarpIncident]
    corrections: list[WarpIncident]
    cycles: int
    warp_terminations: dict[tuple[int, int], tuple[str, ...]]  # per replica

    @property
    def detected(self) -> bool:
        return bool(self.detections)


def build_protection_plan(
    classifications: list[WarpClassification], mode: str
) -> ProtectionPlan:
    """Factor 1 for reliable warps; 2 (detect) or 3 (correct) for all others.

    Mixed warps still contain unreliable threads, so they are protected at the
    same factor as fully unreliable warps.
    """
    if mode not in _FACTORS:
        raise ValidationError(f"unknown protection mode {mode!r}")
    replicated = _FACTORS[mode]
    return ProtectionPlan(
        mode=mode,
        factors={
            (c.cta_id, c.warp_id): 1 if c.kind == RELIABLE else replicated
            for c in classifications
        },
    )


def _mismatch_locations(a, b) -> tuple[tuple[str, int], ...]:
    diff = set(a) ^ set(b)
    return tuple(sorted({(buf, addr) for buf, addr, _, _ in diff}))


def run_protected(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    protection: ProtectionPlan,
    *,
    fault: FaultSite | None = None,
    budget: int = DEFAULT_BUDGET,
    cost_table: CostTable | None = None,
) -> ProtectedRunResult:
    """Execute the kernel under a protection plan and reconcile replica outputs.

    Each warp's replicas are isolated runs of that warp; the fault-free ones
    share one execution and only the faulted warp's primary runs apart, while
    cycles count every replica.  The final outputs replay each warp's chosen
    store stream in full-run order, so a plan of factor 1 everywhere gives
    the outputs of :func:`execute`.

    Detect mode records a detection for any replica disagreement (including a
    replica crash or hang) and keeps the primary's values.  Correct mode takes
    the store stream agreed by a majority of surviving replicas; it raises
    :class:`ProtectionError` only if fewer than two replicas survive or no two
    agree, which a single fault cannot cause.
    """
    table = cost_table or DEFAULT_COST_TABLE
    warps = program.warps()
    if set(protection.factors) != {(w.cta_id, w.warp_id) for w in warps}:
        raise ValidationError("protection plan does not cover the program's warps")
    words = word_inputs(program, inputs)

    def run_warp(key, warp_fault):
        return execute(
            program,
            words,
            fault=warp_fault,
            budget=budget,
            cost_table=table,
            warp_filter=key,
            record_stores=True,
        )

    cycles = 0
    detections: list[WarpIncident] = []
    corrections: list[WarpIncident] = []
    warp_terminations: dict[tuple[int, int], tuple[str, ...]] = {}
    chosen_streams: dict[tuple[int, int], tuple] = {}

    for w in warps:
        key = (w.cta_id, w.warp_id)
        factor = protection.factors[key]
        warp_fault = fault if (fault is not None and fault.thread_id in w.members) else None
        runs = [run_warp(key, warp_fault)]
        if factor > 1:
            clean = runs[0] if warp_fault is None else run_warp(key, None)
            runs += [clean] * (factor - 1)
        cycles += sum(r.cycles for r in runs)
        warp_terminations[key] = tuple(r.termination for r in runs)
        streams = [r.store_streams.get(key, ()) for r in runs]
        primary = streams[0]

        if factor == 1:
            chosen_streams[key] = primary
            continue

        if protection.mode == DETECT:
            replica_stream = streams[1]
            cycles += table.compare_per_store * max(len(primary), len(replica_stream))
            mismatch = (
                primary != replica_stream
                or runs[0].termination != runs[1].termination
            )
            if mismatch:
                detections.append(
                    WarpIncident(w.cta_id, w.warp_id, _mismatch_locations(primary, replica_stream))
                )
            chosen_streams[key] = primary
        else:
            survivors = [s for s, r in zip(streams, runs) if r.termination == COMPLETED]
            if len(survivors) < 2:
                raise ProtectionError(
                    f"warp {key}: only {len(survivors)} of {factor} replicas survived"
                )
            tally = Counter(survivors)
            voted, votes = tally.most_common(1)[0]
            if votes < 2:
                raise ProtectionError(f"warp {key}: no majority among replica store streams")
            cycles += table.vote_per_store * len(voted)
            if voted != primary:
                corrections.append(
                    WarpIncident(w.cta_id, w.warp_id, _mismatch_locations(primary, voted))
                )
            chosen_streams[key] = voted

    final = replay_stores(
        {name: [0] * size for name, size in program.output_buffers}, chosen_streams
    )

    return ProtectedRunResult(
        mode=protection.mode,
        final_outputs=final,
        detections=detections,
        corrections=corrections,
        cycles=cycles,
        warp_terminations=warp_terminations,
    )


def protection_report(result: ProtectedRunResult, plan: ProtectionPlan) -> dict:
    def incidents(items):
        return [
            {
                "cta": inc.cta_id,
                "warp": inc.warp_id,
                "locations": [{"buffer": b, "index": i} for b, i in inc.locations],
            }
            for inc in items
        ]

    return {
        "mode": result.mode,
        "protected_warps": [list(k) for k in plan.protected_warps],
        "detections": incidents(result.detections),
        "corrected": incidents(result.corrections),
        "cycles": result.cycles,
    }

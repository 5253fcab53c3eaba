"""Cycle accounting for partial protection versus full duplication/triplication.

Every figure is a sum over one per-warp ledger, ``{(cta, warp): (cycles,
stores)}``, read from the interpreter's own counts in a fault-free run of
each layout: the original one and, with a plan, the regrouped one.  A regime
gives each warp a replication factor and costs Σ factor × cycles plus the
compare (detect) or vote (correct) cost of each store of every warp whose
factor is above 1, so its total agrees exactly with brute-force replicated
execution.  Full RMT and TMR are factor 2 or 3 on every warp of the original
layout; partial detect and correct are factor 2 or 3 on the regrouped warps
that still hold an unreliable thread, and 1 elsewhere.

Regrouping alone changes the cycles: a mixed warp issues every class path its
threads take and a pure warp only one, so the modelled ``remap_overhead_pct``
is negative on all seven remappable fixtures (-1.4% to -33.4%).  A kernel
whose classes share one path would not show this, but equal-iCnt threads with
different resilience are where iCnt pruning stops being exact (Nie et al.,
MICRO 2018).  Cache and scheduling effects of a changed thread order are out
of model; the ``remap_overhead`` knob multiplies the regrouped layout's cycles
instead (the measurement study this tool is compared against reports a 1.63%
mean, with several negative cases).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .classify import RELIABLE, classify_warps
from .errors import ValidationError
from .interp import CostTable, DEFAULT_BUDGET, DEFAULT_COST_TABLE, execute
from .ir import KernelProgram
from .profiling import to_fraction
from .remap import RemapPlan, apply_plan

# Reference figures reported by the measurement study this toolkit's savings
# model is compared against (GPGPU-Sim cycles over 17 real kernels).  They are
# printed beside measured values in reports, never asserted as expectations.
REFERENCE_FIGURES = {
    "mean_pct_reliable_warps_before": 23.40,
    "mean_pct_reliable_warps_after": 42.08,
    "mean_savings_detect_pct": 20.61,
    "mean_savings_correct_pct": 27.15,
    "mean_remap_overhead_pct": 1.63,
}


class CostReport(NamedTuple):
    kernel: str
    cycles_base: int
    cycles_remapped: Fraction
    cycles_partial_detect: Fraction
    cycles_partial_correct: Fraction
    cycles_full_rmt: int
    cycles_full_tmr: int
    savings_detect: Fraction
    savings_correct: Fraction
    remap_overhead: Fraction
    protected_warps: int
    total_warps: int

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "cycles_base": self.cycles_base,
            "cycles_remapped": float(self.cycles_remapped),
            "cycles_partial_detect": float(self.cycles_partial_detect),
            "cycles_partial_correct": float(self.cycles_partial_correct),
            "cycles_full_rmt": self.cycles_full_rmt,
            "cycles_full_tmr": self.cycles_full_tmr,
            "savings_detect_pct": float(self.savings_detect * 100),
            "savings_correct_pct": float(self.savings_correct * 100),
            "remap_overhead_pct": float(self.remap_overhead * 100),
            "protected_warps": self.protected_warps,
            "total_warps": self.total_warps,
        }


def _ledger(program: KernelProgram, inputs, table: CostTable, budget: int, what: str) -> dict:
    """``{(cta, warp): (cycles, stores)}`` of one fault-free run."""
    run = execute(program, inputs, budget=budget, cost_table=table)
    if not run.completed:
        raise ValidationError(f"{what} run terminated {run.termination}: {run.error}")
    return {key: (cycles, run.per_warp_stores.get(key, 0)) for key, cycles in run.per_warp_cycles.items()}


def _total(ledger: dict, factor, per_store, inflate=1):
    """Σ factor × cycles × inflate, plus ``per_store`` for each store of a
    warp whose factor is above 1; ``factor`` maps a warp key to its factor."""
    cycles = sum(factor(key) * c for key, (c, _) in ledger.items())
    stores = sum(s for key, (_, s) in ledger.items() if factor(key) > 1)
    return cycles * inflate + per_store * stores


def account(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    flags: list[bool],
    *,
    plan: RemapPlan | None = None,
    cost_table: CostTable | None = None,
    remap_overhead=0,
    budget: int = DEFAULT_BUDGET,
) -> CostReport:
    """Cycle totals for every protection regime, from the ledgers of one or
    two fault-free runs.

    ``program`` must carry its original layout; the plan, when given, supplies
    the regrouped one.  The overhead knob inflates regrouped execution (and the
    partial-protection totals built on it) multiplicatively.
    """
    if program.layout is not None:
        raise ValidationError("pass the unmapped program; the plan supplies the new layout")
    overhead = to_fraction(remap_overhead)
    if overhead <= -1:
        raise ValidationError(f"remap overhead {float(overhead)} must exceed -1")
    table = cost_table or DEFAULT_COST_TABLE
    base = _ledger(program, inputs, table, budget, "baseline")
    regrouped_program = program if plan is None else apply_plan(program, plan)
    regrouped = base if plan is None else _ledger(regrouped_program, inputs, table, budget, "remapped")
    warps = classify_warps(flags, regrouped_program.warps())
    protected = {(c.cta_id, c.warp_id) for c in warps if c.kind != RELIABLE}

    def on_regrouped(factor, per_store):  # factor on the protected warps, 1 elsewhere
        return _total(regrouped, lambda key: factor if key in protected else 1, per_store, 1 + overhead)

    cycles_base, cycles_remapped = _total(base, lambda _: 1, 0), on_regrouped(1, 0)
    full_rmt = _total(base, lambda _: 2, table.compare_per_store)
    full_tmr = _total(base, lambda _: 3, table.vote_per_store)
    detect, correct = on_regrouped(2, table.compare_per_store), on_regrouped(3, table.vote_per_store)
    report = CostReport(
        kernel=program.name,
        cycles_base=cycles_base,
        cycles_remapped=cycles_remapped,
        cycles_partial_detect=detect,
        cycles_partial_correct=correct,
        cycles_full_rmt=full_rmt,
        cycles_full_tmr=full_tmr,
        savings_detect=Fraction(full_rmt - detect, full_rmt),
        savings_correct=Fraction(full_tmr - correct, full_tmr),
        remap_overhead=Fraction(cycles_remapped - cycles_base, cycles_base),
        protected_warps=len(protected),
        total_warps=len(warps),
    )
    try:
        report.to_json()  # every figure is printed as a float
    except OverflowError:
        raise ValidationError(
            f"remap overhead {float(overhead)} makes cycle figures overflow a float"
        ) from None
    return report

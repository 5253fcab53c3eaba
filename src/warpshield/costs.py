"""Cycle accounting for partial protection versus full duplication/triplication.

The model reuses the interpreter's own per-warp cycle and store counts, so its
totals agree exactly with brute-force replicated execution.  Full-redundancy
baselines duplicate or triplicate every warp of the unmapped layout; partial
protection replicates only the warps that still contain unreliable threads
after regrouping.

Cache and scheduling effects of a changed thread order are out of model; the
``remap_overhead`` knob applies a user-chosen multiplier to the regrouped
execution instead (the measurement study this tool is compared against reports
a 1.63% mean, with several negative cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class CostReport:
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
    """Cycle totals for every protection regime, from two instrumented runs.

    ``program`` must carry its original layout; the plan, when given, supplies
    the regrouped one.  The overhead knob inflates regrouped execution (and the
    partial-protection totals built on it) multiplicatively.
    """
    if program.layout is not None:
        raise ValidationError("pass the unmapped program; the plan supplies the new layout")
    overhead = to_fraction(remap_overhead)
    table = cost_table or DEFAULT_COST_TABLE

    base = execute(program, inputs, budget=budget, cost_table=table)
    if not base.completed:
        raise ValidationError(f"baseline run terminated {base.termination}: {base.error}")
    cycles_base = base.cycles
    total_stores = sum(base.per_warp_stores.values())

    if plan is not None:
        remapped_program = apply_plan(program, plan)
        remapped = execute(remapped_program, inputs, budget=budget, cost_table=table)
        if not remapped.completed:
            raise ValidationError(f"remapped run terminated {remapped.termination}")
    else:
        remapped_program = program
        remapped = base

    warps = remapped_program.warps()
    classifications = classify_warps(flags, warps)
    protected = {
        (c.cta_id, c.warp_id) for c in classifications if c.kind != RELIABLE
    }

    work = remapped.per_warp_cycles
    stores = remapped.per_warp_stores
    inflate = 1 + overhead

    protected_work = sum(work.get(k, 0) for k in protected)
    all_work = sum(work.values())
    protected_stores = sum(stores.get(k, 0) for k in protected)

    partial_detect = (all_work + protected_work) * inflate + table.compare_per_store * protected_stores
    partial_correct = (all_work + 2 * protected_work) * inflate + table.vote_per_store * protected_stores
    full_rmt = 2 * cycles_base + table.compare_per_store * total_stores
    full_tmr = 3 * cycles_base + table.vote_per_store * total_stores

    return CostReport(
        kernel=program.name,
        cycles_base=cycles_base,
        cycles_remapped=remapped.cycles * inflate,
        cycles_partial_detect=Fraction(partial_detect),
        cycles_partial_correct=Fraction(partial_correct),
        cycles_full_rmt=full_rmt,
        cycles_full_tmr=full_tmr,
        savings_detect=Fraction(full_rmt - partial_detect, full_rmt),
        savings_correct=Fraction(full_tmr - partial_correct, full_tmr),
        remap_overhead=Fraction(remapped.cycles * inflate - cycles_base, cycles_base),
        protected_warps=len(protected),
        total_warps=len(warps),
    )

"""Thread/warp reliability classification against an SDC threshold.

A thread is reliable when its SDC fraction is at or below the threshold
(inclusive boundary).  A warp is reliable when all of its member threads are,
unreliable when none are, and mixed otherwise; partial warps follow the same
rule over the members present.
"""

from __future__ import annotations

import csv
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .profiling import KernelProfile, to_fraction

if TYPE_CHECKING:
    from .ir import Warp

RELIABLE = "reliable"
UNRELIABLE = "unreliable"
MIXED = "mixed"


class WarpClassification(NamedTuple):
    cta_id: int
    warp_id: int
    kind: str  # reliable | unreliable | mixed
    members: tuple[int, ...]


class KernelReliabilityStats(NamedTuple):
    tau: Fraction
    pct_reliable_warps: Fraction
    pct_reliable_threads: Fraction
    warp_counts: tuple[int, int, int]  # (reliable, unreliable, mixed)

    @property
    def total_warps(self) -> int:
        return sum(self.warp_counts)


def classify_threads(profile: KernelProfile, tau=None) -> list[bool]:
    """Per-thread reliable flag, indexed by thread id.

    Each row of the profile's outcome table is compared with ``tau`` once,
    and each thread takes the verdict of its row.
    """
    tau = profile.tau if tau is None else to_fraction(tau)
    if not 0 <= tau <= 1:
        raise ValidationError(f"threshold {float(tau)} outside [0, 1]")
    verdict = [sdc <= tau for _, sdc, _ in profile.outcomes]
    return [verdict[r] for r in profile.outcome_of]


def classify_warps(flags: list[bool], warps: tuple[Warp, ...]) -> list[WarpClassification]:
    covered = sorted(t for w in warps for t in w.members)
    if covered != list(range(len(flags))):
        raise ValidationError(
            f"warp layout covers {len(covered)} threads, flags cover {len(flags)}"
        )
    out = []
    for w in warps:
        reliable = sum(1 for t in w.members if flags[t])
        if reliable == len(w.members):
            kind = RELIABLE
        elif reliable == 0:
            kind = UNRELIABLE
        else:
            kind = MIXED
        out.append(WarpClassification(w.cta_id, w.warp_id, kind, w.members))
    return out


def kernel_stats(
    classifications: list[WarpClassification], flags: list[bool], tau=Fraction(1, 20)
) -> KernelReliabilityStats:
    n_warps = len(classifications)
    n_rel = sum(1 for c in classifications if c.kind == RELIABLE)
    n_unrel = sum(1 for c in classifications if c.kind == UNRELIABLE)
    return KernelReliabilityStats(
        tau=to_fraction(tau),
        pct_reliable_warps=Fraction(n_rel, n_warps),
        pct_reliable_threads=Fraction(sum(flags), len(flags)),
        warp_counts=(n_rel, n_unrel, n_warps - n_rel - n_unrel),
    )


def format_pct(x: Fraction) -> str:
    """Render a fraction as a percentage with two decimals, round-half-even."""
    with localcontext() as ctx:
        ctx.prec = 50
        pct = Decimal(x.numerator) * 100 / Decimal(x.denominator)
        return str(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def stats_to_json(stats: KernelReliabilityStats, kernel: str) -> dict:
    rel, unrel, mixed = stats.warp_counts
    return {
        "kernel": kernel,
        "tau": float(stats.tau),
        "pct_reliable_warps": float(stats.pct_reliable_warps * 100),
        "pct_reliable_threads": float(stats.pct_reliable_threads * 100),
        "warp_counts": {"reliable": rel, "unreliable": unrel, "mixed": mixed},
    }


def scatter_rows(
    profile: KernelProfile, flags: list[bool], warps: tuple[Warp, ...]
) -> list[tuple[int, float, int, int, int]]:
    """Plot-ready rows in launch order: per-slot SDC fraction plus warp/CTA
    boundary markers (mirrors the per-thread resilience scatter layout)."""
    sdc = [float(s) for _, s, _ in profile.outcomes]
    outcome_of = profile.outcome_of
    rows = []
    index = 0
    prev_cta = None
    for w in warps:
        for slot, t in enumerate(w.members):
            rows.append(
                (
                    index,
                    sdc[outcome_of[t]],
                    1 if slot == 0 else 0,
                    1 if (slot == 0 and w.cta_id != prev_cta) else 0,
                    1 if flags[t] else 0,
                )
            )
            index += 1
        prev_cta = w.cta_id
    return rows


SCATTER_HEADER = [
    "thread_index_in_launch_order",
    "sdc_pct",
    "warp_boundary",
    "cta_boundary",
    "reliable_flag",
]


def write_scatter_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(SCATTER_HEADER)
        w.writerows(rows)

"""Reliability-driven thread-to-warp regrouping, scoped to single CTAs.

Within each CTA, threads are scanned in their original launch order and
appended to a reliable or an unreliable buffer; each buffer is emitted as a
warp the moment it fills.  Leftover partial buffers are concatenated, reliable
part first, at the CTA's tail, so at most one warp per 32-aligned CTA mixes
both kinds.  Remapping never moves a thread across a CTA boundary, which is
what keeps barrier semantics and per-thread work untouched.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .classify import KernelReliabilityStats, classify_warps, kernel_stats
from .errors import ArtifactError, ValidationError
from .ir import KernelProgram, WARP_SIZE, validate_layout, warps_for
from .profiling import to_fraction


class RemapPlan(NamedTuple):
    """Per-CTA launch orders: new warp k holds positions kW..kW+W-1 of its CTA's list."""

    new_orders: tuple[tuple[int, ...], ...]
    tau: Fraction
    kernel: str | None = None
    profile_sha256: str | None = None

    @property
    def num_ctas(self) -> int:
        return len(self.new_orders)

    @property
    def cta_size(self) -> int:
        return len(self.new_orders[0])

    def validate_for(self, num_ctas: int, cta_size: int) -> None:
        validate_layout(self.new_orders, num_ctas, cta_size)

    def warps(self):
        return warps_for(self.num_ctas, self.cta_size, self.new_orders)


def build_plan(
    flags: list[bool],
    geometry: tuple[int, int],
    *,
    tau=Fraction(1, 20),
    kernel: str | None = None,
    profile_sha256: str | None = None,
) -> RemapPlan:
    """Regroup each CTA so warps hold only reliable or only unreliable threads,
    leaving at most a small mixed remainder at the CTA tail."""
    num_ctas, cta_size = geometry
    if len(flags) != num_ctas * cta_size:
        raise ValidationError(
            f"{len(flags)} flags for a {num_ctas}x{cta_size} launch"
        )
    orders = []
    for cta in range(num_ctas):
        base = cta * cta_size
        order: list[int] = []
        reliable_buf: list[int] = []
        unreliable_buf: list[int] = []
        for t in range(base, base + cta_size):
            buf = reliable_buf if flags[t] else unreliable_buf
            buf.append(t)
            if len(buf) == WARP_SIZE:
                order.extend(buf)
                buf.clear()
        order.extend(reliable_buf)
        order.extend(unreliable_buf)
        orders.append(tuple(order))
    return RemapPlan(
        new_orders=tuple(orders),
        tau=to_fraction(tau),
        kernel=kernel,
        profile_sha256=profile_sha256,
    )


def apply_plan(program: KernelProgram, plan: RemapPlan) -> KernelProgram:
    """Attach the plan's launch order to the program.

    Threads keep their original ids (and therefore their work and iCnt); only
    the warp slot they occupy changes.  Fault-free outputs are bit-identical
    when no two threads of one CTA store to one location in the same barrier
    phase; when two do, their new warp order decides which store lands last.
    """
    plan.validate_for(program.num_ctas, program.cta_size)
    if plan.kernel is not None and plan.kernel != program.name:
        raise ValidationError(
            f"plan was built for kernel {plan.kernel!r}, not {program.name!r}"
        )
    return KernelProgram(
        name=program.name,
        instructions=program.instructions,
        num_ctas=program.num_ctas,
        cta_size=program.cta_size,
        input_buffers=program.input_buffers,
        output_buffers=program.output_buffers,
        layout=plan.new_orders,
    )


def remapped_stats(plan: RemapPlan, flags: list[bool]) -> KernelReliabilityStats:
    return kernel_stats(classify_warps(flags, plan.warps()), flags, plan.tau)


def regroup(flags: list[bool], geometry: tuple[int, int], *, tau, kernel=None, profile_sha256=None):
    """Stats of the original layout, the :func:`build_plan` plan, and stats
    of the regrouped layout."""
    plan = build_plan(flags, geometry, tau=tau, kernel=kernel, profile_sha256=profile_sha256)
    before = kernel_stats(classify_warps(flags, warps_for(*geometry)), flags, plan.tau)
    return before, plan, remapped_stats(plan, flags)


# ---------------------------------------------------------------------------
# persistence


def plan_to_json(plan: RemapPlan) -> dict:
    return {
        "kernel": plan.kernel,
        "tau": float(plan.tau),
        "profile_sha256": plan.profile_sha256,
        "ctas": [
            {"cta_id": c, "new_order": list(order)}
            for c, order in enumerate(plan.new_orders)
        ],
    }


def plan_from_json(data: dict) -> RemapPlan:
    """Rebuild a plan from its JSON form, refusing any plan the pipeline
    could not run: each CTA's ``new_order`` must be a permutation of that
    CTA's thread-id block, all of one length, and tau must lie in [0, 1]."""
    try:
        ctas = sorted(data["ctas"], key=lambda e: e["cta_id"])
        if [e["cta_id"] for e in ctas] != list(range(len(ctas))):
            raise ArtifactError("plan CTA ids are not contiguous from zero")
        orders = tuple(tuple(e["new_order"]) for e in ctas)
        if not orders:
            raise ArtifactError("plan has no CTAs")
        if not all(type(t) is int for order in orders for t in order):
            raise ArtifactError("plan new_order entries must be integer thread ids")
        validate_layout(orders, len(orders), len(orders[0]))
        tau = to_fraction(data["tau"])
        if not 0 <= tau <= 1:
            raise ArtifactError(f"plan tau {float(tau)} outside [0, 1]")
        return RemapPlan(
            new_orders=orders,
            tau=tau,
            kernel=data.get("kernel"),
            profile_sha256=data.get("profile_sha256"),
        )
    except (KeyError, TypeError, ValueError, ValidationError) as e:
        raise ArtifactError(f"malformed remap plan: {e}") from None


def save_plan(plan: RemapPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_json(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> RemapPlan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return plan_from_json(json.load(fh))
    except FileNotFoundError:
        raise ArtifactError(f"missing remap plan {path} (run remap first)") from None
    except ValueError as e:  # undecodable bytes or JSON syntax
        raise ArtifactError(f"malformed remap plan {path}: {e}") from None

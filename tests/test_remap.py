import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from warpshield.classify import MIXED, RELIABLE, UNRELIABLE, classify_warps, format_pct, kernel_stats
from warpshield.errors import ValidationError
from warpshield.faults import enumerate_fault_space, run_campaign
from warpshield.fixtures import generate_fixture
from warpshield.interp import execute
from warpshield.remap import (
    RemapPlan,
    apply_plan,
    build_plan,
    plan_from_json,
    plan_to_json,
    remapped_stats,
)

from support import add_one_inputs, add_one_kernel, identity_plan


def test_alternating_cta_regroups_into_pure_warps():
    flags = [t % 2 == 0 for t in range(64)]
    plan = build_plan(flags, (1, 64), tau=Fraction(1, 20))
    evens = [t for t in range(64) if t % 2 == 0]
    odds = [t for t in range(64) if t % 2 == 1]
    assert plan.new_orders[0] == tuple(evens + odds)
    before = [c.kind for c in classify_warps(flags, identity_plan((1, 64)).warps())]
    after = [c.kind for c in classify_warps(flags, plan.warps())]
    assert before == [MIXED, MIXED]
    assert after == [RELIABLE, UNRELIABLE]


def test_all_reliable_cta_keeps_identity_order():
    plan = build_plan([True] * 128, (2, 64), tau=Fraction(1, 20))
    assert plan.new_orders == (tuple(range(64)), tuple(range(64, 128)))


def test_forty_reliable_of_sixty_four():
    flags = [t < 40 for t in range(64)]
    plan = build_plan(flags, (1, 64), tau=Fraction(1, 20))
    assert plan.new_orders[0] == tuple(range(64))  # scan order already groups them
    kinds = [c.kind for c in classify_warps(flags, plan.warps())]
    assert kinds == [RELIABLE, MIXED]  # 32 reliable, then 8 reliable + 24 unreliable


def test_identity_plan_execution_unchanged():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    baseline = execute(program, inputs)
    remapped = execute(apply_plan(program, identity_plan(program.geometry)), inputs)
    assert remapped.outputs == baseline.outputs
    assert remapped.per_thread_icnt == baseline.per_thread_icnt
    assert remapped.cycles == baseline.cycles


def test_regrouped_execution_outputs_bit_identical():
    program = add_one_kernel(num_ctas=2, cta_size=64)
    inputs = add_one_inputs(program)
    flags = [t % 2 == 0 for t in range(128)]
    plan = build_plan(flags, program.geometry, tau=Fraction(1, 20))
    baseline = execute(program, inputs)
    remapped = execute(apply_plan(program, plan), inputs)
    assert remapped.outputs == baseline.outputs
    assert remapped.per_thread_icnt == baseline.per_thread_icnt


def test_cross_cta_plan_rejected():
    program = add_one_kernel()
    bad = RemapPlan(
        new_orders=(tuple(range(1, 33)), (0,) + tuple(range(33, 64))),
        tau=Fraction(1, 20),
    )
    with pytest.raises(ValidationError, match="permutation"):
        apply_plan(program, bad)


def test_plan_kernel_name_mismatch_rejected():
    program = add_one_kernel()
    plan = build_plan([True] * 64, program.geometry, tau=Fraction(1, 20), kernel="other")
    with pytest.raises(ValidationError, match="other"):
        apply_plan(program, plan)


@settings(max_examples=80, deadline=None)
@given(flags=st.lists(st.booleans(), min_size=128, max_size=128))
def test_plan_properties_hold_for_any_flags(flags):
    geometry = (2, 64)
    plan = build_plan(flags, geometry, tau=Fraction(1, 20))
    # per-CTA permutation
    for cta, order in enumerate(plan.new_orders):
        assert sorted(order) == list(range(cta * 64, (cta + 1) * 64))
    classifications = classify_warps(flags, plan.warps())
    # at most one mixed warp per 32-aligned CTA
    for cta in (0, 1):
        mixed = [c for c in classifications if c.cta_id == cta and c.kind == MIXED]
        assert len(mixed) <= 1
    # reliable warp count never decreases
    before = kernel_stats(classify_warps(flags, identity_plan(geometry).warps()), flags)
    after = kernel_stats(classifications, flags)
    assert after.pct_reliable_warps >= before.pct_reliable_warps


def test_improvement_exhaustive_over_reliable_counts():
    """Sweep every reliable-count split of a two-warp CTA with scattered
    placements: regrouping never breaks an existing pure warp."""
    rng = random.Random(7)
    for reliable in range(65):
        for _ in range(4):
            flags = [False] * 64
            for t in rng.sample(range(64), reliable):
                flags[t] = True
            plan = build_plan(flags, (1, 64), tau=Fraction(1, 20))
            before = kernel_stats(classify_warps(flags, identity_plan((1, 64)).warps()), flags)
            after = kernel_stats(classify_warps(flags, plan.warps()), flags)
            assert after.pct_reliable_warps >= before.pct_reliable_warps
            assert after.warp_counts[0] == reliable // 32  # floor: full pure warps


def test_outcomes_identical_under_regrouped_layout():
    """A fault site's outcome must not depend on warp composition."""
    program = add_one_kernel(num_ctas=1, cta_size=64)
    inputs = add_one_inputs(program)
    flags = [t % 3 == 0 for t in range(64)]
    plan = build_plan(flags, program.geometry, tau=Fraction(1, 20))
    remapped = apply_plan(program, plan)
    sites = enumerate_fault_space(program, inputs, threads=[0, 1, 31, 33])
    original = run_campaign(program, inputs, sites)
    regrouped = run_campaign(remapped, inputs, sites)
    assert original.per_site == regrouped.per_site


def test_hotspot_first_cta_gathers_reliable_into_first_and_last_warp():
    fixture = generate_fixture("hotspot_k1")
    flags = list(fixture.flags)
    plan = build_plan(flags, fixture.program.geometry, tau=fixture.profile.tau)
    cta0 = [c for c in classify_warps(flags, plan.warps()) if c.cta_id == 0]
    assert cta0[0].kind == RELIABLE
    assert cta0[-1].kind == MIXED
    assert sum(1 for t in cta0[-1].members if flags[t]) == 31
    assert all(c.kind == UNRELIABLE for c in cta0[1:-1])


def test_jmeint_regroups_to_52_percent():
    fixture = generate_fixture("jmeint_k1")
    flags = list(fixture.flags)
    plan = build_plan(flags, fixture.program.geometry, tau=fixture.profile.tau)
    stats = remapped_stats(plan, flags)
    assert format_pct(stats.pct_reliable_warps) == "52.00"


def test_plan_json_round_trip():
    flags = [t % 2 == 0 for t in range(128)]
    plan = build_plan(
        flags, (2, 64), tau=Fraction(9, 250), kernel="demo", profile_sha256="ab" * 32
    )
    assert plan_from_json(plan_to_json(plan)) == plan

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from warpshield.classify import classify_warps
from warpshield.costs import REFERENCE_FIGURES, account
from warpshield.errors import ValidationError
from warpshield.fixtures import generate_fixture, remappable_suite
from warpshield.interp import CostTable, _DEFAULT_OP_CYCLES, execute
from warpshield.protect import CORRECT, DETECT, build_protection_plan, run_protected
from warpshield.remap import RemapPlan, apply_plan, build_plan

from support import named_fixture
from test_generated_kernels import kernels

ZERO_BOOKKEEPING = CostTable(
    op_cycles=dict(_DEFAULT_OP_CYCLES), compare_per_store=0, vote_per_store=0
)


def _uniform(pct):
    fixture = named_fixture(f"uniform_r{pct}")
    return fixture.program, fixture.inputs, list(fixture.flags)


@pytest.mark.parametrize("pct", [0, 25, 50, 75, 100])
def test_closed_form_savings_for_uniform_work(pct):
    program, inputs, flags = _uniform(pct)
    report = account(program, inputs, flags, cost_table=ZERO_BOOKKEEPING)
    r = Fraction(pct, 100)
    assert report.savings_detect == r / 2
    assert report.savings_correct == 2 * r / 3


def test_all_reliable_partial_cost_is_base():
    program, inputs, flags = _uniform(100)
    report = account(program, inputs, flags, cost_table=ZERO_BOOKKEEPING)
    assert report.cycles_partial_detect == report.cycles_base
    assert report.cycles_partial_correct == report.cycles_base
    assert report.savings_detect == Fraction(1, 2)


def test_all_unreliable_saves_nothing():
    program, inputs, flags = _uniform(0)
    report = account(program, inputs, flags, cost_table=ZERO_BOOKKEEPING)
    assert report.savings_detect == 0
    assert report.savings_correct == 0
    assert report.cycles_partial_detect == report.cycles_full_rmt


def test_savings_monotone_in_reliable_fraction():
    reports = [
        account(*_uniform(pct), cost_table=ZERO_BOOKKEEPING) for pct in (0, 25, 50, 75, 100)
    ]
    detect = [r.savings_detect for r in reports]
    correct = [r.savings_correct for r in reports]
    assert detect == sorted(detect)
    assert correct == sorted(correct)


def _assert_account_matches_replicated_runs(program, inputs, flags, plan):
    report = account(program, inputs, flags, plan=plan)
    remapped = apply_plan(program, plan)
    classifications = classify_warps(flags, remapped.warps())
    for mode, modeled in (
        (DETECT, report.cycles_partial_detect),
        (CORRECT, report.cycles_partial_correct),
    ):
        protection = build_protection_plan(classifications, mode)
        measured = run_protected(remapped, inputs, protection)
        assert measured.cycles == modeled, mode
    # the full-redundancy baselines are replicated runs of the unmapped layout
    everything = classify_warps([False] * len(flags), program.warps())
    rmt = run_protected(program, inputs, build_protection_plan(everything, DETECT))
    tmr = run_protected(program, inputs, build_protection_plan(everything, CORRECT))
    assert rmt.cycles == report.cycles_full_rmt
    assert tmr.cycles == report.cycles_full_tmr


def test_account_matches_replicated_interpreter_cycles():
    """The model and brute-force replicated execution must agree exactly, on
    the alternating fixture and on generated kernels with random flags, and
    an identity plan models no remap overhead."""
    fixture = named_fixture("alternating")
    flags = list(fixture.flags)
    plan = build_plan(flags, fixture.program.geometry, tau=fixture.profile.tau)
    _assert_account_matches_replicated_runs(fixture.program, fixture.inputs, flags, plan)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(kernel=kernels(tid_only=True), seed=st.integers(0, 2**16))
    def check(kernel, seed):
        program, inputs = kernel
        rng = random.Random(seed)
        share = rng.random()
        flags = [rng.random() < share for _ in range(program.total_threads)]
        _assert_account_matches_replicated_runs(program, inputs, flags, build_plan(flags, program.geometry))
        size = program.cta_size
        identity = RemapPlan(tuple(tuple(range(c * size, (c + 1) * size)) for c in range(program.num_ctas)), 0)
        assert account(program, inputs, flags, plan=identity).remap_overhead == 0

    check()


def test_full_redundancy_identities():
    fixture = generate_fixture("pathfinder_k1")
    flags = list(fixture.flags)
    report = account(fixture.program, fixture.inputs, flags)
    base = execute(fixture.program, fixture.inputs)
    stores = sum(base.per_warp_stores.values())
    assert report.cycles_full_rmt == 2 * base.cycles + stores
    assert report.cycles_full_tmr == 3 * base.cycles + 2 * stores


def test_identity_layout_has_zero_overhead():
    program, inputs, flags = _uniform(50)
    report = account(program, inputs, flags)
    assert report.remap_overhead == 0
    assert report.cycles_remapped == report.cycles_base


def test_overhead_knob_is_multiplicative():
    program, inputs, flags = _uniform(50)
    report = account(program, inputs, flags, remap_overhead="0.0163")
    assert report.remap_overhead == Fraction("0.0163")
    assert report.cycles_remapped == report.cycles_base * (1 + Fraction("0.0163"))
    plain = account(program, inputs, flags)
    assert report.cycles_partial_detect > plain.cycles_partial_detect


def test_suite_savings_positive_and_correction_dominates():
    for fixture in remappable_suite():
        flags = list(fixture.flags)
        plan = build_plan(flags, fixture.program.geometry, tau=fixture.profile.tau)
        report = account(fixture.program, fixture.inputs, flags, plan=plan)
        assert report.protected_warps < report.total_warps
        assert report.savings_detect > 0, fixture.name
        assert report.savings_correct >= report.savings_detect, fixture.name


def test_account_rejects_program_with_layout_attached():
    fixture = named_fixture("alternating")
    flags = list(fixture.flags)
    plan = build_plan(flags, fixture.program.geometry, tau=fixture.profile.tau)
    with pytest.raises(ValidationError, match="unmapped"):
        account(apply_plan(fixture.program, plan), fixture.inputs, flags)


def test_reference_figures_are_reported_not_asserted():
    assert REFERENCE_FIGURES["mean_savings_detect_pct"] == 20.61
    assert REFERENCE_FIGURES["mean_savings_correct_pct"] == 27.15
    assert REFERENCE_FIGURES["mean_remap_overhead_pct"] == 1.63


# account on each remappable fixture (seed 0, declared profile, τ = 5%):
# cycles_base, cycles_remapped, partial detect and correct, full RMT and TMR.
# A change to the fixtures or to the cost model that moves these re-pins
# them on purpose.
SUITE_CYCLES = {
    "jmeint_k1": (49511, 32983, 55211, 77439, 103022, 156533),
    "laplacian_k1": (31560, 31112, 48049, 64986, 68240, 104920),
    "meanfilter_k1": (82810, 73851, 141613, 209375, 174740, 266670),
    "conv2d_k1": (40036, 35134, 73824, 112514, 84168, 128300),
    "gaussian_k2": (24325, 19430, 21670, 23910, 54410, 84495),
    "hotspot_k1": (13034, 10304, 19849, 29394, 27604, 42174),
    "pathfinder_k1": (11550, 9832, 19838, 29844, 24636, 37722),
}


def test_suite_cycles_are_pinned():
    seen = {}
    for fixture in remappable_suite(seed=0):
        flags = list(fixture.flags)
        assert fixture.profile.tau == Fraction(1, 20)
        plan = build_plan(flags, fixture.program.geometry, tau=Fraction(1, 20))
        report = account(fixture.program, fixture.inputs, flags, plan=plan)
        seen[fixture.name] = (
            report.cycles_base,
            report.cycles_remapped,
            report.cycles_partial_detect,
            report.cycles_partial_correct,
            report.cycles_full_rmt,
            report.cycles_full_tmr,
        )
    assert seen == SUITE_CYCLES

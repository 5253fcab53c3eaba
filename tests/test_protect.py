from fractions import Fraction

import pytest

from warpshield.classify import classify_threads, classify_warps
from warpshield.errors import ValidationError
from warpshield.faults import FaultSite, enumerate_fault_space, golden_run, run_campaign
from warpshield.fixtures import generate_fixture
from warpshield.interp import CostTable, execute
from warpshield.profiling import profile_kernel
from warpshield.protect import (
    CORRECT,
    DETECT,
    ProtectionPlan,
    build_protection_plan,
    protection_report,
    run_protected,
)

from support import add_one_inputs, add_one_kernel, address_probe_kernel, dead_write_kernel, named_fixture


def _full_plan(program, mode):
    factor = 2 if mode == DETECT else 3
    return ProtectionPlan(mode, {(w.cta_id, w.warp_id): factor for w in program.warps()})


def test_plan_factors_from_classifications():
    fixture = generate_fixture("gaussian_k1")
    flags = list(fixture.flags)
    classifications = classify_warps(flags, fixture.program.warps())
    detect = build_protection_plan(classifications, DETECT)
    assert [detect.factors[(0, w)] for w in range(16)] == [2, 2] + [1] * 14
    correct = build_protection_plan(classifications, CORRECT)
    assert [correct.factors[(0, w)] for w in range(16)] == [3, 3] + [1] * 14
    assert detect.protected_warps == [(0, 0), (0, 1)]


def test_all_reliable_plan_never_replicates():
    classifications = classify_warps([True] * 64, add_one_kernel(1, 64).warps())
    plan = build_protection_plan(classifications, DETECT)
    assert set(plan.factors.values()) == {1}


def test_all_unreliable_correct_mode_degenerates_to_full_triplication():
    classifications = classify_warps([False] * 64, add_one_kernel(1, 64).warps())
    plan = build_protection_plan(classifications, CORRECT)
    assert set(plan.factors.values()) == {3}


def test_bad_mode_rejected():
    with pytest.raises(ValidationError):
        build_protection_plan([], "triplicate")


def test_fault_free_run_is_clean():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    golden = golden_run(program, inputs)
    for mode in (DETECT, CORRECT):
        result = run_protected(program, inputs, _full_plan(program, mode))
        assert result.detections == [] and result.corrections == []
        assert result.final_outputs == golden.outputs


def test_detect_catches_sdc_sites_and_correct_restores_golden():
    program = add_one_kernel()  # 2 CTAs x 32: both warps protected
    inputs = add_one_inputs(program)
    golden = golden_run(program, inputs)
    sites = enumerate_fault_space(program, inputs, threads=[0, 17, 45], golden=golden)
    campaign = run_campaign(program, inputs, sites, golden=golden)
    detect = _full_plan(program, DETECT)
    correct = _full_plan(program, CORRECT)
    for site in sites:
        outcome = campaign.per_site[site]
        detected = run_protected(program, inputs, detect, fault=site)
        if outcome.kind == "sdc":
            assert detected.detections, f"SDC at {site} escaped duplication"
        corrected = run_protected(program, inputs, correct, fault=site)
        assert corrected.final_outputs == golden.outputs, f"{site} not corrected"


def test_no_false_detections_on_masked_sites():
    program, inputs = dead_write_kernel()
    plan = _full_plan(program, DETECT)
    for bit in range(0, 32, 5):
        result = run_protected(program, inputs, plan, fault=FaultSite(4, 1, bit))
        assert result.detections == []


def test_replica_crash_detected_and_outvoted():
    program, inputs = address_probe_kernel()
    golden = golden_run(program, inputs)
    crash = FaultSite(3, 3, 31)
    detect = run_protected(program, inputs, _full_plan(program, DETECT), fault=crash)
    assert detect.detections and detect.warp_terminations[(0, 0)] == ("crashed", "completed")
    correct = run_protected(program, inputs, _full_plan(program, CORRECT), fault=crash)
    assert correct.warp_terminations[(0, 0)] == ("crashed", "completed", "completed")
    assert correct.final_outputs == golden.outputs


def test_unprotected_plan_costs_exactly_one_run():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    plan = ProtectionPlan(DETECT, {(w.cta_id, w.warp_id): 1 for w in program.warps()})
    result = run_protected(program, inputs, plan)
    assert result.cycles == execute(program, inputs).cycles
    assert result.detections == []


def test_full_duplication_cycles_double_plus_compare():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    base = execute(program, inputs)
    result = run_protected(program, inputs, _full_plan(program, DETECT))
    stores = sum(base.per_warp_stores.values())
    assert result.cycles == 2 * base.cycles + stores  # compare cost 1/store


def test_escape_rate_bounded_by_threshold_share():
    """Faults in unreplicated warps escape by design, but no faster than the
    threshold times those warps' share of the fault space."""
    fixture = named_fixture("split_probe")
    program, inputs = fixture.program, fixture.inputs
    measured = profile_kernel(program, inputs, mode="pruned")
    tau = Fraction(1, 20)
    flags = classify_threads(measured, tau)
    assert flags == [True] * 32 + [False] * 32  # warp 0 measures reliable
    golden = golden_run(program, inputs)
    sites_per_thread = [len(w) * 32 for w in golden.register_writes]
    total = sum(sites_per_thread)
    reliable_sites = sum(s for t, s in enumerate(sites_per_thread) if flags[t])
    escapes = sum(
        measured.threads[t].sdc_pct * sites_per_thread[t]
        for t in range(64)
        if flags[t]  # factor-1 warp members
    )
    assert escapes / total <= tau * Fraction(reliable_sites, total)


def test_protection_report_shape():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    plan = _full_plan(program, DETECT)
    result = run_protected(program, inputs, plan, fault=FaultSite(3, 3, 0))
    payload = protection_report(result, plan)
    assert payload["mode"] == "detect"
    assert payload["protected_warps"] == [[0, 0], [1, 0]]
    assert payload["detections"] == [
        {"cta": 0, "warp": 0, "locations": [{"buffer": "out", "index": 3}]}
    ]
    assert payload["corrected"] == []
    assert payload["cycles"] == result.cycles


def test_plan_must_cover_all_warps():
    program = add_one_kernel()
    with pytest.raises(ValidationError, match="cover"):
        run_protected(
            program, add_one_inputs(program), ProtectionPlan(DETECT, {(0, 0): 2})
        )

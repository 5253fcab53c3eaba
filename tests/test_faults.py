import random

import pytest

from warpshield.errors import CampaignRefused, ValidationError
from warpshield.faults import (
    FaultSite,
    FaultSpace,
    Outcome,
    classify_outcome,
    default_budget,
    enumerate_fault_space,
    golden_run,
    run_campaign,
    sample_sites,
)
from warpshield.interp import execute
from warpshield.ir import parse_kernel
from warpshield.protect import CORRECT, DETECT, ProtectionPlan, run_protected

from support import (
    add_one_inputs,
    add_one_kernel,
    address_probe_kernel,
    dead_write_kernel,
    run_protected_every_replica,
    two_group_kernel,
)


@pytest.fixture(scope="module")
def add_one():
    program = add_one_kernel()
    return program, add_one_inputs(program)


def test_enumeration_one_thread_96_sites(add_one):
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs, threads=[3])
    assert len(sites) == 96  # 3 register-writing dynamic instructions x 32 bits
    assert sites == sorted(sites)
    assert {s.dyn_instr for s in sites} == {1, 2, 3}


def test_enumeration_empty_thread_set(add_one):
    program, inputs = add_one
    assert enumerate_fault_space(program, inputs, threads=[]) == []


def test_thread_without_register_writes_has_no_sites():
    src = """.kernel storeonly
.ctas 1
.ctasize 4
.out out 4
    st out[tid], r5
    exit
"""
    program = parse_kernel(src)
    assert enumerate_fault_space(program, {}, threads=[0, 1]) == []


def test_all_add_one_sites_are_sdc(add_one):
    """Every write feeds the stored sum, so no site on thread 3 can be masked."""
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs, threads=[3])
    campaign = run_campaign(program, inputs, sites)
    assert campaign.counts(3) == (0, 96, 0)
    assert all(o.kind == "sdc" for o in campaign.per_site.values())


def test_dead_register_sites_are_masked():
    program, inputs = dead_write_kernel()
    sites = [FaultSite(2, 1, bit) for bit in range(32)]  # the overwritten movi
    campaign = run_campaign(program, inputs, sites)
    assert campaign.counts(2) == (32, 0, 0)
    assert all(o == Outcome("masked") for o in campaign.per_site.values())


def test_empty_campaign(add_one):
    program, inputs = add_one
    campaign = run_campaign(program, inputs, [])
    assert campaign.per_site == {}
    assert campaign.per_thread_counts == {}


def test_address_corruption_classified_other_crashed():
    program, inputs = address_probe_kernel()
    campaign = run_campaign(program, inputs, [FaultSite(5, 3, 31)])
    assert campaign.per_site[FaultSite(5, 3, 31)] == Outcome("other", "crashed")


def test_user_supplied_site_never_executed_is_masked(add_one):
    program, inputs = add_one
    sites = [FaultSite(0, 4, 0), FaultSite(0, 50, 7), FaultSite(64, 1, 0)]
    campaign = run_campaign(program, inputs, sites)
    # dyn 4 is the store (no destination register), dyn 50 is past the trace,
    # thread 64 is never launched
    assert all(
        o == Outcome("masked", "not-executed") for o in campaign.per_site.values()
    )


def test_campaign_refuses_golden_it_cannot_score_against(add_one):
    program, inputs = add_one
    sites = [FaultSite(3, 1, 0)]
    with pytest.raises(ValidationError, match="store streams"):
        run_campaign(program, inputs, sites, golden=execute(program, inputs))
    with pytest.raises(ValidationError, match="peak iCnt"):
        run_campaign(program, inputs, sites, budget=4)


def test_partition_counts_sum_to_sites(add_one):
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs, threads=[0, 1, 63])
    campaign = run_campaign(program, inputs, sites)
    for tid in (0, 1, 63):
        assert sum(campaign.counts(tid)) == 96


def test_campaign_deterministic_across_repetitions(add_one):
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs, threads=[7, 40])
    first = run_campaign(program, inputs, sites)
    second = run_campaign(program, inputs, sites)
    assert first.per_site == second.per_site
    assert first.per_thread_counts == second.per_thread_counts


def test_campaign_refused_when_golden_crashes():
    program, inputs = address_probe_kernel()
    inputs = dict(inputs, idx=[100] * 32)  # out-of-bounds golden addresses
    with pytest.raises(CampaignRefused, match="crashed"):
        golden_run(program, inputs)


def test_sampling_identity_and_determinism(add_one):
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs, threads=[3, 4, 5])
    assert sample_sites(sites, 1.0, seed=1) == sites
    quarter = sample_sites(sites[:96], 0.25, seed=42)
    assert len(quarter) == 24
    assert quarter == sample_sites(sites[:96], 0.25, seed=42)
    assert quarter != sample_sites(sites[:96], 0.25, seed=43)
    assert set(quarter) <= set(sites[:96])
    with pytest.raises(ValidationError):
        sample_sites(sites, 0.0, seed=1)
    with pytest.raises(ValidationError):
        sample_sites(sites, 1.5, seed=1)


# Thread 0 writes no register; the others run n[tid] % 7 loop trips, so
# their site counts differ.
UNEVEN_SOURCE = """\
.kernel uneven
.ctas 1
.ctasize 40
.in n 40
.out out 40
    bra r62, BUSY
    exit
BUSY: ld r1, n[tid]
    movi r2, 0
    movi r4, 1
LOOP: setp.ge r3, r2, r1
    bra r3, DONE
    iadd r2, r2, r4
    bra LOOP
DONE: st out[tid], r2
    exit
"""


@pytest.mark.parametrize("fraction", [0.001, 0.01, 0.1, 0.5, 0.9, 1.0])
def test_lazy_fault_space_samples_the_sites_of_the_list(fraction):
    program = parse_kernel(UNEVEN_SOURCE)
    inputs = {"n": [t % 7 for t in range(40)]}
    golden = golden_run(program, inputs)
    threads = [9, 0, 31, 7, 4, 20]
    listed = enumerate_fault_space(program, inputs, threads, golden=golden)
    space = FaultSpace(golden, threads)
    assert not golden.register_writes[0] and len(space) == len(listed) > 0
    assert list(space) == listed
    assert [space[i] for i in range(-len(space), len(space))] == listed + listed
    for index in (len(space), -len(space) - 1):
        with pytest.raises(IndexError):
            space[index]
    for seed in range(6):
        assert sample_sites(space, fraction, seed) == sample_sites(listed, fraction, seed)


def test_site_validation():
    with pytest.raises(ValidationError):
        FaultSite(0, 1, 32)
    with pytest.raises(ValidationError):
        FaultSite(0, 0, 3)


def test_classify_outcome_rules(add_one):
    program, inputs = add_one
    golden = golden_run(program, inputs)
    assert classify_outcome(golden, golden) == Outcome("masked", "not-executed")


# ---------------------------------------------------------------------------
# differential oracle: warp-local campaigns against whole-kernel re-execution


def _full_run_outcomes(program, inputs, sites):
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    return {
        site: classify_outcome(golden, execute(program, inputs, fault=site, budget=budget))
        for site in sites
    }


@pytest.mark.parametrize("kernel", [dead_write_kernel, address_probe_kernel, two_group_kernel])
def test_warp_local_campaign_equals_full_runs_on_every_site(kernel):
    program, inputs = kernel()
    sites = enumerate_fault_space(program, inputs)
    campaign = run_campaign(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)


# Two CTAs of two warps (32 + 1 threads).  In CTA 0, warp 0 stores after the
# bar and warp 1 before it, and threads 0 and 32 both store to out[0]; CTA 1
# splits around the bar lane by lane and stores to out[tid].  Faults in dst
# move stores onto other warps' locations, onto unwritten ones (out[66..95])
# or out of bounds; faults in the setp move a store across the bar.
PHASE_PROBE_SOURCE = """\
.kernel phase_probe
.ctas 2
.ctasize 33
.in late 66
.in dst 66
.in val 66
.out out 96
    ld r1, late[tid]
    ld r2, dst[tid]
    ld r4, val[tid]
    setp.ne r3, r1, r0
    bra r3, LATE
    st out[r2], r4
    bar
    exit
LATE: bar
    st out[r2], r4
    exit
"""


def _phase_probe():
    program = parse_kernel(PHASE_PROBE_SOURCE)
    late = [1] * 32 + [0] + [t % 2 for t in range(33)]
    dst = [0 if t in (0, 32) else t for t in range(66)]
    return program, {"late": late, "dst": dst, "val": [1000 + t for t in range(66)]}


@pytest.fixture(scope="module")
def phase_probe():
    """The probe, its golden run and, per fault site, the full faulted run's
    outcome and (when it completes) outputs."""
    program, inputs = _phase_probe()
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    full = {}
    for site in enumerate_fault_space(program, inputs, golden=golden):
        run = execute(program, inputs, fault=site, budget=budget)
        full[site] = (classify_outcome(golden, run), run.outputs if run.completed else None)
    return program, inputs, golden, full


def _uniform_plan(program, mode, factor):
    return ProtectionPlan(mode, {(w.cta_id, w.warp_id): factor for w in program.warps()})


def test_warp_local_campaign_equals_full_runs_with_barrier_and_shared_locations(phase_probe):
    program, inputs, golden, full = phase_probe
    campaign = run_campaign(program, inputs, list(full), golden=golden)
    assert campaign.per_site == {site: outcome for site, (outcome, _) in full.items()}
    kinds = {o.detail or o.kind for o in campaign.per_site.values()}
    assert kinds == {"masked", "sdc", "crashed"}


def test_unprotected_replay_equals_execute_on_phase_probe(phase_probe):
    """Factor 1 everywhere replays the isolated warps' streams in full-run
    order: out[0] takes thread 0's post-bar store, as in execute."""
    program, inputs, golden, full = phase_probe
    plan = _uniform_plan(program, DETECT, 1)
    result = run_protected(program, inputs, plan)
    assert result.final_outputs == golden.outputs
    assert result.final_outputs["out"][0] == 1000
    completed = {site: outputs for site, (_, outputs) in full.items() if outputs is not None}
    assert len(completed) == 6765
    for site, outputs in completed.items():
        assert run_protected(program, inputs, plan, fault=site).final_outputs == outputs, site


# Thread 0 skips its wait at the bar, so its out[0] store lands before
# thread 32's instead of after it.
MOVED_SITE = FaultSite(0, 4, 0)  # the setp that picks the late path


def test_store_moved_across_barrier_is_sdc_though_warp_stream_is_unchanged(phase_probe):
    """The isolated stream differs from the golden one only in the phase
    of the out[0] store, and that is enough to make the site an SDC."""
    program, inputs, golden, _ = phase_probe
    isolated = execute(program, inputs, fault=MOVED_SITE, warp_filter=(0, 0), record_stores=True)
    assert isolated.fault_applied
    moved, kept = isolated.store_streams[(0, 0)], golden.store_streams[(0, 0)]
    assert [rec[:3] for rec in moved] == [rec[:3] for rec in kept]
    assert [(i, a[3], b[3]) for i, (a, b) in enumerate(zip(moved, kept)) if a != b] == [(0, 0, 1)]
    assert moved[0][:2] == ("out", 0)
    campaign = run_campaign(program, inputs, [MOVED_SITE], golden=golden)
    assert campaign.per_site[MOVED_SITE] == Outcome("sdc")


def test_store_moved_across_barrier_is_detected_and_corrected(phase_probe):
    program, inputs, golden, _ = phase_probe
    correct = run_protected(program, inputs, _uniform_plan(program, CORRECT, 3), fault=MOVED_SITE)
    assert correct.final_outputs == golden.outputs
    assert [(c.cta_id, c.warp_id) for c in correct.corrections] == [(0, 0)]
    detect = run_protected(program, inputs, _uniform_plan(program, DETECT, 2), fault=MOVED_SITE)
    assert [(d.cta_id, d.warp_id, d.locations) for d in detect.detections] == [
        (0, 0, (("out", 0),))
    ]


def _alternating_plan(program, mode, factor):
    return ProtectionPlan(
        mode, {(w.cta_id, w.warp_id): factor if w.warp_id % 2 else 1 for w in program.warps()}
    )


def _primaries_after_checking_replica_reuse(program, inputs, sites, golden):
    """Assert run_protected equals the every-replica reference under uniform
    and alternating plans of both modes, fault-free and at every site; return
    the terminations of the primaries seen."""
    budget = default_budget(golden)
    primaries = set()
    for mode, factor in ((DETECT, 2), (CORRECT, 3)):
        for plan in (_uniform_plan(program, mode, factor), _alternating_plan(program, mode, factor)):
            for fault in [None, *sites]:
                result = run_protected(program, inputs, plan, fault=fault, budget=budget)
                reference = run_protected_every_replica(program, inputs, plan, fault=fault, budget=budget)
                assert result == reference, (mode, fault)
                primaries.update(terms[0] for terms in result.warp_terminations.values())
    return primaries


def test_fault_free_replicas_sharing_a_run_equal_every_replica_on_phase_probe(phase_probe):
    program, inputs, golden, full = phase_probe
    sites = [MOVED_SITE, *sorted(full)[::29]]
    assert _primaries_after_checking_replica_reuse(program, inputs, sites, golden) == {
        "completed",
        "crashed",
    }


CHASE_SOURCE = """\
.kernel chase
.ctas 2
.ctasize 48
.in trips 96
.in link 96
.in vals 96
.out out 96
    ld r1, trips[tid]
    mov r3, tid
    movi r6, 1
LOOP: setp.ge r8, r4, r1
    bra r8, DONE
    ld r3, link[r3]
    ld r9, vals[r3]
    iadd r5, r5, r9
    iadd r4, r4, r6
    bra LOOP
DONE: bar
    st out[tid], r5
    exit
"""


def _chase():
    program = parse_kernel(CHASE_SOURCE)
    rng = random.Random("chase")
    inputs = {
        "trips": [rng.randrange(6) for _ in range(96)],
        "link": [rng.randrange(96) for _ in range(96)],
        "vals": [rng.getrandbits(32) for _ in range(96)],
    }
    return program, inputs


def test_warp_local_campaign_equals_full_runs_on_sampled_loop_sites():
    program, inputs = _chase()
    sites = sample_sites(enumerate_fault_space(program, inputs), 0.01, seed=7)
    campaign = run_campaign(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)
    kinds = {o.detail or o.kind for o in campaign.per_site.values()}
    assert {"crashed", "hung", "sdc", "masked"} <= kinds


def test_fault_free_replicas_sharing_a_run_equal_every_replica_on_loop_sites():
    program, inputs = _chase()
    golden = golden_run(program, inputs)
    sites = sample_sites(enumerate_fault_space(program, inputs, golden=golden), 0.001, seed=7)
    primaries = _primaries_after_checking_replica_reuse(program, inputs, sites, golden)
    assert primaries == {"completed", "crashed", "hung"}

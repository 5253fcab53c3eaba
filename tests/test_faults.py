import importlib.util
from pathlib import Path

import pytest

from warpshield import faults, interp
from warpshield.errors import CampaignRefused, ValidationError
from warpshield.faults import (
    FaultSite,
    FaultSpace,
    Outcome,
    RunCounts,
    classify_outcome,
    default_budget,
    enumerate_fault_space,
    golden_run,
    run_campaign,
    sample_sites,
)
from warpshield.fixtures import generate_fixture
from warpshield.interp import ThreadRun, execute, word_inputs
from warpshield.ir import DEFAULT_BUDGET, parse_kernel
from warpshield.profiling import profile_digest, profile_kernel
from warpshield.protect import CORRECT, DETECT, ProtectionPlan, run_protected

from support import (
    add_one_inputs,
    add_one_kernel,
    address_probe_kernel,
    chase_kernel,
    dead_write_kernel,
    finish_issue_by_issue,
    from_launch_campaign,
    named_fixture,
    profile_per_campaign,
    run_protected_every_replica,
    single_step_execute,
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


def _full_run_outcomes(program, inputs, sites, budget=None):
    golden = golden_run(program, inputs)
    if budget is None:
        budget = default_budget(golden)
    return {
        site: classify_outcome(golden, execute(program, inputs, fault=site, budget=budget))
        for site in sites
    }


@pytest.mark.parametrize("kernel", [dead_write_kernel, address_probe_kernel, two_group_kernel])
def test_warp_local_campaign_equals_full_runs_on_every_site(kernel):
    """Warp-local injection scores every site as full re-execution and the
    from-launch campaign do."""
    program, inputs = kernel()
    sites = enumerate_fault_space(program, inputs)
    campaign = _assert_equals_from_launch(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)


@pytest.mark.parametrize("name, fraction", [("fidelity_probe", 0.01), ("split_probe", 0.005)])
def test_warp_local_campaign_equals_full_runs_on_sampled_probe_sites(name, fraction):
    """The dispatch kernels of the fixture suite: one mixed warp, and one
    pure warp of each class."""
    fixture = named_fixture(name)
    program, inputs = fixture.program, fixture.inputs
    sites = sample_sites(enumerate_fault_space(program, inputs), fraction, seed=3)
    campaign = run_campaign(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)
    assert {o.kind for o in campaign.per_site.values()} == {"masked", "sdc"}


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
    campaign = _assert_equals_from_launch(program, inputs, list(full), golden=golden)
    assert campaign.per_site == {site: outcome for site, (outcome, _) in full.items()}
    kinds = {o.detail or o.kind for o in campaign.per_site.values()}
    assert kinds == {"masked", "sdc", "crashed"}
    # Faults in dst move stores onto warp-mates' locations in their phase.
    runs = campaign.runs
    assert runs.without_run + runs.lone_thread + runs.full_warp == len(full)
    assert runs.full_warp > 0 and runs.lone_thread > runs.full_warp


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


def test_warp_local_campaign_equals_full_runs_on_sampled_loop_sites():
    program, inputs = chase_kernel()
    sites = sample_sites(enumerate_fault_space(program, inputs), 0.01, seed=7)
    campaign = run_campaign(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)
    kinds = {o.detail or o.kind for o in campaign.per_site.values()}
    assert {"crashed", "hung", "sdc", "masked"} <= kinds


def test_fused_runs_equal_single_step_on_sampled_loop_sites():
    """Full and warp-filtered faulted runs of the loop kernel equal the
    single-step reference, over masked, sdc, crashed and hung outcomes."""
    program, inputs = chase_kernel()
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    sites = sample_sites(enumerate_fault_space(program, inputs, golden=golden), 0.004, seed=5)
    warp_of = {t: (w.cta_id, w.warp_id) for w in program.warps() for t in w.members}
    kinds = set()
    for site in sites:
        kwargs = dict(fault=site, budget=budget, record_writes=site.bit % 2 == 0)
        full = execute(program, inputs, **kwargs)
        assert full == single_step_execute(program, inputs, **kwargs), site
        outcome = classify_outcome(golden, full)
        kinds.add(outcome.detail or outcome.kind)
        kwargs = dict(kwargs, warp_filter=warp_of[site.thread_id], record_stores=True)
        assert execute(program, inputs, **kwargs) == single_step_execute(program, inputs, **kwargs)
    assert kinds == {"masked", "sdc", "crashed", "hung"}


def test_fault_free_replicas_sharing_a_run_equal_every_replica_on_loop_sites():
    program, inputs = chase_kernel()
    golden = golden_run(program, inputs)
    sites = sample_sites(enumerate_fault_space(program, inputs, golden=golden), 0.001, seed=7)
    primaries = _primaries_after_checking_replica_reuse(program, inputs, sites, golden)
    assert primaries == {"completed", "crashed", "hung"}


def test_campaign_refuses_a_repeated_site(add_one):
    program, inputs = add_one
    site = FaultSite(3, 3, 0)
    with pytest.raises(ValidationError, match="repeats a site"):
        run_campaign(program, inputs, [site, site])


# ---------------------------------------------------------------------------
# differential gate: campaigns resumed from golden checkpoints against the
# from-launch campaign


def _assert_equals_from_launch(program, inputs, sites, **kwargs):
    campaign = run_campaign(program, inputs, sites, **kwargs)
    reference = from_launch_campaign(program, inputs, sites, **kwargs)
    assert campaign.per_site == reference.per_site
    assert list(campaign.per_site) == list(reference.per_site)
    assert campaign.per_thread_counts == reference.per_thread_counts
    return campaign


def test_resumed_campaign_equals_from_launch_on_every_site(add_one):
    """So do ``dead_write``, ``address_probe`` and ``two_group`` (the
    full-run tests above) and ``phase_probe``, barrier and shared
    locations included."""
    program, inputs = add_one
    sites = enumerate_fault_space(program, inputs)
    campaign = _assert_equals_from_launch(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)


@pytest.mark.parametrize("tight", [False, True], ids=["default-budget", "tight-budget"])
def test_resumed_campaign_equals_from_launch_on_sampled_loop_sites(tight):
    """With the budget at the golden peak iCnt, diverged warps pass it and
    issue single steps, so forks happen at single-stepped issues too."""
    program, inputs = chase_kernel()
    golden = golden_run(program, inputs)
    budget = golden.max_icnt() if tight else None
    sites = sample_sites(enumerate_fault_space(program, inputs, golden=golden), 0.01, seed=7)
    campaign = _assert_equals_from_launch(program, inputs, sites, golden=golden, budget=budget)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites, budget)
    kinds = {o.detail or o.kind for o in campaign.per_site.values()}
    assert {"crashed", "hung", "sdc", "masked"} <= kinds
    # Each thread stores only to out[tid]: no site needs its whole warp.
    assert campaign.runs.full_warp == 0 and campaign.runs.lone_thread > 0


def test_resumed_campaign_equals_from_launch_on_user_supplied_sites():
    program, inputs = chase_kernel()
    golden = golden_run(program, inputs)
    thread = max(range(96), key=lambda t: len(golden.register_writes[t]))
    writes = golden.register_writes[thread]
    icnt = golden.per_thread_icnt[thread]
    store = icnt - 1  # the st before exit
    assert store not in writes and icnt > writes[-1]
    sites = [
        *(FaultSite(thread, 1, bit) for bit in (0, 31)),
        *(FaultSite(thread, writes[-1], bit) for bit in (0, 7, 31)),
        FaultSite(thread, store, 3),
        FaultSite(thread, icnt + 5, 3),
        FaultSite(96, 1, 0),
    ]
    campaign = _assert_equals_from_launch(program, inputs, sites, golden=golden)
    not_executed = [s for s, o in campaign.per_site.items() if o.detail == "not-executed"]
    assert not_executed == sites[-3:]


# One kernel per kind of read the dead-write rule must see.  Each flips
# every bit of one register write whose value is read, if at all, in a
# later issue than its own.
_DEAD_WRITE_HEADER = """\
.kernel reads
.ctas 1
.ctasize 32
.in in 32
.out out 32
"""
_READ_CASES = {
    "bra-predicate": ("""\
    ld r1, in[tid]
    movi r2, 0
    setp.ne r3, r1, r2
    st out[tid], r1
    bra r3, SKIP
    st out[tid], r2
SKIP: exit
""", 5, 3, {"masked", "sdc"}, 32),
    "st-address": ("""\
    ld r1, in[tid]
    mov r4, tid
    st out[r4], r1
    exit
""", 5, 2, {"sdc", "crashed"}, 32),
    "st-value": ("""\
    ld r1, in[tid]
    mov r4, r1
    st out[tid], r4
    exit
""", 5, 2, {"sdc"}, 32),
    "ld-address": ("""\
    mov r4, tid
    ld r5, in[r4]
    st out[tid], r5
    exit
""", 5, 1, {"sdc", "crashed"}, 32),
    "read-and-rewrite": ("""\
    ld r1, in[tid]
    movi r5, 3
    st out[tid], r1
    iadd r5, r5, r1
    st out[tid], r5
    exit
""", 5, 2, {"sdc"}, 32),
    "never-read-before-exit": ("""\
    ld r1, in[tid]
    movi r7, 9
    st out[tid], r1
    exit
""", 5, 2, {"masked"}, 0),
}
_DIVERGENT_SOURCE = """\
    ld r1, in[tid]
    movi r7, 5
    movi r9, 3
    setp.eq r3, tid, r9
    bra r3, THREE
    st out[tid], r1
    exit
THREE: iadd r8, r7, r1
    st out[tid], r8
    exit
"""
# r7 is read only in the block that thread 3 alone runs.
_READ_CASES["divergent-path-read"] = (_DIVERGENT_SOURCE, 3, 2, {"sdc"}, 32)
_READ_CASES["divergent-path-unread"] = (_DIVERGENT_SOURCE, 4, 2, {"masked"}, 0)


def _counted_forks(monkeypatch) -> list:
    forks = []
    fork = ThreadRun.fork

    def counted(self, *args, **kwargs):
        forks.append(args)
        return fork(self, *args, **kwargs)

    monkeypatch.setattr(ThreadRun, "fork", counted)
    return forks


def _counted_fork_issues(monkeypatch) -> list[int]:
    """Per fork, the number of ``issue`` calls its copy makes."""
    issues = []
    fork = ThreadRun.fork

    def counted(self, *args, **kwargs):
        twin = fork(self, *args, **kwargs)
        issue, k = twin._issue, len(issues)
        issues.append(0)

        def counting(wp):
            issues[k] += 1
            issue(wp)

        twin._issue = counting
        return twin

    monkeypatch.setattr(ThreadRun, "fork", counted)
    return issues


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _loop_barrier_seed_0():
    spec = importlib.util.spec_from_file_location("loop_inputs", PERFBENCH / "loop_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    program = parse_kernel((PERFBENCH / "loop_barrier.wir").read_text())
    return program, module.loop_inputs(program, 0)


def test_fork_mask_and_collision_decisions_are_pinned(phase_probe):
    """How each site is decided, and the profile it yields, pinned on two
    kernels: the bench's seed-0, 5%-sampled pruned profile of the
    loop/barrier kernel and the unsampled exhaustive ``phase_probe``
    campaign.  A moved fork, mask or collision decision changes a count or
    the digest."""
    program, inputs = _loop_barrier_seed_0()
    profile = profile_kernel(program, inputs, "pruned", 0.05, seed=0)
    assert profile.runs == RunCounts(without_run=10, lone_thread=682, full_warp=0, crashed=71, hung=13)
    assert profile_digest(profile) == "6522c5bda3b16bde371479c7cb1434268ff85c60b05f026c871775f8225558ad"
    program, inputs, golden, full = phase_probe
    campaign = run_campaign(program, inputs, list(full), golden=golden)
    assert campaign.runs == RunCounts(without_run=0, lone_thread=8168, full_warp=280, crashed=1683, hung=0)


def test_one_fault_free_run_per_injected_thread(monkeypatch):
    """Each injected thread runs fault-free once: the cursor its sites fork
    from runs on to the end for its golden stores.  Forks are copies made
    without the constructor, so only fault-free runs are counted."""
    made = []
    real = faults.ThreadRun

    def counted(program, words, thread, key, budget):
        made.append(thread)
        return real(program, words, thread, key, budget)

    monkeypatch.setattr(faults, "ThreadRun", counted)
    program, inputs = _loop_barrier_seed_0()
    profile = profile_kernel(program, inputs, "pruned", 0.05, seed=0)
    assert profile.runs.lone_thread == 682
    assert len(made) == len(set(made)) == 8


@pytest.mark.parametrize(
    "kernel, mode, fraction",
    [
        ("phase_probe", "pruned", 1.0),
        ("phase_probe", "pruned", 0.3),
        ("phase_probe", "exhaustive", 1.0),
        ("phase_probe", "exhaustive", 0.3),
        ("loop_barrier", "pruned", 1.0),
        ("loop_barrier", "pruned", 0.05),
        ("loop_barrier", "exhaustive", 0.02),
    ],
)
def test_sites_from_each_warps_own_trace_equal_sites_from_the_golden_trace(kernel, mode, fraction):
    """profile_kernel draws each injected thread's sites from a run of its
    warp alone; the rows, the digest and the run counts equal those of the
    reference, which draws them from ``golden_run``'s trace of the whole
    kernel.  (An unsampled exhaustive profile of the loop/barrier kernel
    takes half a minute; the phase probe and the generated kernels cover
    that mode.)"""
    program, inputs = _phase_probe() if kernel == "phase_probe" else _loop_barrier_seed_0()
    reference = profile_per_campaign(program, inputs, mode, fraction, 3, run_campaign)
    profile = profile_kernel(program, inputs, mode, fraction, seed=3)
    assert profile == reference
    assert profile_digest(profile) == profile_digest(reference)
    assert profile.runs == reference.runs


@pytest.mark.parametrize("kernel", ["phase_probe", "jmeint_k1"])
def test_profile_records_write_traces_only_in_runs_of_one_warp(monkeypatch, kernel):
    """No run of a profile records the whole kernel's write trace: each
    ``execute`` call that records writes is filtered to one warp, once per
    warp with injected threads, and no such run counts in ``runs``: the
    campaigns' warp runs, each with its fault, are ``runs.full_warp``."""
    if kernel == "phase_probe":
        (program, inputs), mode, fraction = _phase_probe(), "exhaustive", 1.0
    else:
        fixture = generate_fixture(kernel)
        program, inputs, mode, fraction = fixture.program, fixture.inputs, "pruned", 0.005
    calls = []
    real = interp.execute

    def spied(*args, **kwargs):
        calls.append((kwargs.get("warp_filter"), kwargs.get("record_writes", False), kwargs.get("fault")))
        return real(*args, **kwargs)

    monkeypatch.setattr(interp, "execute", spied)
    monkeypatch.setattr(faults, "execute", spied)
    profile = profile_kernel(program, inputs, mode, fraction, seed=0)
    assert (None, True, None) not in calls
    traced = [key for key, writes, _ in calls if writes]
    injected = {t for t, p in enumerate(profile.provenance) if p == "measured"}
    hosts = [(w.cta_id, w.warp_id) for w in program.warps() if injected & set(w.members)]
    assert traced == hosts
    warp_runs = [fault for key, writes, fault in calls if key is not None and not writes]
    assert len(warp_runs) == profile.runs.full_warp
    assert None not in warp_runs
    if kernel == "phase_probe":
        assert profile.runs.full_warp == 280 and len(hosts) == 4
    else:
        assert profile.runs.full_warp == 0 and hosts == [(0, 0)]


# Bit 20 of a trip count (thread 5's first loop, thread 200's second) asks
# for about a million iterations: the lone thread runs to the budget.
@pytest.mark.parametrize("site", [FaultSite(5, 1, 20), FaultSite(200, 2, 20)], ids=str)
def test_hung_loop_site_finishes_in_a_handful_of_issues(monkeypatch, site):
    """The lone form runs the thread up to the block that would pass the
    budget; ``issue`` only makes what is left of that block, where the
    thread hangs.  Driven one block per issue, it took thousands."""
    program, inputs = _loop_barrier_seed_0()
    issues = _counted_fork_issues(monkeypatch)
    campaign = run_campaign(program, inputs, [site])
    assert campaign.per_site[site] == Outcome("other", "hung")
    assert campaign.runs == RunCounts(without_run=0, lone_thread=1, full_warp=0, crashed=0, hung=1)
    assert len(issues) == 1 and 1 <= issues[0] <= 8  # its longest block has 7 instructions


@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_dead_write_rule_on_hand_kernels(monkeypatch, case):
    """A write read only by the named access runs and is scored as the
    from-launch campaign scores it; a write never read is masked without
    a run."""
    body, thread, dyn, kinds, runs = _READ_CASES[case]
    program = parse_kernel(_DEAD_WRITE_HEADER + body)
    inputs = {"in": [100 + 3 * t for t in range(32)]}
    sites = [FaultSite(thread, dyn, bit) for bit in range(32)]
    forks = _counted_forks(monkeypatch)
    campaign = _assert_equals_from_launch(program, inputs, sites)
    assert {o.detail or o.kind for o in campaign.per_site.values()} == kinds
    assert len(forks) == runs
    assert all(written is not None for _, written in forks)  # forked at the read


# Warp 0 (threads 0-31) waits at the bar, then stores out[0]; warp 1
# (thread 32) stores out[0] before its bar.  Warp 0's store lands last only
# because it carries the later barrier phase.
FORK_AFTER_BAR_SOURCE = """\
.kernel fork_after_bar
.ctas 1
.ctasize 33
.in late 33
.out out 2
    ld r1, late[tid]
    movi r5, 5
    movi r2, 0
    setp.ne r3, r1, r2
    bra r3, LATE
    st out[r2], r1
    bar
    exit
LATE: bar
    setp.ne r7, r5, r2
    bra r7, STORE
    exit
STORE: st out[r2], r1
    exit
"""


def test_fork_after_a_barrier_release_keeps_the_phase(monkeypatch):
    """Every flip of thread 0's ``movi r5, 5`` keeps r5 nonzero, so it is
    masked; its first read follows the bar, so each run forks after the
    release and its store must carry phase 1 to land after warp 1's."""
    program = parse_kernel(FORK_AFTER_BAR_SOURCE)
    inputs = {"late": [1] * 32 + [0]}
    sites = [FaultSite(0, 2, bit) for bit in range(32)]
    forks = _counted_forks(monkeypatch)
    campaign = _assert_equals_from_launch(program, inputs, sites)
    assert set(campaign.per_site.values()) == {Outcome("masked")}
    assert len(forks) == 32 and all(written == 5 for _, written in forks)


# The two paths differ in length by more than what follows JOIN's block,
# so at the golden peak iCnt a run of the whole warp, whose issue count
# counts both paths, would issue that block in single steps.  A thread's
# own fault-free run never splits it: its issue count is its iCnt, which
# stays within the peak.
STEPPED_BLOCK_SOURCE = """\
.kernel stepped_block
.ctas 1
.ctasize 32
.in in 32
.out out 32
    ld r1, in[tid]
    movi r2, 16
    setp.lt r3, tid, r2
    bra r3, LOW
    movi r4, 0
    movi r4, 0
    movi r4, 0
    movi r4, 0
    bra JOIN
LOW: movi r4, 0
    movi r4, 0
    movi r4, 0
    movi r4, 0
JOIN: movi r6, 0
    mov r5, tid
    ld r7, in[r5]
    st out[tid], r7
    exit
"""


def test_site_in_a_block_the_budget_splits_into_single_steps():
    """``mov r5`` (dynamic instruction 10 of thread 3) lies one step into
    JOIN's block, which a whole warp at a budget of the golden peak would
    single-step; thread 3's own fault-free run issues the block whole, and
    the campaign at that budget still equals the from-launch oracle.  r5 is
    read by the next block's load."""
    program = parse_kernel(STEPPED_BLOCK_SOURCE)
    inputs = {"in": [100 + 3 * t for t in range(32)]}
    golden = golden_run(program, inputs)
    join = next(pc for pc, ins in enumerate(program.instructions) if ins.opcode == "movi" and ins.dest == 6)
    cursor = ThreadRun(program, word_inputs(program, inputs), 3, (0, 0), golden.max_icnt())
    while (coming := cursor.next_issue())[0] != join:
        cursor.advance()
    assert coming == (join, join + 2)  # movi r6 and mov r5 as one block
    sites = [FaultSite(3, 10, bit) for bit in range(32)]
    campaign = _assert_equals_from_launch(program, inputs, sites, budget=golden.max_icnt())
    assert {o.detail or o.kind for o in campaign.per_site.values()} == {"sdc", "crashed"}


# ---------------------------------------------------------------------------
# one-thread runs: a site re-runs its thread alone unless one of its stores
# shares a location and a phase with a warp-mate's


COLLIDE_SOURCE = """\
.kernel collide
.ctas 1
.ctasize 32
.in dst 32
.in val 32
.out out 64
    ld r1, dst[tid]
    ld r2, val[tid]
    st out[r1], r2
    exit
"""
# Flipping bit 5 of thread 0's dst (33) moves its store of 0 onto out[1],
# where lane 1 stores 7 in the same issue, after lane 0: the site is masked
# only because of that order.
COLLIDING_SITE = FaultSite(0, 1, 5)


def test_store_colliding_with_a_warp_mate_reruns_the_whole_warp():
    program = parse_kernel(COLLIDE_SOURCE)
    inputs = {"dst": [33, *range(1, 32)], "val": [0] + [7] * 31}
    sites = enumerate_fault_space(program, inputs)
    campaign = _assert_equals_from_launch(program, inputs, sites)
    assert campaign.per_site == _full_run_outcomes(program, inputs, sites)
    assert campaign.per_site[COLLIDING_SITE] == Outcome("masked")
    assert {o.detail or o.kind for o in campaign.per_site.values()} == {"masked", "sdc", "crashed"}
    assert run_campaign(program, inputs, [COLLIDING_SITE]).runs == RunCounts(0, 0, 1)


def _counted_warp_runs(monkeypatch) -> list:
    """Per ``execute`` call a campaign makes with a warp filter, its
    ``(fault, warp_filter)``."""
    calls = []
    real = faults.execute

    def counted(*args, **kwargs):
        if kwargs.get("warp_filter") is not None:
            calls.append((kwargs.get("fault"), kwargs["warp_filter"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(faults, "execute", counted)
    return calls


def test_collision_sites_rerun_their_warp_as_protection_does(monkeypatch, phase_probe):
    """Each site decided by a run of its whole warp makes exactly one
    ``execute(..., warp_filter=key)`` call, the run protection makes of a
    faulted replica, with that site as its fault; no other site makes one."""
    program, inputs, golden, full = phase_probe
    calls = _counted_warp_runs(monkeypatch)
    campaign = run_campaign(program, inputs, list(full), golden=golden)
    assert len(calls) == campaign.runs.full_warp > 0
    assert len({fault for fault, _ in calls}) == len(calls)
    # CTAs of 33 threads, launched in thread order
    assert all(key == (fault.thread_id // 33, fault.thread_id % 33 // 32) for fault, key in calls)

    program = parse_kernel(COLLIDE_SOURCE)
    inputs = {"dst": [33, *range(1, 32)], "val": [0] + [7] * 31}
    del calls[:]
    quiet = FaultSite(5, 2, 0)  # thread 5's value: its own slot, no collision
    assert run_campaign(program, inputs, [quiet]).runs == RunCounts(0, 1, 0)
    assert calls == []
    assert run_campaign(program, inputs, [COLLIDING_SITE]).runs == RunCounts(0, 0, 1)
    assert calls == [(COLLIDING_SITE, (0, 0))]


@pytest.mark.parametrize("name", ["chase", "jmeint_k1"])
def test_sampled_profiles_of_kernels_storing_to_their_own_slot_need_no_warp_run(name):
    if name == "chase":
        program, inputs = chase_kernel()
    else:
        fixture = generate_fixture(name)
        program, inputs = fixture.program, fixture.inputs
    runs = profile_kernel(program, inputs, "pruned", 0.005, seed=0).runs
    assert runs.full_warp == 0 and runs.lone_thread > 0


# Odd lanes branch to LATE, even lanes wait at the first bar meanwhile; r5,
# written at dynamic instruction 2, is read by even lanes after the bar.
WAIT_FORK_SOURCE = """\
.kernel wait_fork
.ctas 1
.ctasize 32
.in late 32
.out out 32
    ld r1, late[tid]
    movi r5, 5
    movi r2, 0
    setp.ne r3, r1, r2
    bra r3, LATE
    bar
    iadd r6, r5, r1
    st out[tid], r6
    exit
LATE: iadd r4, r1, r1
    bar
    st out[tid], r4
    exit
"""
BAR_PC = 5


def test_lone_copy_of_a_thread_waiting_at_a_bar():
    """A copy made after its thread issues a bar and before the release
    keeps the wait and the phase: it resumes at the release and stores what
    the thread stores in the faulted run of its warp."""
    program = parse_kernel(WAIT_FORK_SOURCE)
    inputs = {"late": [t % 2 for t in range(32)]}
    cursor = ThreadRun(program, word_inputs(program, inputs), 2, (0, 0), DEFAULT_BUDGET)
    while cursor.next_issue()[0] != BAR_PC:
        cursor.advance()
    cursor.advance()  # the bar: thread 2 waits until the next next_issue
    site = FaultSite(2, 2, 4)
    full = execute(program, inputs, fault=site, warp_filter=(0, 0), record_stores=True)
    lone = cursor.fork(site, written=5)
    assert lone.thread == 2 and lone.warp.waiting and not lone.warp.frags
    assert lone.warp.phase == 0 and lone.stream == []
    lone.finish()
    assert lone.stream == [record for record in full.store_streams[(0, 0)] if record[1] == 2]
    assert lone.stream == [("out", 2, 5 ^ 16, 1)]
    assert lone.icnt == full.per_thread_icnt[2]


# The second block loads through r1 and then r2; neither is written in it.
TWO_LOADS_SOURCE = """\
.kernel two_loads
.ctas 1
.ctasize 32
.in a 32
.in b 32
.out out 32
    mov r1, tid
    mov r2, tid
    ld r3, a[r1]
    ld r4, b[r2]
    iadd r5, r3, r4
    st out[tid], r5
    exit
"""


@pytest.mark.parametrize("reg", [1, 2])
def test_lone_copy_crashing_on_either_load_of_its_block(reg):
    """The lone form checks every load of a block before it runs it, and
    hands a crash on the second back to ``issue``, which writes the first
    load's register as single steps do."""
    program = parse_kernel(TWO_LOADS_SOURCE)
    inputs = {"a": list(range(32)), "b": list(range(32))}
    cursor = ThreadRun(program, word_inputs(program, inputs), 3, (0, 0), DEFAULT_BUDGET)
    assert cursor.next_issue() == (0, 2)
    cursor.advance()  # the movs
    site = FaultSite(3, reg, 9)
    lone = cursor.fork(site, written=reg).finish()
    stepped, _, error = finish_issue_by_issue(cursor.fork(site, written=reg))
    assert lone.termination == stepped.termination == "crashed"
    assert f"[{3 ^ 512}]" in error
    assert lone.icnt == stepped.icnt == 2 + reg
    assert lone._state.regs == stepped._state.regs

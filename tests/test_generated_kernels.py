"""Property tests over generated structured kernels.

Each kernel mixes if/else, bounded loops, ``bar``, early ``exit``, stores
to computed in-bounds addresses, chains of up to 80 repeated adds or
subtracts of full-width words and writes that later writes overwrite, over
1-2 CTAs of up to 3 warps; some kernels load near or past the end of a
buffer where a later write overwrites the value.
An unprotected replay of isolated warps and warp-local fault injection must
agree with full re-execution of the whole kernel, protected runs must equal
a run of every replica, execute must equal the single-step reference
interpreter, a thread's run finished by the lone form must equal one finished
issue by issue, a profile must equal one whose sites come from the whole
kernel's write trace, and for kernels whose threads store only to
``out[tid]`` so must a run under any per-CTA layout.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from warpshield import interp
from warpshield.faults import FaultSite, classify_outcome, default_budget, golden_run, run_campaign
from warpshield.interp import ThreadRun, execute, word_inputs
from warpshield.ir import WRITING_OPS, parse_kernel
from warpshield.profiling import profile_digest, profile_kernel
from warpshield.protect import CORRECT, DETECT, ProtectionPlan, run_protected
from warpshield.remap import RemapPlan, apply_plan

from support import (
    finish_issue_by_issue,
    from_launch_campaign,
    profile_per_campaign,
    run_protected_every_replica,
    single_step_execute,
)

DATA = (1, 2, 3, 4, 5, 6)  # registers arithmetic may write
SMALL = 10  # holds small[tid], in [0, 4): loop trips and address offsets
ADDR = 20  # holds a store or load address
FAR = 21  # holds a load address that may lie past the end of data
BOUND, PRED, ONE = 58, 59, 50  # branch bound, branch predicate, constant 1
OPERANDS = (*DATA, SMALL, 62)  # 62 is tid
ARITH = ("iadd", "isub", "imul", "fadd", "fmul")
CONDS = ("eq", "ne", "lt", "le", "gt", "ge")
SITES_PER_KERNEL = 12


@st.composite
def kernels(draw, tid_only, far=False):
    """``(program, inputs)`` for a random structured kernel whose stores go
    to ``out[tid]`` (``tid_only``) or to computed addresses that threads of
    different warps share.  With ``far``, some overwritten loads read near
    or past the end of ``data``, so a fault-free run may crash at a load
    whose value no instruction reads."""
    num_ctas = draw(st.integers(1, 2))
    cta_size = draw(st.sampled_from([20, 33, 50, 64, 77, 96]))  # partial warps too
    threads = num_ctas * cta_size
    size = threads + 4  # idx[tid] + small[tid] stays in bounds
    lines = ["    movi r50, 1", "    ld r10, small[tid]", "    ld r1, data[tid]"]
    lines += [f"    iadd r{k}, r{k - 1}, r1" for k in DATA[1:]]  # rk = k * data[tid]
    labels = []

    def label():
        labels.append(f"L{len(labels)}")
        return labels[-1]

    def reg(choices=DATA):
        return f"r{draw(st.sampled_from(choices))}"

    def address():
        lines.append(f"    ld r{ADDR}, idx[tid]")
        if draw(st.booleans()):
            lines.append(f"    iadd r{ADDR}, r{ADDR}, r{SMALL}")

    def block(depth, loops, lo=1, hi=3):
        for _ in range(draw(st.integers(lo, hi))):
            statement(depth, loops)

    def statement(depth, loops):
        kinds = ["arith", "movi", "load", "accumulate", "overwrite", "store", "store", "store", "bar", "bar"]
        if depth < 2:
            kinds += ["if", "loop"]
        if depth > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "arith":
            op = draw(st.sampled_from(ARITH))
            lines.append(f"    {op} {reg()}, {reg(OPERANDS)}, {reg(OPERANDS)}")
        elif kind == "movi":
            lines.append(f"    movi {reg()}, {draw(st.integers(-8, 8))}")
        elif kind == "load":
            address()
            lines.append(f"    ld {reg()}, data[r{ADDR}]")
        elif kind == "accumulate":  # folded into one line: DATA words wrap
            op = draw(st.sampled_from(("iadd", "isub")))
            rd, rs = draw(st.lists(st.sampled_from(DATA), min_size=2, max_size=2, unique=True))
            lines.extend([f"    {op} r{rd}, r{rd}, r{rs}"] * draw(st.integers(2, 80)))
        elif kind == "overwrite":  # every write but the last is dropped
            at = ADDR
            if far and draw(st.booleans()):  # a dead first ld of idx[tid] + 1..8
                at = FAR
                lines.append(f"    ld r{FAR}, idx[tid]")
                lines.append(f"    movi r{BOUND}, {draw(st.integers(1, 8))}")
                lines.append(f"    iadd r{FAR}, r{FAR}, r{BOUND}")
            else:
                address()
            dest = reg()
            writes = draw(st.integers(2, 6))
            for i in range(writes):
                if at == FAR and i in (0, writes - 1):
                    movi = i > 0
                else:
                    movi = draw(st.booleans())
                if movi:
                    lines.append(f"    movi {dest}, {draw(st.integers(-8, 8))}")
                else:
                    lines.append(f"    ld {dest}, data[r{at}]")
        elif kind == "store":
            if tid_only:
                lines.append(f"    st out[tid], {reg(OPERANDS)}")
            else:
                address()
                lines.append(f"    st out[r{ADDR}], {reg(OPERANDS)}")
        elif kind in ("bar", "exit"):
            lines.append(f"    {kind}")
        elif kind == "if":
            other, end = label(), label()
            if draw(st.booleans()):  # diverge on the thread's small value
                lines.append(f"    movi r{BOUND}, {draw(st.integers(0, 3))}")
                a, b = f"r{SMALL}", f"r{BOUND}"
            else:
                a, b = reg(OPERANDS), reg(OPERANDS)
            lines.append(f"    setp.{draw(st.sampled_from(CONDS))} r{PRED}, {a}, {b}")
            lines.append(f"    bra r{PRED}, {other}")
            block(depth + 1, loops)
            lines.append(f"    bra {end}")
            lines.append(f"{other}:")
            block(depth + 1, loops, lo=0)
            lines.append(f"{end}:")
        else:  # loop of small[tid] or a fixed 0-3 trips
            top, done = label(), label()
            counter = f"r{30 + loops}"
            limit = f"r{SMALL}"
            if draw(st.booleans()):
                limit = f"r{40 + loops}"
                lines.append(f"    movi {limit}, {draw(st.integers(0, 3))}")
            lines.append(f"    movi {counter}, 0")
            lines.append(f"{top}: setp.ge r{PRED}, {counter}, {limit}")
            lines.append(f"    bra r{PRED}, {done}")
            block(depth + 1, loops + 1)
            lines.append(f"    iadd {counter}, {counter}, r{ONE}")
            lines.append(f"    bra {top}")
            lines.append(f"{done}:")

    block(0, 0, lo=4, hi=10)
    lines.append("    exit")
    header = [
        ".kernel generated",
        f".ctas {num_ctas}",
        f".ctasize {cta_size}",
        f".in small {size}",
        f".in idx {size}",
        f".in data {size}",
        f".out out {size}",
    ]
    program = parse_kernel("\n".join(header + lines) + "\n")
    rng = random.Random(draw(st.integers(0, 2**16)))
    inputs = {
        "small": [rng.randrange(4) for _ in range(size)],
        "idx": [rng.randrange(threads) for _ in range(size)],
        "data": [rng.getrandbits(32) for _ in range(size)],
    }
    return program, inputs


def _sample_sites(golden, seed):
    rng = random.Random(seed)
    writers = [t for t, w in enumerate(golden.register_writes) if w]
    return sorted(
        {
            FaultSite(t, rng.choice(golden.register_writes[t]), rng.randrange(32))
            for t in (rng.choice(writers) for _ in range(SITES_PER_KERNEL))
        }
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kernel=kernels(tid_only=False), seed=st.integers(0, 2**16))
def test_isolated_warps_replay_into_the_full_run(kernel, seed):
    """An all-ones protection plan gives the outputs of execute, fault-free
    and at every sampled site whose full run completes, and warp-local
    injection classifies every sampled site as the full run and the
    from-launch campaign do."""
    program, inputs = kernel
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    ones = ProtectionPlan(DETECT, {(w.cta_id, w.warp_id): 1 for w in program.warps()})
    assert run_protected(program, inputs, ones).final_outputs == golden.outputs

    sites = _sample_sites(golden, seed)
    campaign = run_campaign(program, inputs, sites, golden=golden)
    assert campaign.per_site == from_launch_campaign(program, inputs, sites, golden=golden).per_site
    # At the golden peak iCnt the budget cuts diverged warps' runs into single steps.
    tight = dict(golden=golden, budget=golden.max_icnt())
    assert run_campaign(program, inputs, sites, **tight).per_site == (
        from_launch_campaign(program, inputs, sites, **tight).per_site
    )
    for site in sites:
        full = execute(program, inputs, fault=site, budget=budget)
        assert campaign.per_site[site] == classify_outcome(golden, full), site
        if full.completed:
            protected = run_protected(program, inputs, ones, fault=site, budget=budget)
            assert protected.final_outputs == full.outputs, site


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kernel=kernels(tid_only=False), seed=st.integers(0, 2**16))
def test_fault_free_replicas_sharing_a_run_equal_every_replica(kernel, seed):
    """run_protected, whose fault-free replicas share one run, equals a run
    of every replica field for field, under random plans of both modes,
    fault-free and at each sampled site."""
    program, inputs = kernel
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    rng = random.Random(seed)
    for mode, factor in ((DETECT, 2), (CORRECT, 3)):
        plan = ProtectionPlan(
            mode, {(w.cta_id, w.warp_id): rng.choice((1, factor)) for w in program.warps()}
        )
        for fault in [None, *_sample_sites(golden, seed)]:
            result = run_protected(program, inputs, plan, fault=fault, budget=budget)
            assert result == run_protected_every_replica(
                program, inputs, plan, fault=fault, budget=budget
            ), (mode, fault)


def test_fused_runs_equal_single_step():
    """execute equals the single-step reference on every field: fault-free,
    at sampled sites, under warp filters, and under budgets that run out.
    Some fault-free runs crash loading out of bounds, dead loads that
    blocks drop from their bodies included."""
    crashes = []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kernel=kernels(tid_only=False, far=True), seed=st.integers(0, 2**16))
    def check(kernel, seed):
        program, inputs = kernel
        golden = execute(program, inputs, record_writes=True, record_stores=True)
        assert golden == single_step_execute(program, inputs, record_writes=True, record_stores=True)
        if golden.termination == "crashed":
            crashes.append(golden.error)
        rng = random.Random(seed)
        warps = [(w.cta_id, w.warp_id) for w in program.warps()]
        budgets = [default_budget(golden), *rng.sample(range(1, golden.max_icnt() + 2), 2)]
        for fault in [None, *_sample_sites(golden, seed)]:
            kwargs = dict(
                fault=fault,
                budget=rng.choice(budgets),
                warp_filter=rng.choice([None, *warps]),
                record_writes=rng.random() < 0.5,
                record_stores=rng.random() < 0.5,
            )
            assert execute(program, inputs, **kwargs) == single_step_execute(program, inputs, **kwargs), kwargs

    check()
    assert any("loaded out of bounds: data[" in error for error in crashes), crashes


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    kernel=kernels(tid_only=False),
    how=st.sampled_from([("pruned", 1.0), ("pruned", 0.1), ("exhaustive", 0.02)]),
    seed=st.integers(0, 2**16),
)
def test_profile_from_warp_traces_equals_profile_from_the_golden_trace(kernel, how, seed):
    """profile_kernel, which takes each injected thread's sites from a run
    of its warp alone, gives the rows, digest and run counts of the
    reference that takes them from golden_run's trace of the whole kernel."""
    program, inputs = kernel
    mode, fraction = how
    reference = profile_per_campaign(program, inputs, mode, fraction, seed, run_campaign)
    profile = profile_kernel(program, inputs, mode, fraction, seed=seed)
    assert profile == reference
    assert profile_digest(profile) == profile_digest(reference)
    assert profile.runs == reference.runs


# Registers whose flips move loop trips and addresses: hangs and crashes.
FLIPPED = (*DATA, SMALL, ADDR, 30, 31, 40, 41)


def _lone_fork_ends(program, inputs, rng) -> set[str]:
    """Walk the fault-free runs of two threads of every warp and fork
    copies at random issue boundaries, right after a ``bar`` issues
    included, under budgets that run out early, armed with a fault, with a
    bit already flipped or fault-free; assert that the lone form finishes
    each as issue-by-issue driving does; return how the copies ended."""
    golden = golden_run(program, inputs)
    words = word_inputs(program, inputs)
    ends = set()
    for warp in program.warps():
        key = (warp.cta_id, warp.warp_id)
        for t in rng.sample(warp.members, min(2, len(warp.members))):
            budget = rng.choice([rng.randrange(1, golden.max_icnt() + 2), 3 * golden.max_icnt()])

            def walked(k):
                """A fault-free run of ``t`` after ``k`` issues, as the cursor walks."""
                run = ThreadRun(program, words, t, key, budget)
                for _ in range(k):
                    run.next_issue()
                    run.advance()
                return run

            cursor = walked(0)
            issued = 0
            while cursor.warp.frags or cursor.warp.waiting:
                waiting = bool(cursor.warp.waiting)  # after a bar, before its release
                if rng.random() < (0.5 if waiting else 0.25):
                    how = rng.randrange(3)
                    if how == 0:  # armed: its dynamic instruction is still to come
                        site = FaultSite(t, cursor.icnt + rng.randint(1, 6), rng.randrange(32))
                        forks = [cursor.fork(site) for _ in range(2)]
                    elif how == 1:
                        site = FaultSite(t, max(1, cursor.icnt), rng.randrange(32))
                        written = rng.choice(FLIPPED)
                        forks = [cursor.fork(site, written) for _ in range(2)]
                    else:
                        forks = [walked(issued) for _ in range(2)]
                    alone, (stepped, last, error) = forks[0].finish(), finish_issue_by_issue(forks[1])
                    assert alone.termination == stepped.termination, (t, how)
                    assert alone.stream == stepped.stream
                    assert alone.warp.phase == stepped.warp.phase
                    assert alone.warp.issued == stepped.warp.issued == stepped.icnt
                    assert alone.icnt == stepped.icnt
                    assert alone._state.regs == stepped._state.regs
                    assert alone._state.fault_applied == stepped._state.fault_applied
                    if waiting:
                        ends.add("forked-waiting")
                    if stepped.termination == "hung":
                        op = program.instructions[last[0]].opcode
                        ends.add("hung-in-block" if op in WRITING_OPS else f"hung-at-{op}")
                    elif stepped.termination == "crashed":
                        ends.add("crashed-at-ld" if "loaded" in error else "crashed-at-st")
                    else:
                        ends.add(stepped.termination)
                cursor.next_issue()  # a due release happens here
                try:
                    cursor.advance()
                except interp._Abort:  # the fault-free thread ran out of budget
                    break
                issued += 1
    return ends


def test_lone_form_equals_issue_by_issue():
    """Over the generated kernels the copies hang inside a block, at a
    ``st``, at a ``bar`` and at a ``bra``, crash at an ``ld`` and at a
    ``st``, complete, and are forked while waiting at a ``bar``."""
    ends = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kernel=kernels(tid_only=False), seed=st.integers(0, 2**16))
    def check(kernel, seed):
        ends.update(_lone_fork_ends(*kernel, random.Random(seed)))

    check()
    assert ends == {
        "completed",
        "crashed-at-ld",
        "crashed-at-st",
        "hung-at-bar",
        "hung-at-bra",
        "hung-at-st",
        "hung-in-block",
        "forked-waiting",
    }


@st.composite
def relaid_kernels(draw):
    program, inputs = draw(kernels(tid_only=True))
    layout = tuple(
        tuple(draw(st.permutations(program.cta_threads(cta)))) for cta in range(program.num_ctas)
    )
    return program, inputs, layout


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=relaid_kernels())
def test_any_layout_keeps_outputs_and_icnt_when_threads_store_to_own_slot(case):
    program, inputs, layout = case
    golden = execute(program, inputs)
    relaid = execute(apply_plan(program, RemapPlan(new_orders=layout, tau=Fraction(0))), inputs)
    assert relaid.termination == golden.termination == "completed"
    assert relaid.outputs == golden.outputs
    assert relaid.per_thread_icnt == golden.per_thread_icnt

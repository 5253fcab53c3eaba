"""Property tests over generated structured kernels.

Each kernel mixes if/else, bounded loops, ``bar``, early ``exit`` and
stores to computed in-bounds addresses, over 1-2 CTAs of up to 3 warps.
An unprotected replay of isolated warps and warp-local fault injection must
agree with full re-execution of the whole kernel, protected runs must equal
a run of every replica, and for kernels whose threads store only to
``out[tid]`` so must a run under any per-CTA layout.
"""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from warpshield.faults import FaultSite, classify_outcome, default_budget, golden_run, run_campaign
from warpshield.interp import execute
from warpshield.ir import parse_kernel
from warpshield.protect import CORRECT, DETECT, ProtectionPlan, run_protected

from support import run_protected_every_replica

DATA = (1, 2, 3, 4, 5, 6)  # registers arithmetic may write
SMALL = 10  # holds small[tid], in [0, 4): loop trips and address offsets
ADDR = 20  # holds a store or load address
BOUND, PRED, ONE = 58, 59, 50  # branch bound, branch predicate, constant 1
OPERANDS = (*DATA, SMALL, 62)  # 62 is tid
ARITH = ("iadd", "isub", "imul", "fadd", "fmul")
CONDS = ("eq", "ne", "lt", "le", "gt", "ge")
SITES_PER_KERNEL = 12


@st.composite
def kernels(draw, tid_only):
    """``(program, inputs)`` for a random structured kernel whose stores go
    to ``out[tid]`` (``tid_only``) or to computed addresses that threads of
    different warps share."""
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
        kinds = ["arith", "movi", "load", "store", "store", "store", "bar", "bar"]
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
    injection classifies every sampled site as the full run does."""
    program, inputs = kernel
    golden = golden_run(program, inputs)
    budget = default_budget(golden)
    ones = ProtectionPlan(DETECT, {(w.cta_id, w.warp_id): 1 for w in program.warps()})
    assert run_protected(program, inputs, ones).final_outputs == golden.outputs

    sites = _sample_sites(golden, seed)
    campaign = run_campaign(program, inputs, sites, golden=golden)
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
    relaid = execute(replace(program, layout=layout), inputs)
    assert relaid.termination == golden.termination == "completed"
    assert relaid.outputs == golden.outputs
    assert relaid.per_thread_icnt == golden.per_thread_icnt

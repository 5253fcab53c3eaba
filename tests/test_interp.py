import dataclasses
import random

import pytest

from warpshield.errors import ValidationError
from warpshield.faults import FaultSite, default_budget
from warpshield.fixtures import generate_fixture
from warpshield.interp import CostTable, _runs_of, execute, seeded_inputs, word_inputs
from warpshield.ir import parse_kernel

from support import (
    FIXTURE_NAMES,
    add_one_inputs,
    add_one_kernel,
    address_probe_kernel,
    named_fixture,
    single_step_execute,
)

IFELSE_SRC = """.kernel ifelse
.ctas 1
.ctasize 32
.in x 32
.out y 32
    ld r1, x[tid]
    movi r2, 10
    setp.lt r3, r1, r2
    bra r3, LO
    imul r4, r1, r2
    bra DONE
LO: iadd r4, r1, r2
DONE: st y[tid], r4
    exit
"""

LOOP_SRC = """.kernel tri
.ctas 1
.ctasize 32
.in n 32
.out out 32
    movi r1, 0
    ld r2, n[tid]
    movi r4, 0
    movi r5, 1
LOOP: setp.le r3, r2, r4
    bra r3, END
    iadd r1, r1, r2
    isub r2, r2, r5
    bra LOOP
END: st out[tid], r1
    exit
"""


def test_add_one_golden_run():
    program = add_one_kernel()
    result = execute(program, add_one_inputs(program, start=5))
    assert result.termination == "completed"
    assert result.outputs["out"] == [6 + i for i in range(64)]
    assert all(c == 5 for c in result.per_thread_icnt)


def test_bit0_fault_on_add_destination_shifts_one_element_by_one():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    golden = execute(program, inputs)
    faulty = execute(program, inputs, fault=FaultSite(thread_id=3, dyn_instr=3, bit=0))
    assert faulty.termination == "completed"
    assert faulty.fault_applied
    diff = [i for i in range(64) if faulty.outputs["out"][i] != golden.outputs["out"][i]]
    assert diff == [3]
    assert abs(faulty.outputs["out"][3] - golden.outputs["out"][3]) == 1


def test_bit31_fault_on_address_register_crashes():
    program, inputs = address_probe_kernel()
    result = execute(program, inputs, fault=FaultSite(thread_id=7, dyn_instr=3, bit=31))
    assert result.termination == "crashed"
    assert "out of bounds" in result.error


def test_fault_locality_other_threads_untouched():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    golden = execute(program, inputs)
    for site in (FaultSite(0, 1, 5), FaultSite(40, 2, 17), FaultSite(63, 3, 31)):
        faulty = execute(program, inputs, fault=site)
        for tid in range(64):
            if tid != site.thread_id:
                assert faulty.outputs["out"][tid] == golden.outputs["out"][tid]


def test_determinism_bit_identical_results():
    program = parse_kernel(IFELSE_SRC)
    inputs = seeded_inputs(program, seed=9)
    a = execute(program, inputs, fault=FaultSite(4, 2, 13))
    b = execute(program, inputs, fault=FaultSite(4, 2, 13))
    assert a == b


def test_warp_assignment_independence():
    """Per-thread outputs and instruction counts survive any within-CTA shuffle."""
    program = add_one_kernel(num_ctas=2, cta_size=64)
    inputs = add_one_inputs(program)
    baseline = execute(program, inputs)
    rng = random.Random(1)
    for _ in range(3):
        layout = []
        for cta in range(2):
            order = list(range(cta * 64, (cta + 1) * 64))
            rng.shuffle(order)
            layout.append(tuple(order))
        shuffled = execute(dataclasses.replace(program, layout=tuple(layout)), inputs)
        assert shuffled.outputs == baseline.outputs
        assert shuffled.per_thread_icnt == baseline.per_thread_icnt


def test_divergent_if_else_reconverges_once():
    program = parse_kernel(IFELSE_SRC)
    x = list(range(32))
    result = execute(program, {"x": x})
    assert result.outputs["y"] == [v + 10 if v < 10 else v * 10 for v in x]
    # one warp: 4 shared issues + 2 taken-path + 1 fallthrough-path + 2 joined
    assert result.cycles == 15


def test_cycles_additive_over_warps():
    program = add_one_kernel(num_ctas=3, cta_size=48)
    result = execute(program, add_one_inputs(program))
    assert result.cycles == sum(result.per_warp_cycles.values())
    assert len(result.per_warp_cycles) == 6  # 3 CTAs x (32 + 16-thread partial)
    assert all(c == 11 for c in result.per_warp_cycles.values())


def test_loop_reexecutes_under_mask():
    program = parse_kernel(LOOP_SRC)
    n = [i % 7 for i in range(32)]
    result = execute(program, {"n": n})
    assert result.outputs["out"] == [v * (v + 1) // 2 for v in n]
    # iCnt varies by trip count, so divergent lanes really did loop separately
    assert result.per_thread_icnt[0] < result.per_thread_icnt[6]


def test_barrier_synchronizes_and_early_exit_is_tolerated():
    src = """.kernel barsync
.ctas 2
.ctasize 64
.in x 128
.out y 128
    ld r1, x[tid]
    movi r2, 100
    setp.ge r3, r1, r2
    bra r3, SKIP
    bar
    iadd r1, r1, r1
SKIP: st y[tid], r1
    exit
"""
    program = parse_kernel(src)
    x = [i for i in range(128)]
    result = execute(program, {"x": x})
    assert result.termination == "completed"
    assert result.outputs["y"] == [v + v if v < 100 else v for v in x]


def test_runaway_loop_hangs_at_budget():
    src = """.kernel spin
.ctas 1
.ctasize 32
.in x 32
.out y 32
    ld r1, x[tid]
    movi r2, 5
    setp.lt r3, r1, r2
L:  bra r3, L
    st y[tid], r1
    exit
"""
    program = parse_kernel(src)
    result = execute(program, {"x": list(range(32))}, budget=200)
    assert result.termination == "hung"
    assert "budget" in result.error


def test_fault_beyond_trace_never_fires():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    golden = execute(program, inputs)
    result = execute(program, inputs, fault=FaultSite(2, 99, 0))
    assert not result.fault_applied
    assert result.outputs == golden.outputs


def test_float_arithmetic_binary32_semantics():
    src = """.kernel floats
.ctas 1
.ctasize 1
.out y 2
    movi r0, 1.5
    movi r1, 0.25
    fadd r2, r0, r1
    fmul r3, r0, r1
    movi r4, 0
    st y[r4], r2
    movi r4, 1
    st y[r4], r3
    exit
"""
    result = execute(parse_kernel(src), {})
    assert result.outputs["y"][0] == 0x3FE00000  # 1.75f
    assert result.outputs["y"][1] == 0x3EC00000  # 0.375f


def test_warp_filter_runs_single_warp():
    program = add_one_kernel()
    inputs = add_one_inputs(program)
    result = execute(program, inputs, warp_filter=(1, 0))
    assert result.termination == "completed"
    assert result.per_thread_icnt[:32] == [0] * 32
    assert result.per_thread_icnt[32:] == [5] * 32
    assert result.outputs["out"][:32] == [0] * 32
    assert list(result.per_warp_cycles) == [(1, 0)]


def test_input_validation():
    program = add_one_kernel()
    with pytest.raises(ValidationError, match="declared buffers"):
        execute(program, {})
    with pytest.raises(ValidationError, match="declared 64"):
        execute(program, {"in": [1, 2, 3]})
    with pytest.raises(ValidationError, match="budget"):
        execute(program, add_one_inputs(program), budget=0)


def test_custom_cost_table_changes_cycles():
    program = add_one_kernel()
    table = CostTable(op_cycles={**CostTable().op_cycles, "ld": 10, "st": 10})
    result = execute(program, add_one_inputs(program), cost_table=table)
    assert all(c == 23 for c in result.per_warp_cycles.values())


# ---------------------------------------------------------------------------
# fused runs against the single-step reference interpreter


def _same(program, inputs, **kwargs):
    """execute, asserted equal to the single-step reference on every field."""
    fused = execute(program, inputs, **kwargs)
    assert fused == single_step_execute(program, inputs, **kwargs), kwargs
    return fused


# Runs: pcs 0-6 (a load, register ops and the closing branch), 7-9 and
# 10-11 (the branch target SKIP cuts 7-11 in two).  Threads with x < 3 skip
# 7-9, so the fall-through fragment runs 7-9 alone and then merges at SKIP.
RUNS_SRC = """.kernel runs
.ctas 1
.ctasize 40
.in x 40
.out y 40
    ld r1, x[tid]
    movi r2, 3
    iadd r3, r1, r2
    imul r4, r3, r3
    setp.lt r5, r1, r2
    isub r6, r4, r5
    bra r5, SKIP
    fmul r7, r6, r6
    fadd r6, r7, r6
    mov r8, r6
SKIP: iadd r9, r6, r1
    movi r10, 1
    st y[tid], r9
    exit
"""


def test_fused_runs_equal_single_step_at_every_site_and_budget():
    """Faults on the first, a middle and the last instruction of each run
    (every register write of threads on both paths, in both warps), and
    every budget, so that many run out in the middle of a run."""
    program = parse_kernel(RUNS_SRC)
    inputs = {"x": [t % 5 for t in range(40)]}
    golden = _same(program, inputs, record_writes=True, record_stores=True)
    assert golden.per_thread_icnt[:5] == [11, 11, 11, 14, 14]
    threads = (0, 4, 33, 36)
    applied = 0
    for t in threads:
        for dyn in golden.register_writes[t]:
            for bit in (0, 31):
                site = FaultSite(t, dyn, bit)
                applied += _same(program, inputs, fault=site, record_writes=bit == 0).fault_applied
                _same(program, inputs, fault=site, warp_filter=(0, t // 32), record_stores=True)
    assert applied == 2 * sum(len(golden.register_writes[t]) for t in threads)
    terminations = set()
    for budget in range(1, golden.max_icnt() + 2):
        for warp_filter in (None, (0, 1)):
            result = _same(
                program,
                inputs,
                budget=budget,
                warp_filter=warp_filter,
                fault=FaultSite(3, 4, 0),
                record_writes=True,
                record_stores=True,
            )
            terminations.add(result.termination)
    assert terminations == {"hung", "completed"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fused_runs_equal_single_step_on_fixtures(name):
    """Fault-free, at sampled sites, under warp filters and under budgets
    that run out, with and without recorded writes and stores."""
    fixture = named_fixture(name)
    program, inputs = fixture.program, word_inputs(fixture.program, fixture.inputs)
    golden = _same(program, inputs, record_writes=True, record_stores=True)
    rng = random.Random(name)
    warps = [(w.cta_id, w.warp_id) for w in program.warps()]
    warp_of = {t: (w.cta_id, w.warp_id) for w in program.warps() for t in w.members}
    writers = [t for t, w in enumerate(golden.register_writes) if w]
    budget = default_budget(golden)
    sites = [
        FaultSite(t, rng.choice(golden.register_writes[t]), rng.randrange(32))
        for t in rng.sample(writers, 6)
    ]
    for site in sites:
        _same(
            program,
            inputs,
            fault=site,
            budget=budget,
            warp_filter=warp_of[site.thread_id],
            record_writes=rng.random() < 0.5,
            record_stores=rng.random() < 0.5,
        )
    _same(program, inputs, fault=sites[0], budget=budget)
    for small in rng.sample(range(1, golden.max_icnt() + 2), 4):
        _same(program, inputs, budget=small, warp_filter=rng.choice(warps), record_stores=True)


# ---------------------------------------------------------------------------
# whole basic blocks: loads and the closing branch inside fused runs

# Runs: pcs 0-3, cut before pc 4 because pc 3 writes its address register;
# pcs 4-8, two loads closed by the divergent branch; 9-10, cut by SKIP; 11.
BLOCKS_SRC = """.kernel blocks
.ctas 1
.ctasize 40
.in idx 40
.in off 40
.in data 40
.out y 40
    ld r1, idx[tid]
    ld r8, off[tid]
    movi r2, 1
    iadd r3, r1, r2
    ld r4, data[r3]
    iadd r9, r4, r2
    ld r5, data[r8]
    setp.lt r6, r4, r5
    bra r6, SKIP
    imul r7, r4, r5
    iadd r9, r9, r7
SKIP: iadd r9, r9, r5
    st y[tid], r9
    exit
"""
BLOCK_LOAD_DYN, BLOCK_SECOND_LOAD_DYN, PREDICATE_DYN, BRANCH_DYN = 5, 7, 8, 9
RECORDINGS = [(w, s) for w in (False, True) for s in (False, True)]


def _blocks(changes=()):
    """The blocks kernel and inputs with every address in bounds, then
    ``changes`` applied: ``{(buffer, thread): word}``."""
    inputs = {
        "idx": [t % 39 for t in range(40)],
        "off": [7 * t % 40 for t in range(40)],
        "data": [37 * t % 101 for t in range(40)],
    }
    for (name, t), word in dict(changes).items():
        inputs[name][t] = word
    return parse_kernel(BLOCKS_SRC), inputs


def _same_recorded(program, inputs, **kwargs):
    """_same with and without recorded writes and stores."""
    results = [
        _same(program, inputs, record_writes=w, record_stores=s, **kwargs) for w, s in RECORDINGS
    ]
    return results[-1]


def test_block_closes_with_a_divergent_branch():
    program, inputs = _blocks()
    golden = _same_recorded(program, inputs)
    assert golden.completed
    for warp in (range(32), range(32, 40)):  # both paths in both warps
        assert {golden.per_thread_icnt[t] for t in warp} == {12, 14}
    for warp_filter in ((0, 0), (0, 1)):
        _same_recorded(program, inputs, warp_filter=warp_filter)


def test_register_writes_never_hold_a_branch():
    program, inputs = _blocks()
    golden = _same(program, inputs, record_writes=True)
    for t, writes in enumerate(golden.register_writes):
        assert BRANCH_DYN not in writes
        taken = golden.per_thread_icnt[t] == 12
        assert writes == (1, 2, 3, 4, 5, 6, 7, 8, 10) + (() if taken else (11, 12))


def test_block_is_cut_before_a_load_of_an_address_it_writes():
    """Lane 17's address register is 0 at entry to pcs 0-4 and 40, out of
    bounds, once pc 3 writes it: only a cut at pc 4 checks the right one."""
    program, inputs = _blocks({("idx", 17): 39})
    result = _same_recorded(program, inputs)
    assert result.termination == "crashed"
    assert "thread 17 loaded out of bounds: data[40]" in result.error
    assert result.per_thread_icnt[:19] == [5] * 18 + [4]


def test_out_of_bounds_load_on_a_middle_lane_stops_instruction_major():
    """Every lane has run pcs 4-5, and lanes before 17 pc 6, when lane 17's
    second load of the block crashes; also when lane 17 is the faulted lane
    and its fault lies in the same block."""
    program, inputs = _blocks({("off", 17): 1000})
    result = _same_recorded(program, inputs)
    assert result.termination == "crashed"
    assert "thread 17 loaded out of bounds: data[1000]" in result.error
    assert result.per_thread_icnt[:19] == [7] * 18 + [6]
    for dyn in (BLOCK_LOAD_DYN, BLOCK_LOAD_DYN + 1):  # the first load and the iadd after it
        faulted = _same_recorded(program, inputs, fault=FaultSite(17, dyn, 3))
        assert faulted.per_thread_icnt == result.per_thread_icnt
        assert faulted.fault_applied
    # The faulted lane alone out of bounds, its fault inside the block.
    program, inputs = _blocks({("off", 20): 1000})
    faulted = _same_recorded(program, inputs, fault=FaultSite(20, BLOCK_LOAD_DYN, 0))
    assert faulted.termination == "crashed" and "thread 20" in faulted.error


def test_fault_on_a_block_load_and_on_the_closing_branch_predicate():
    """Faults on both loads of the block and on the setp that feeds its
    branch; a bit-0 flip of the predicate sends the lane down the other
    path."""
    program, inputs = _blocks()
    golden = execute(program, inputs)
    flipped = 0
    for t in (0, 5, 17, 31, 33, 39):
        for dyn in (BLOCK_LOAD_DYN, BLOCK_SECOND_LOAD_DYN, PREDICATE_DYN):
            for bit in (0, 4, 31):
                site = FaultSite(t, dyn, bit)
                for warp_filter in (None, (0, t // 32)):
                    result = _same_recorded(program, inputs, fault=site, warp_filter=warp_filter)
                    assert result.fault_applied
                if dyn == PREDICATE_DYN and bit == 0:
                    assert result.per_thread_icnt[t] == 26 - golden.per_thread_icnt[t]
                    flipped += 1
    assert flipped == 6


def test_budget_runs_out_inside_a_block_that_ends_in_a_branch():
    program, inputs = _blocks()
    golden = execute(program, inputs)
    hung_at = set()
    for budget in range(1, golden.max_icnt() + 2):
        for warp_filter in (None, (0, 1)):
            result = _same_recorded(
                program, inputs, budget=budget, warp_filter=warp_filter, fault=FaultSite(33, 7, 0)
            )
            if result.termination == "hung":
                hung_at.add(budget)
    assert set(range(5, 10)) <= hung_at  # inside pcs 4-8


# jmeint_k1's longest block, pcs 295-369: 75 register writes, no branch.
# Thread 1 enters it at iCnt 17, so dynamic instructions 18, 55 and 92 are
# its first, a middle and its last instruction.
LONG_BLOCK = (295, 370)
LONG_BLOCK_ENTRY = 17


@pytest.mark.parametrize("dyn", [18, 55, 92], ids=["first", "middle", "last"])
def test_faulted_long_block_runs_in_its_hooked_form(dyn):
    """A faulted lane runs its block in the block's compiled hooked form,
    its bit flipped where the faulted instruction writes it, and equals the
    single-step reference."""
    fixture = generate_fixture("jmeint_k1")
    program, inputs = fixture.program, word_inputs(fixture.program, fixture.inputs)
    start, end = LONG_BLOCK
    runs = _runs_of(program.instructions)
    assert runs.end[start] == end and start not in runs.hooked
    for bit in (0, 31):
        result = _same_recorded(program, inputs, fault=FaultSite(1, dyn, bit), warp_filter=(0, 0))
        assert result.fault_applied
    assert start in runs.hooked

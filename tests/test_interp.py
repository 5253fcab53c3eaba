import dataclasses
import random

import pytest

from warpshield.errors import ValidationError
from warpshield.faults import FaultSite
from warpshield.interp import CostTable, execute, seeded_inputs
from warpshield.ir import parse_kernel

from support import add_one_inputs, add_one_kernel, address_probe_kernel

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

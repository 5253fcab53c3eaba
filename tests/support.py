"""Small hand-written kernels, and reference implementations that tests
compare the package's shortcuts against."""

import random
from collections import Counter
from fractions import Fraction

from warpshield.errors import ProtectionError
from warpshield.interp import COMPLETED, DEFAULT_COST_TABLE, execute, replay_stores, word_inputs
from warpshield.ir import Instruction, KernelProgram, parse_kernel
from warpshield.profiling import to_fraction
from warpshield.protect import DETECT, ProtectedRunResult, WarpIncident
from warpshield.remap import RemapPlan

ADD_ONE_SOURCE = """\
.kernel add_one
.ctas 2
.ctasize 32
.in in 64
.out out 64
    movi r0, 1
    ld r1, in[tid]
    iadd r2, r1, r0
    st out[tid], r2
    exit
"""


def add_one_kernel(num_ctas: int = 2, cta_size: int = 32) -> KernelProgram:
    """out[tid] = in[tid] + 1; three register writes per thread."""
    total = num_ctas * cta_size
    return KernelProgram(
        name="add_one",
        instructions=(
            Instruction("movi", dest=0, imm=1),
            Instruction("ld", dest=1, buffer="in", addr_reg=62),
            Instruction("iadd", dest=2, srcs=(1, 0)),
            Instruction("st", srcs=(2,), buffer="out", addr_reg=62),
            Instruction("exit"),
        ),
        num_ctas=num_ctas,
        cta_size=cta_size,
        input_buffers=(("in", total),),
        output_buffers=(("out", total),),
    )


def add_one_inputs(program: KernelProgram, start: int = 5) -> dict[str, list[int]]:
    return {"in": [start + i for i in range(program.total_threads)]}


TWO_GROUP_SOURCE = """\
.kernel two_group
.ctas 1
.ctasize 64
.in cls 64
.in data 64
.out out 64
    ld r0, cls[tid]
    movi r2, 0
    setp.ne r3, r0, r2
    bra r3, ODD
    ld r1, data[tid]
    iadd r5, r1, r1
    st out[tid], r5
    exit
ODD: ld r1, data[tid]
    movi r5, 3
    imul r4, r1, r5
    iadd r4, r4, r5
    iadd r4, r4, r4
    movi r6, 7
    st out[tid], r4
    exit
"""


def two_group_kernel() -> tuple[KernelProgram, dict[str, list[int]]]:
    """Even/odd threads take different paths (iCnt 8 vs 12); members of each
    parity class are behaviorally identical, so pruned profiling is exact.

    Data words are 1 mod 4 so every value's fault response is the same across
    a class (the doubled odd-path chain masks a pre-double flip exactly when
    the carry leaves the word, which depends only on the 2-adic shape).
    """
    program = parse_kernel(TWO_GROUP_SOURCE)
    rng = random.Random("two-group")
    inputs = {
        "cls": [tid % 2 for tid in range(64)],
        "data": [4 * rng.getrandbits(20) + 1 for _ in range(64)],
    }
    return program, inputs


DEAD_WRITE_SOURCE = """\
.kernel dead_write
.ctas 1
.ctasize 32
.in in 32
.out out 32
    movi r1, 5          # dead: overwritten by the load before any read
    ld r1, in[tid]
    iadd r2, r1, r1
    st out[tid], r2
    exit
"""


def dead_write_kernel() -> tuple[KernelProgram, dict[str, list[int]]]:
    program = parse_kernel(DEAD_WRITE_SOURCE)
    return program, {"in": [3 + 2 * i for i in range(32)]}


ADDRESS_PROBE_SOURCE = """\
.kernel address_probe
.ctas 1
.ctasize 32
.in idx 32
.in data 32
.out out 32
    ld r1, idx[tid]
    movi r2, 0
    iadd r3, r1, r2     # address register: a bit-31 flip lands far out of bounds
    ld r4, data[r3]
    st out[tid], r4
    exit
"""


def address_probe_kernel() -> tuple[KernelProgram, dict[str, list[int]]]:
    program = parse_kernel(ADDRESS_PROBE_SOURCE)
    return program, {"idx": list(range(32)), "data": [100 + i for i in range(32)]}


def identity_plan(geometry: tuple[int, int], tau=Fraction(1, 20), kernel=None) -> RemapPlan:
    """The launch order every program has without a plan."""
    num_ctas, cta_size = geometry
    return RemapPlan(
        new_orders=tuple(
            tuple(range(c * cta_size, (c + 1) * cta_size)) for c in range(num_ctas)
        ),
        tau=to_fraction(tau),
        kernel=kernel,
    )


def _mismatch_locations(a, b):
    return tuple(sorted({(buf, addr) for buf, addr, _, _ in set(a) ^ set(b)}))


def run_protected_every_replica(program, inputs, protection, *, fault=None, budget, cost_table=None):
    """``run_protected`` as it was before fault-free replicas shared a run:
    every replica of every warp executes on its own."""
    table = cost_table or DEFAULT_COST_TABLE
    words = word_inputs(program, inputs)
    cycles = 0
    detections, corrections, warp_terminations, chosen = [], [], {}, {}
    for w in program.warps():
        key = (w.cta_id, w.warp_id)
        factor = protection.factors[key]
        warp_fault = fault if (fault is not None and fault.thread_id in w.members) else None
        runs = [
            execute(
                program,
                words,
                fault=warp_fault if replica == 0 else None,
                budget=budget,
                cost_table=table,
                warp_filter=key,
                record_stores=True,
            )
            for replica in range(factor)
        ]
        cycles += sum(r.cycles for r in runs)
        warp_terminations[key] = tuple(r.termination for r in runs)
        streams = [r.store_streams.get(key, ()) for r in runs]
        primary = streams[0]
        if factor == 1:
            chosen[key] = primary
        elif protection.mode == DETECT:
            cycles += table.compare_per_store * max(len(primary), len(streams[1]))
            if primary != streams[1] or runs[0].termination != runs[1].termination:
                detections.append(
                    WarpIncident(w.cta_id, w.warp_id, _mismatch_locations(primary, streams[1]))
                )
            chosen[key] = primary
        else:
            survivors = [s for s, r in zip(streams, runs) if r.termination == COMPLETED]
            if len(survivors) < 2:
                raise ProtectionError(f"warp {key}: only {len(survivors)} of {factor} replicas survived")
            voted, votes = Counter(survivors).most_common(1)[0]
            if votes < 2:
                raise ProtectionError(f"warp {key}: no majority among replica store streams")
            cycles += table.vote_per_store * len(voted)
            if voted != primary:
                corrections.append(
                    WarpIncident(w.cta_id, w.warp_id, _mismatch_locations(primary, voted))
                )
            chosen[key] = voted
    final = replay_stores({name: [0] * size for name, size in program.output_buffers}, chosen)
    return ProtectedRunResult(
        mode=protection.mode,
        final_outputs=final,
        detections=detections,
        corrections=corrections,
        cycles=cycles,
        warp_terminations=warp_terminations,
    )

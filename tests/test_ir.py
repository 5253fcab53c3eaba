import pytest

from warpshield.errors import ParseError, ValidationError
from warpshield.ir import (
    Instruction,
    KernelProgram,
    parse_kernel,
    program_to_source,
    warps_for,
)

from support import ADD_ONE_SOURCE, add_one_kernel


def test_minimal_kernel_parses_to_three_instructions():
    program = parse_kernel(
        """.kernel tiny
.ctas 1
.ctasize 1
.out out 1
    movi r0, 1
    st out[tid], r0
    exit
"""
    )
    assert len(program.instructions) == 3
    assert [i.opcode for i in program.instructions] == ["movi", "st", "exit"]


def test_register_64_out_of_range():
    with pytest.raises(ParseError, match="r64 out of range"):
        parse_kernel(
            """.kernel bad
.ctas 1
.ctasize 1
.out out 1
    movi r64, 1
    exit
"""
        )


def test_add_one_source_matches_programmatic_constructor():
    assert parse_kernel(ADD_ONE_SOURCE) == add_one_kernel()


def test_parse_error_carries_line_number():
    src = """.kernel bad
.ctas 1
.ctasize 1
.out out 1
    movi r0, 1
    frobnicate r0
    exit
"""
    with pytest.raises(ParseError, match="line 6"):
        parse_kernel(src)


def test_undefined_label():
    src = """.kernel bad
.ctas 1
.ctasize 1
.out out 1
    bra NOWHERE
    exit
"""
    with pytest.raises(ParseError, match="undefined label 'NOWHERE'"):
        parse_kernel(src)


def test_read_only_destination_rejected():
    src = """.kernel bad
.ctas 1
.ctasize 32
.out out 32
    movi r62, 1
    exit
"""
    with pytest.raises(ParseError, match="read-only"):
        parse_kernel(src)


def test_tid_alias_resolves_to_register_62():
    program = parse_kernel(ADD_ONE_SOURCE)
    ld = program.instructions[1]
    assert ld.opcode == "ld" and ld.addr_reg == 62


def test_store_to_input_buffer_rejected():
    src = """.kernel bad
.ctas 1
.ctasize 1
.in buf 1
    st buf[tid], r0
    exit
"""
    with pytest.raises(ParseError, match="undeclared output buffer"):
        parse_kernel(src)


def test_load_from_output_buffer_rejected():
    src = """.kernel bad
.ctas 1
.ctasize 1
.out buf 1
    ld r0, buf[tid]
    st buf[tid], r0
    exit
"""
    with pytest.raises(ParseError, match="undeclared input buffer"):
        parse_kernel(src)


def test_fall_off_end_rejected():
    src = """.kernel bad
.ctas 1
.ctasize 1
.out out 1
    movi r0, 1
    st out[tid], r0
"""
    with pytest.raises(ParseError, match="fall off the end"):
        parse_kernel(src)


def test_float_immediate_stored_as_binary32_bits():
    program = parse_kernel(
        """.kernel f
.ctas 1
.ctasize 1
.out out 1
    movi r0, 2.5
    st out[tid], r0
    exit
"""
    )
    assert program.instructions[0].imm == 0x40200000


def test_source_round_trip_with_branches():
    src = """.kernel branchy
.ctas 1
.ctasize 32
.in x 32
.out y 32
    ld r1, x[tid]
    movi r2, 4
    setp.lt r3, r1, r2
    bra r3, SMALL
    imul r4, r1, r2
    bra DONE
SMALL: iadd r4, r1, r2
DONE: st y[tid], r4
    exit
"""
    program = parse_kernel(src)
    assert parse_kernel(program_to_source(program)) == program


def test_warps_for_partial_trailing_warp():
    warps = warps_for(2, 40)
    assert [(w.cta_id, w.warp_id, len(w.members)) for w in warps] == [
        (0, 0, 32),
        (0, 1, 8),
        (1, 0, 32),
        (1, 1, 8),
    ]
    assert warps[1].members == tuple(range(32, 40))
    assert warps[1].active_mask == 0xFF


def test_layout_must_be_per_cta_permutation():
    with pytest.raises(ValidationError, match="not a permutation"):
        KernelProgram(
            name="bad",
            instructions=(Instruction("exit"),),
            num_ctas=2,
            cta_size=2,
            layout=((0, 2), (1, 3)),  # swaps threads across CTAs
        )


def test_duplicate_buffer_name_rejected():
    with pytest.raises(ParseError, match="duplicate buffer"):
        parse_kernel(
            """.kernel bad
.ctas 1
.ctasize 1
.in buf 1
.out buf 1
    exit
"""
        )

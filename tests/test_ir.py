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


@pytest.mark.parametrize(
    "old, new, message",
    [
        (".ctas 2\n.ctasize 32", ".ctas 1000000\n.ctasize 1024", "more than 1048576 threads"),
        (".in in 64", ".in in 4000000000", "more than 4194304 words"),
        (".out out 64", f".out out {(1 << 22) + 1}", "more than 4194304 words"),
    ],
    ids=["threads", "input-words", "output-words"],
)
def test_launch_and_buffer_sizes_are_bounded(old, new, message):
    """Runs allocate per thread and per buffer word, so a kernel declaring
    more than the bounds is refused when it is parsed, not run out of
    memory; the bounds themselves parse."""
    with pytest.raises(ParseError, match=message):
        parse_kernel(ADD_ONE_SOURCE.replace(old, new))
    at_bounds = ADD_ONE_SOURCE.replace(".ctas 2", f".ctas {(1 << 20) // 32}").replace(
        ".in in 64", f".in in {1 << 22}"
    )
    assert parse_kernel(at_bounds).total_threads == 1 << 20


@pytest.mark.parametrize(
    "ins, message",
    [
        (Instruction("movi", dest=0, imm=None), "not a 32-bit word"),
        (Instruction("movi", dest=0, imm=2**40), "not a 32-bit word"),
        (Instruction("movi", dest=0, imm=-1), "not a 32-bit word"),
        (Instruction("movi", dest=0, imm=1.5), "not a 32-bit word"),
        (Instruction("movi", dest=0, imm=True), "not a 32-bit word"),
        (Instruction("mov", dest=0, srcs=(1,), imm=3), "no immediate"),
        (Instruction("iadd", dest="0", srcs=(1, 2)), "not an integer"),
        (Instruction("iadd", dest=0, srcs=(1, "r2")), "not an integer"),
        (Instruction("iadd", dest=0, srcs=(1, True)), "not an integer"),
        (Instruction("iadd", dest=0, srcs=(1,)), "bad source operands"),
        (Instruction("iadd", dest=0, srcs=[1, 2]), "bad source operands"),
        (Instruction("mov", dest=0, srcs=(1, 2)), "bad source operands"),
        (Instruction("ld", dest=0, buffer="in"), "requires an address register"),
        (Instruction("ld", dest=0, buffer="in", addr_reg=2.0), "not an integer"),
        (Instruction("setp", dest=0, srcs=(1, 2), cond="lt", addr_reg=3), "no address register"),
    ],
)
def test_operands_must_be_integers_of_the_right_shape(ins, message):
    """Operands reach the interpreter's generated code, so only integer
    registers and 32-bit immediates of each opcode's shape validate."""
    with pytest.raises(ValidationError, match=message):
        KernelProgram(
            name="bad",
            instructions=(ins, Instruction("exit")),
            num_ctas=1,
            cta_size=1,
            input_buffers=(("in", 1),),
        )

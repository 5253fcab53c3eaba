import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings

from warpshield.errors import ParseError, ValidationError
from warpshield.fixtures import fixture_names, generate_fixture
from warpshield.ir import (
    Instruction,
    KernelProgram,
    parse_kernel,
    program_to_source,
    warps_for,
)

from support import ADD_ONE_SOURCE, add_one_kernel
from test_generated_kernels import kernels

LOOP_BARRIER = Path(__file__).resolve().parents[1] / "perfbench" / "loop_barrier.wir"


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


@pytest.mark.parametrize(
    "tok, word",
    [("0x1F", 31), ("0b101", 5), ("-1", 0xFFFFFFFF), ("1e2", 0x42C80000), ("-inf", 0xFF800000)],
)
def test_immediate_literal_forms(tok, word):
    program = parse_kernel(ADD_ONE_SOURCE.replace("movi r0, 1", f"movi r0, {tok}", 1))
    assert program.instructions[0].imm == word


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("movi r0, 1", "mov.x r0, r1", "line 6: unknown opcode 'mov.x'"),
        ("ld r1, in[tid]", "ld.foo r1, in[tid]", "line 7: unknown opcode 'ld.foo'"),
        ("movi r0, 1", "movi.q r0, 5", "line 6: unknown opcode 'movi.q'"),
        ("    exit", "    exit.now", "line 10: unknown opcode 'exit.now'"),
        ("iadd r2, r1, r0", "iadd.x r2, r1, r0", "line 8: unknown opcode 'iadd.x'"),
        (".ctas 2", ".ctas 1 7", "line 2: malformed directive '.ctas 1 7'"),
        (".in in 64", ".in in 32 junk", "line 4: malformed directive '.in in 32 junk'"),
        (".ctasize 32", ".ctasize 32\n.kernel again", "line 4: duplicate .kernel directive"),
        (".ctasize 32", ".ctas 1\n.ctasize 32", "line 3: duplicate .ctas directive"),
        (".ctasize 32", ".ctasize 32\n.ctasize 32", "line 4: duplicate .ctasize directive"),
        ("ld r1, in[tid]", "ld r\u0661, in[tid]", "line 7: expected register"),
        ("ld r1, in[tid]", "ld r1, in[r\u0661]", "line 7: expected register"),
        ("iadd r2, r1, r0", "iadd r2, r1, r\u00b2", "line 8: expected register"),
        (".ctas 2", ".ctas \u0662", "line 2: malformed directive"),
        (".in in 64", ".in in \u0666\u0664", "line 4: malformed directive"),
        (".ctas 2", ".ctas +2", "line 2: malformed directive"),
        ("movi r0, 1", "movi r0, \u0661\u0662", "line 6: bad immediate '\u0661\u0662'"),
        ("movi r0, 1", "movi r0, 1_000", "line 6: bad immediate '1_000'"),
        ("movi r0, 1", "movi r0, \u0661.\u0665", "line 6: bad immediate"),
    ],
    ids=[
        "mov-suffix",
        "ld-suffix",
        "movi-suffix",
        "exit-suffix",
        "iadd-suffix",
        "ctas-extra-token",
        "in-extra-token",
        "second-kernel",
        "second-ctas",
        "second-ctasize",
        "arabic-indic-register",
        "arabic-indic-address",
        "superscript-register",
        "arabic-indic-ctas",
        "arabic-indic-buffer-size",
        "signed-ctas",
        "arabic-indic-immediate",
        "underscored-immediate",
        "arabic-indic-float-immediate",
    ],
)
def test_refused_source(old, new, message):
    """Only setp takes a suffix, each directive has exactly its operands and
    appears once, and numbers are ASCII with no ``_``; each refusal names
    its line."""
    src = ADD_ONE_SOURCE.replace(old, new, 1)
    assert src != ADD_ONE_SOURCE
    with pytest.raises(ParseError, match=message):
        parse_kernel(src)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kernel=kernels(tid_only=False))
def test_generated_kernels_survive_a_render_and_parse(kernel):
    program, _ = kernel
    text = program_to_source(program)
    assert parse_kernel(text) == program
    assert program_to_source(parse_kernel(text)) == text


def test_rendered_fixture_sources_are_pinned():
    """The renderer is byte-identical to its form before the operand grammar
    became one table: the concatenated fixture sources and the rendered
    loop/barrier kernel keep their digests, and each parses back."""
    programs = [generate_fixture(name).program for name in fixture_names()]
    loop_barrier = parse_kernel(LOOP_BARRIER.read_text())
    texts = [program_to_source(p) for p in programs]
    assert all(parse_kernel(t) == p for t, p in zip(texts, programs))
    assert parse_kernel(program_to_source(loop_barrier)) == loop_barrier
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "4a47b42d287ef6a7c5db58839fe8dd96ba77be229536eb6fbac0887c5758c3bd"
    )
    assert hashlib.sha256(program_to_source(loop_barrier).encode()).hexdigest() == (
        "5c2257839e066313fe3054745d5ca65ffdf78d24a69f1784a6c259db60e128c9"
    )

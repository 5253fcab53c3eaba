"""Miniature SIMT kernel IR: instruction set, program container, and text parser.

A kernel is a flat list of instructions executed by every thread of a
``num_ctas x cta_size`` launch.  Threads read global buffers declared with
``.in``, write buffers declared with ``.out``, and find their global thread id
in register 62 and their CTA id in register 63.  There is no shared memory and
no warp-level communication; CTA threads couple only through ``bar`` ordering,
which is what makes per-thread behaviour independent of warp composition.

Write-write contract: every thread's registers, iCnt and store stream are the
same under any per-CTA regrouping, but the final outputs are bit-identical
only when no two threads of one CTA store to one location in the same barrier
phase (between the same two releases of their CTA's barrier).  Such stores
land in warp order, and regrouping changes which warp each thread is in.
Stores to one location in different phases, or from different CTAs, keep
their order, since CTAs run one after another and a regrouping stays inside
its CTA.

Text format (one instruction per line, ``#`` comments, ``label:`` prefixes)::

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

The grammar is :data:`OPERAND_FORMS`, each opcode's operand kinds in source
order; ``rP`` (a branch predicate) may be left out, and ``imm`` is an integer
or float literal (floats stored as IEEE-754 single bits).  ``tid`` and
``ctaid`` are register aliases.  Only ``setp`` takes a suffix, its condition
``.cc`` in eq/ne/lt/le/gt/ge (signed).  ``.kernel``, ``.ctas`` and
``.ctasize`` appear once, and every directive has exactly its operands.
Register numbers and directive integers are ASCII digits.
"""

from __future__ import annotations

import re
import struct
from typing import NamedTuple

from .errors import ParseError, ValidationError

WARP_SIZE = 32
REGISTER_COUNT = 64
TID_REGISTER = 62
CTAID_REGISTER = 63
WORD_MASK = 0xFFFFFFFF
# Per-thread dynamic-instruction budget; a thread that passes it has hung.
DEFAULT_BUDGET = 1_000_000
# The largest launch and buffer a kernel may declare: runs allocate per
# thread and per word, so a bigger kernel file is refused, not run out of
# memory.  The largest fixture has 9,120 threads and 9,120-word buffers.
MAX_THREADS = 1 << 20
MAX_BUFFER_WORDS = 1 << 22

# The operand grammar, which parsing, rendering and validation all read.
OPERAND_FORMS = {
    **{op: ("rD", "rA", "rB") for op in ("iadd", "isub", "imul", "fadd", "fmul", "setp")},
    "mov": ("rD", "rA"),
    "movi": ("rD", "imm"),
    "ld": ("rD", "buf[rA]"),
    "st": ("buf[rA]", "rS"),
    "bra": ("rP", "label"),
    "bar": (),
    "exit": (),
}
WRITING_OPS = frozenset(op for op, form in OPERAND_FORMS.items() if form[:1] == ("rD",))
SETP_CONDS = ("eq", "ne", "lt", "le", "gt", "ge")
_SOURCE_KINDS = frozenset({"rA", "rB", "rS", "rP"})

_REGISTER_NAMES = {f"r{i}": i for i in range(REGISTER_COUNT)} | {"tid": TID_REGISTER, "ctaid": CTAID_REGISTER}
_BUF_RE = re.compile(r"^(\w+)\[(\w+)\]$")


class Instruction:
    """One instruction.  ``target_label`` and ``line`` record where it came
    from in the source; they take no part in equality or hashing."""

    __slots__ = ("opcode", "dest", "srcs", "imm", "buffer", "addr_reg", "cond", "target", "target_label", "line")

    def __init__(
        self,
        opcode: str,
        dest: int | None = None,
        srcs: tuple[int, ...] = (),
        imm: int | None = None,
        buffer: str | None = None,
        addr_reg: int | None = None,
        cond: str | None = None,
        target: int | None = None,
        target_label: str | None = None,
        line: int | None = None,
    ):
        values = (opcode, dest, srcs, imm, buffer, addr_reg, cond, target, target_label, line)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.opcode, self.dest, self.srcs, self.imm, self.buffer, self.addr_reg, self.cond, self.target)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Instruction({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Warp(NamedTuple):
    """One scheduling unit: up to 32 threads of a single CTA, in slot order."""

    cta_id: int
    warp_id: int
    members: tuple[int, ...]


class _KernelProgram(NamedTuple):
    name: str
    instructions: tuple[Instruction, ...]
    num_ctas: int
    cta_size: int
    input_buffers: tuple[tuple[str, int], ...] = ()
    output_buffers: tuple[tuple[str, int], ...] = ()
    # Optional per-CTA launch order (original thread ids); None means linear.
    layout: tuple[tuple[int, ...], ...] | None = None


class KernelProgram(_KernelProgram):
    """A kernel and its launch geometry, validated when it is made, also
    by ``_make`` and ``_replace``."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _validate_program(self)
        return self

    @property
    def total_threads(self) -> int:
        return self.num_ctas * self.cta_size

    @property
    def geometry(self) -> tuple[int, int]:
        return (self.num_ctas, self.cta_size)

    def cta_of(self, thread_id: int) -> int:
        return thread_id // self.cta_size

    def cta_threads(self, cta_id: int) -> range:
        base = cta_id * self.cta_size
        return range(base, base + self.cta_size)

    def launch_order(self, cta_id: int) -> tuple[int, ...]:
        if self.layout is not None:
            return self.layout[cta_id]
        return tuple(self.cta_threads(cta_id))

    def warps(self) -> tuple[Warp, ...]:
        return warps_for(self.num_ctas, self.cta_size, self.layout)


def warps_for(
    num_ctas: int, cta_size: int, layout: tuple[tuple[int, ...], ...] | None = None
) -> tuple[Warp, ...]:
    """Chunk each CTA's launch order into warps of 32 (trailing warp may be partial)."""
    out = []
    for cta in range(num_ctas):
        if layout is not None:
            order = layout[cta]
        else:
            base = cta * cta_size
            order = tuple(range(base, base + cta_size))
        for wid, start in enumerate(range(0, len(order), WARP_SIZE)):
            out.append(Warp(cta, wid, tuple(order[start : start + WARP_SIZE])))
    return tuple(out)


def _validate_program(p: KernelProgram) -> None:
    if p.num_ctas < 1 or p.cta_size < 1:
        raise ValidationError(f"kernel {p.name!r}: launch geometry must be positive")
    if p.num_ctas * p.cta_size > MAX_THREADS:
        raise ValidationError(f"kernel {p.name!r}: launch of more than {MAX_THREADS} threads")
    if not p.instructions:
        raise ValidationError(f"kernel {p.name!r}: instruction list is empty")

    in_names = [n for n, _ in p.input_buffers]
    out_names = [n for n, _ in p.output_buffers]
    names = in_names + out_names
    if len(set(names)) != len(names):
        raise ValidationError(f"kernel {p.name!r}: duplicate buffer name")
    for name, size in p.input_buffers + p.output_buffers:
        if size < 1:
            raise ValidationError(f"kernel {p.name!r}: buffer {name!r} has non-positive size")
        if size > MAX_BUFFER_WORDS:
            raise ValidationError(f"kernel {p.name!r}: buffer {name!r} has more than {MAX_BUFFER_WORDS} words")

    n = len(p.instructions)
    for i, ins in enumerate(p.instructions):
        where = f"kernel {p.name!r}, instruction {i}"
        form = OPERAND_FORMS.get(ins.opcode)
        if form is None:
            raise ValidationError(f"{where}: unknown opcode {ins.opcode!r}")
        if "rD" in form:
            if ins.dest is None:
                raise ValidationError(f"{where}: {ins.opcode} requires a destination register")
            _check_dest(ins.dest, where)
        elif ins.dest is not None:
            raise ValidationError(f"{where}: {ins.opcode} does not write a destination register")
        sources = len(_SOURCE_KINDS.intersection(form))
        if not isinstance(ins.srcs, tuple) or not sources - ("rP" in form) <= len(ins.srcs) <= sources:
            raise ValidationError(f"{where}: {ins.opcode} has bad source operands {ins.srcs!r}")
        for s in ins.srcs:
            _check_src(s, where)
        if "buf[rA]" in form:
            if ins.addr_reg is None:
                raise ValidationError(f"{where}: {ins.opcode} requires an address register")
            _check_src(ins.addr_reg, where)
            written = form[0] == "buf[rA]"  # as with registers, the first operand is the destination
            if ins.buffer not in (out_names if written else in_names):
                access = "writes undeclared output" if written else "reads undeclared input"
                raise ValidationError(f"{where}: {ins.opcode} {access} buffer {ins.buffer!r}")
        elif ins.addr_reg is not None:
            raise ValidationError(f"{where}: {ins.opcode} takes no address register")
        if "imm" in form:
            if not _is_int(ins.imm) or not (0 <= ins.imm <= WORD_MASK):
                raise ValidationError(f"{where}: {ins.opcode} immediate {ins.imm!r} is not a 32-bit word")
        elif ins.imm is not None:
            raise ValidationError(f"{where}: {ins.opcode} takes no immediate")
        if ins.opcode == "setp" and ins.cond not in SETP_CONDS:
            raise ValidationError(f"{where}: bad setp condition {ins.cond!r}")
        if "label" in form and (not _is_int(ins.target) or not (0 <= ins.target < n)):
            raise ValidationError(f"{where}: branch target out of range")

    last = p.instructions[-1]
    if not (last.opcode == "exit" or (last.opcode == "bra" and not last.srcs)):
        raise ValidationError(
            f"kernel {p.name!r}: control can fall off the end "
            "(last instruction must be exit or an unconditional bra)"
        )
    if not _exit_reachable(p.instructions):
        raise ValidationError(f"kernel {p.name!r}: no exit reachable from entry")

    if p.layout is not None:
        validate_layout(p.layout, p.num_ctas, p.cta_size)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_dest(reg: int, where: str) -> None:
    _check_src(reg, where)
    if reg in (TID_REGISTER, CTAID_REGISTER):
        raise ValidationError(f"{where}: register r{reg} is read-only")


def _check_src(reg: int, where: str) -> None:
    if not _is_int(reg):
        raise ValidationError(f"{where}: register operand {reg!r} is not an integer")
    if not (0 <= reg < REGISTER_COUNT):
        raise ValidationError(f"{where}: register r{reg} out of range (file size {REGISTER_COUNT})")


def _exit_reachable(instructions: tuple[Instruction, ...]) -> bool:
    n = len(instructions)
    seen = [False] * n
    stack = [0]
    while stack:
        i = stack.pop()
        if i >= n or seen[i]:
            continue
        seen[i] = True
        ins = instructions[i]
        if ins.opcode == "exit":
            return True
        if ins.opcode == "bra":
            stack.append(ins.target)
            if ins.srcs:  # conditional: may fall through
                stack.append(i + 1)
        else:
            stack.append(i + 1)
    return False


def validate_layout(
    layout: tuple[tuple[int, ...], ...], num_ctas: int, cta_size: int
) -> None:
    """Each CTA's order must be a permutation of that CTA's original thread ids."""
    if len(layout) != num_ctas:
        raise ValidationError(f"layout covers {len(layout)} CTAs, expected {num_ctas}")
    for cta, order in enumerate(layout):
        base = cta * cta_size
        if sorted(order) != list(range(base, base + cta_size)):
            raise ValidationError(
                f"layout for CTA {cta} is not a permutation of its thread ids"
            )


# ---------------------------------------------------------------------------
# parsing


def _parse_reg(tok: str, lineno: int, *, dest: bool = False) -> int:
    reg = _REGISTER_NAMES.get(tok)
    if reg is None:
        if not (tok.startswith("r") and _is_digits(tok[1:])):
            raise ParseError(f"expected register, got {tok!r}", lineno)
        reg = int(tok[1:])
        if reg >= REGISTER_COUNT:
            raise ParseError(f"register r{reg} out of range (file size {REGISTER_COUNT})", lineno)
    if dest and reg in (TID_REGISTER, CTAID_REGISTER):
        raise ParseError(f"register r{reg} is read-only", lineno)
    return reg


def _is_digits(tok: str) -> bool:
    """``str.isdigit`` alone also takes other scripts' digits and superscripts."""
    return tok.isascii() and tok.isdigit()


def _parse_count(tok: str) -> int:
    if not _is_digits(tok):
        raise ValueError(tok)
    return int(tok)


def _parse_imm(tok: str, lineno: int) -> int:
    try:
        return int(tok, 0) & WORD_MASK
    except ValueError:
        pass
    try:
        return struct.unpack("<I", struct.pack("<f", float(tok)))[0]
    except (ValueError, OverflowError):
        raise ParseError(f"bad immediate {tok!r}", lineno) from None


def _parse_buf(tok: str, lineno: int) -> tuple[str, int]:
    m = _BUF_RE.match(tok)
    if not m:
        raise ParseError(f"expected buffer operand name[reg], got {tok!r}", lineno)
    return m.group(1), _parse_reg(m.group(2), lineno)


def parse_kernel(text: str) -> KernelProgram:
    """Parse IR source text into a validated :class:`KernelProgram`."""
    header: dict[str, str | int] = {}  # .kernel, .ctas and .ctasize
    in_bufs: list[tuple[str, int]] = []
    out_bufs: list[tuple[str, int]] = []
    raw: list[tuple[int, str, list[str]]] = []  # (lineno, opcode-token, operand tokens)
    labels: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            if raw:
                raise ParseError("directives must precede instructions", lineno)
            directive, *args = line.split()
            try:
                if directive in (".in", ".out"):
                    buf, size = args
                    (in_bufs if directive == ".in" else out_bufs).append((buf, _parse_count(size)))
                elif directive in header:
                    raise ParseError(f"duplicate {directive} directive", lineno)
                elif directive in (".kernel", ".ctas", ".ctasize"):
                    (value,) = args
                    header[directive] = value if directive == ".kernel" else _parse_count(value)
                else:
                    raise ParseError(f"unknown directive {directive!r}", lineno)
            except ValueError:
                raise ParseError(f"malformed directive {line!r}", lineno) from None
            continue
        while line and ":" in line.split()[0]:
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                raise ParseError(f"bad label {label!r}", lineno)
            if label in labels:
                raise ParseError(f"duplicate label {label!r}", lineno)
            labels[label] = len(raw)
            line = rest.strip()
        if not line:
            continue
        op, _, operands = line.partition(" ")
        toks = [t.strip() for t in operands.split(",")] if operands.strip() else []
        raw.append((lineno, op.strip(), toks))

    if ".kernel" not in header:
        raise ParseError("missing .kernel directive")
    if ".ctas" not in header or ".ctasize" not in header:
        raise ParseError("missing .ctas or .ctasize directive")
    if not raw:
        raise ParseError("kernel has no instructions")

    instructions: list[Instruction] = []
    for lineno, op, toks in raw:
        base, suffix, cond = op.partition(".")
        form = OPERAND_FORMS.get(base)
        if form is None or (suffix and base != "setp"):
            raise ParseError(f"unknown opcode {op!r}", lineno)
        if base == "setp" and cond not in SETP_CONDS:
            raise ParseError(f"setp condition must be one of {'/'.join(SETP_CONDS)}", lineno)
        if len(toks) == len(form) - 1 and form[0] == "rP":
            form = form[1:]  # an unconditional branch
        if len(toks) != len(form):
            shapes = (form[1:], form) if form[:1] == ("rP",) else (form,)
            usage = " or ".join(f"'{', '.join(shape)}'" for shape in shapes)
            raise ParseError(f"{op} expects {usage}" if form else f"{op} takes no operands", lineno)
        dest = imm = buffer = addr_reg = target = label = None
        srcs = []
        for kind, tok in zip(form, toks):
            if kind == "rD":
                dest = _parse_reg(tok, lineno, dest=True)
            elif kind == "imm":
                imm = _parse_imm(tok, lineno)
            elif kind == "buf[rA]":
                buffer, addr_reg = _parse_buf(tok, lineno)
            elif kind == "label":
                label, target = tok, labels.get(tok)
                if target is None:
                    raise ParseError(f"undefined label {label!r}", lineno)
                if target >= len(raw):
                    raise ParseError(f"label {label!r} points past the last instruction", lineno)
            else:
                srcs.append(_parse_reg(tok, lineno))
        instructions.append(
            Instruction(base, dest, tuple(srcs), imm, buffer, addr_reg, cond or None, target, label, lineno)
        )

    try:
        return KernelProgram(
            name=header[".kernel"],
            instructions=tuple(instructions),
            num_ctas=header[".ctas"],
            cta_size=header[".ctasize"],
            input_buffers=tuple(in_bufs),
            output_buffers=tuple(out_bufs),
        )
    except ValidationError as e:
        raise ParseError(str(e)) from None


def program_to_source(program: KernelProgram) -> str:
    """Render a program back to parseable IR text (labels regenerated as L<idx>)."""
    label_of = {ins.target: f"L{ins.target}" for ins in program.instructions if "label" in OPERAND_FORMS[ins.opcode]}
    lines = [f".kernel {program.name}", f".ctas {program.num_ctas}", f".ctasize {program.cta_size}"]
    lines += [f".in {n} {s}" for n, s in program.input_buffers]
    lines += [f".out {n} {s}" for n, s in program.output_buffers]
    for i, ins in enumerate(program.instructions):
        form = OPERAND_FORMS[ins.opcode]
        if form[:1] == ("rP",) and not ins.srcs:
            form = form[1:]  # an unconditional branch
        srcs = iter(ins.srcs)
        operands = []
        for kind in form:
            if kind == "rD":
                operands.append(f"r{ins.dest}")
            elif kind == "imm":
                operands.append(str(ins.imm))
            elif kind == "buf[rA]":
                operands.append(f"{ins.buffer}[r{ins.addr_reg}]")
            elif kind == "label":
                operands.append(label_of[ins.target])
            else:
                operands.append(f"r{next(srcs)}")
        op = f"setp.{ins.cond}" if ins.opcode == "setp" else ins.opcode
        prefix = f"{label_of[i]}: " if i in label_of else "    "
        lines.append(f"{prefix}{op} {', '.join(operands)}" if operands else prefix + op)
    return "\n".join(lines) + "\n"

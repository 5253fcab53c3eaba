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

Operand forms: ``iadd/isub/imul/fadd/fmul rD, rA, rB`` - ``mov rD, rA`` -
``movi rD, imm`` (integer or float literal; floats stored as IEEE-754 single
bits) - ``ld rD, buf[rA]`` - ``st buf[rA], rS`` - ``setp.cc rD, rA, rB`` with
``cc`` in eq/ne/lt/le/gt/ge (signed) - ``bra label`` - ``bra rP, label`` -
``bar`` - ``exit``.  ``tid`` and ``ctaid`` are accepted as register aliases.
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

WRITING_OPS = frozenset({"iadd", "isub", "imul", "fadd", "fmul", "mov", "movi", "ld", "setp"})
NON_WRITING_OPS = frozenset({"st", "bra", "bar", "exit"})
OPCODES = WRITING_OPS | NON_WRITING_OPS
SETP_CONDS = ("eq", "ne", "lt", "le", "gt", "ge")
# Allowed numbers of source registers per opcode (``ld``/``st`` addresses apart).
_SOURCE_COUNTS = {
    **{op: (2,) for op in ("iadd", "isub", "imul", "fadd", "fmul", "setp")},
    "mov": (1,),
    "st": (1,),
    "bra": (0, 1),
    **{op: (0,) for op in ("movi", "ld", "bar", "exit")},
}

_REG_ALIASES = {"tid": TID_REGISTER, "ctaid": CTAID_REGISTER}
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

    @property
    def writes_register(self) -> bool:
        return self.opcode in WRITING_OPS


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
        if ins.opcode not in OPCODES:
            raise ValidationError(f"{where}: unknown opcode {ins.opcode!r}")
        if ins.writes_register:
            if ins.dest is None:
                raise ValidationError(f"{where}: {ins.opcode} requires a destination register")
            _check_dest(ins.dest, where)
        elif ins.dest is not None:
            raise ValidationError(f"{where}: {ins.opcode} does not write a destination register")
        if not isinstance(ins.srcs, tuple) or len(ins.srcs) not in _SOURCE_COUNTS[ins.opcode]:
            raise ValidationError(f"{where}: {ins.opcode} has bad source operands {ins.srcs!r}")
        for s in ins.srcs:
            _check_src(s, where)
        if ins.opcode in ("ld", "st"):
            if ins.addr_reg is None:
                raise ValidationError(f"{where}: {ins.opcode} requires an address register")
            _check_src(ins.addr_reg, where)
        elif ins.addr_reg is not None:
            raise ValidationError(f"{where}: {ins.opcode} takes no address register")
        if ins.opcode == "movi":
            if not _is_int(ins.imm) or not (0 <= ins.imm <= WORD_MASK):
                raise ValidationError(f"{where}: movi immediate {ins.imm!r} is not a 32-bit word")
        elif ins.imm is not None:
            raise ValidationError(f"{where}: {ins.opcode} takes no immediate")
        if ins.opcode == "ld" and ins.buffer not in in_names:
            raise ValidationError(f"{where}: ld reads undeclared input buffer {ins.buffer!r}")
        if ins.opcode == "st" and ins.buffer not in out_names:
            raise ValidationError(f"{where}: st writes undeclared output buffer {ins.buffer!r}")
        if ins.opcode == "setp" and ins.cond not in SETP_CONDS:
            raise ValidationError(f"{where}: bad setp condition {ins.cond!r}")
        if ins.opcode == "bra":
            if not _is_int(ins.target) or not (0 <= ins.target < n):
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
    tok = tok.strip()
    if tok in _REG_ALIASES:
        reg = _REG_ALIASES[tok]
    elif tok.startswith("r") and tok[1:].isdigit():
        reg = int(tok[1:])
    else:
        raise ParseError(f"expected register, got {tok!r}", lineno)
    if reg >= REGISTER_COUNT:
        raise ParseError(f"register r{reg} out of range (file size {REGISTER_COUNT})", lineno)
    if dest and reg in (TID_REGISTER, CTAID_REGISTER):
        raise ParseError(f"register r{reg} is read-only", lineno)
    return reg


def _parse_imm(tok: str, lineno: int) -> int:
    tok = tok.strip()
    try:
        return int(tok, 0) & WORD_MASK
    except ValueError:
        pass
    try:
        return struct.unpack("<I", struct.pack("<f", float(tok)))[0]
    except (ValueError, OverflowError):
        raise ParseError(f"bad immediate {tok!r}", lineno) from None


def _parse_buf(tok: str, lineno: int) -> tuple[str, int]:
    m = _BUF_RE.match(tok.strip())
    if not m:
        raise ParseError(f"expected buffer operand name[reg], got {tok!r}", lineno)
    return m.group(1), _parse_reg(m.group(2), lineno)


def parse_kernel(text: str) -> KernelProgram:
    """Parse IR source text into a validated :class:`KernelProgram`."""
    name = None
    num_ctas = None
    cta_size = None
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
            parts = line.split()
            try:
                if parts[0] == ".kernel":
                    (name,) = parts[1:]
                elif parts[0] == ".ctas":
                    num_ctas = int(parts[1])
                elif parts[0] == ".ctasize":
                    cta_size = int(parts[1])
                elif parts[0] == ".in":
                    in_bufs.append((parts[1], int(parts[2])))
                elif parts[0] == ".out":
                    out_bufs.append((parts[1], int(parts[2])))
                else:
                    raise ParseError(f"unknown directive {parts[0]!r}", lineno)
            except (ValueError, IndexError):
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

    if name is None:
        raise ParseError("missing .kernel directive")
    if num_ctas is None or cta_size is None:
        raise ParseError("missing .ctas or .ctasize directive")
    if not raw:
        raise ParseError("kernel has no instructions")

    instructions: list[Instruction] = []
    pending: list[tuple[int, int, str]] = []  # (instr index, lineno, label) to resolve
    for idx, (lineno, op, toks) in enumerate(raw):
        base = op.split(".", 1)[0]
        if base not in OPCODES:
            raise ParseError(f"unknown opcode {op!r}", lineno)
        ins: Instruction
        if base in ("iadd", "isub", "imul", "fadd", "fmul"):
            if op != base or len(toks) != 3:
                raise ParseError(f"{base} expects 'rD, rA, rB'", lineno)
            ins = Instruction(
                base,
                dest=_parse_reg(toks[0], lineno, dest=True),
                srcs=(_parse_reg(toks[1], lineno), _parse_reg(toks[2], lineno)),
                line=lineno,
            )
        elif base == "mov":
            if len(toks) != 2:
                raise ParseError("mov expects 'rD, rA'", lineno)
            ins = Instruction(
                "mov",
                dest=_parse_reg(toks[0], lineno, dest=True),
                srcs=(_parse_reg(toks[1], lineno),),
                line=lineno,
            )
        elif base == "movi":
            if len(toks) != 2:
                raise ParseError("movi expects 'rD, imm'", lineno)
            ins = Instruction(
                "movi",
                dest=_parse_reg(toks[0], lineno, dest=True),
                imm=_parse_imm(toks[1], lineno),
                line=lineno,
            )
        elif base == "ld":
            if len(toks) != 2:
                raise ParseError("ld expects 'rD, buf[rA]'", lineno)
            buf, addr = _parse_buf(toks[1], lineno)
            ins = Instruction(
                "ld",
                dest=_parse_reg(toks[0], lineno, dest=True),
                buffer=buf,
                addr_reg=addr,
                line=lineno,
            )
        elif base == "st":
            if len(toks) != 2:
                raise ParseError("st expects 'buf[rA], rS'", lineno)
            buf, addr = _parse_buf(toks[0], lineno)
            ins = Instruction(
                "st",
                srcs=(_parse_reg(toks[1], lineno),),
                buffer=buf,
                addr_reg=addr,
                line=lineno,
            )
        elif base == "setp":
            cond = op.partition(".")[2]
            if cond not in SETP_CONDS:
                raise ParseError(f"setp condition must be one of {'/'.join(SETP_CONDS)}", lineno)
            if len(toks) != 3:
                raise ParseError("setp.cc expects 'rD, rA, rB'", lineno)
            ins = Instruction(
                "setp",
                dest=_parse_reg(toks[0], lineno, dest=True),
                srcs=(_parse_reg(toks[1], lineno), _parse_reg(toks[2], lineno)),
                cond=cond,
                line=lineno,
            )
        elif base == "bra":
            if len(toks) == 1:
                srcs: tuple[int, ...] = ()
                label = toks[0]
            elif len(toks) == 2:
                srcs = (_parse_reg(toks[0], lineno),)
                label = toks[1]
            else:
                raise ParseError("bra expects 'label' or 'rP, label'", lineno)
            pending.append((idx, lineno, label))
            ins = Instruction("bra", srcs=srcs, target=0, target_label=label, line=lineno)
        elif base == "bar":
            if toks:
                raise ParseError("bar takes no operands", lineno)
            ins = Instruction("bar", line=lineno)
        else:  # exit
            if toks:
                raise ParseError("exit takes no operands", lineno)
            ins = Instruction("exit", line=lineno)
        instructions.append(ins)

    for idx, lineno, label in pending:
        if label not in labels:
            raise ParseError(f"undefined label {label!r}", lineno)
        if labels[label] >= len(instructions):
            raise ParseError(f"label {label!r} points past the last instruction", lineno)
        ins = instructions[idx]
        instructions[idx] = Instruction("bra", srcs=ins.srcs, target=labels[label], target_label=label, line=ins.line)

    try:
        return KernelProgram(
            name=name,
            instructions=tuple(instructions),
            num_ctas=num_ctas,
            cta_size=cta_size,
            input_buffers=tuple(in_bufs),
            output_buffers=tuple(out_bufs),
        )
    except ValidationError as e:
        raise ParseError(str(e)) from None


def program_to_source(program: KernelProgram) -> str:
    """Render a program back to parseable IR text (labels regenerated as L<idx>)."""
    targets = sorted({ins.target for ins in program.instructions if ins.opcode == "bra"})
    label_of = {t: f"L{t}" for t in targets}
    lines = [f".kernel {program.name}", f".ctas {program.num_ctas}", f".ctasize {program.cta_size}"]
    lines += [f".in {n} {s}" for n, s in program.input_buffers]
    lines += [f".out {n} {s}" for n, s in program.output_buffers]
    for i, ins in enumerate(program.instructions):
        prefix = f"{label_of[i]}: " if i in label_of else "    "
        op = ins.opcode
        if op in ("iadd", "isub", "imul", "fadd", "fmul"):
            body = f"{op} r{ins.dest}, r{ins.srcs[0]}, r{ins.srcs[1]}"
        elif op == "mov":
            body = f"mov r{ins.dest}, r{ins.srcs[0]}"
        elif op == "movi":
            body = f"movi r{ins.dest}, {ins.imm}"
        elif op == "ld":
            body = f"ld r{ins.dest}, {ins.buffer}[r{ins.addr_reg}]"
        elif op == "st":
            body = f"st {ins.buffer}[r{ins.addr_reg}], r{ins.srcs[0]}"
        elif op == "setp":
            body = f"setp.{ins.cond} r{ins.dest}, r{ins.srcs[0]}, r{ins.srcs[1]}"
        elif op == "bra":
            tgt = label_of[ins.target]
            body = f"bra r{ins.srcs[0]}, {tgt}" if ins.srcs else f"bra {tgt}"
        else:
            body = op
        lines.append(prefix + body)
    return "\n".join(lines) + "\n"

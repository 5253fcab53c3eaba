"""A thread run alone, compiled: the program's whole control-flow graph as
one Python function with the thread's registers in locals, and the loop
by which :meth:`warpshield.interp.ThreadRun.finish` runs a thread
through it.  It lives apart from :mod:`warpshield.interp` so that only a
command that finishes such a run loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .interp import _OUT_OF_BOUNDS, _block_source, _generate, _release
from .ir import Instruction

if TYPE_CHECKING:
    from .interp import ThreadRun


def finish_alone(run: "ThreadRun") -> None:
    """Finish ``run`` as :meth:`ThreadRun.finish` says: the issues still
    due through ``issue``, then the lone form, and ``issue`` again for each
    instruction it hands back.  A crash or a hang raises from ``issue``."""
    wp, state, issue, runs = run.warp, run._state, run._issue, run._runs
    frags = wp.frags
    (t,) = wp.members
    regs, icnt = state.regs[t], state.icnt
    stream = state.streams[wp.key]
    lone, stored = runs.lone_run()
    bufs = [run._inputs[name] for name in runs.buffers]
    outs = tuple((name, len(state.outputs[name])) for name in stored)
    while frags or _release((wp,)):  # a lone thread at a bar is released at once
        if run._armed and not state.fault_applied:
            issue(wp)  # the fault is due, by the hooked block or a single step
            continue
        n = icnt[t]
        pc, icnt[t], wp.phase = lone(regs, n, wp.phase, frags[0][0], run._budget, stream, bufs, outs)
        wp.issued += icnt[t] - n
        if pc < 0:  # exited
            frags.clear()
            return
        frags[0][0] = pc
        issue(wp)  # handed back: the thread may crash or hang here


def compile_lone(instructions: tuple[Instruction, ...], end: list[int], buffers: tuple[str, ...]):
    """One function ``f(r, n, phase, pc, budget, stream, bufs, outs)``
    that runs a thread alone from ``pc`` over the whole program, with
    registers ``r``, iCnt ``n`` and barrier phase ``phase``, and returns
    ``(pc, n, phase)``: pc -1 once the thread exits, else the pc where it
    hands back, with ``r`` holding the registers there.

    A ``while`` loop dispatches on the pc of each block start and each
    instruction in no block (``end`` as in
    :class:`~warpshield.interp._Runs`).  A block runs as in
    :func:`~warpshield.interp._compile_run`, for one lane, from the same
    :func:`~warpshield.interp._block_source`, which computes each written
    register's value at the block's end, dropping writes that are
    overwritten before anything reads them and folding repeated adds,
    while iCnt still counts every instruction and the bounds check every
    load, dropped ones included; ``st`` appends
    ``(buffer, index, value, phase)`` to ``stream``; ``bar`` adds 1 to the
    phase, as a release does when every live thread is this one; ``exit``
    returns.
    The thread hands back, having changed nothing of what it was about to
    issue, when a block would take its iCnt past ``budget``, when a
    ``st``, ``bar`` or ``bra`` would issue with iCnt at least ``budget``,
    when a load or store address is out of bounds, and when pc lies
    inside a block.  ``outs`` holds ``(name, size)`` of each output buffer
    in the order the program first stores to them.

    Register operands become locals ``x<reg>``; only validated integers
    and the fixed strings above enter the source.
    """
    stored = tuple(dict.fromkeys(i.buffer for i in instructions if i.opcode == "st"))
    used = sorted(
        {reg for i in instructions for reg in (*i.srcs, i.dest, i.addr_reg) if reg is not None}
    )
    written = sorted({i.dest for i in instructions if i.dest is not None})

    def jump(ins: Instruction, after: int) -> str:
        if ins.opcode != "bra":
            return f"pc = {after}"
        if not ins.srcs:
            return f"pc = {ins.target}"
        return f"pc = {ins.target} if x{ins.srcs[0]} != 0 else {after}"

    def case(pc: int) -> list[str]:
        """The body of ``if pc == <pc>:``, ending in continue or break."""
        ins = instructions[pc]
        op = ins.opcode
        if end[pc] > pc:  # a block
            stop = end[pc]
            body, loads, _, _ = _block_source(instructions, pc, stop, buffers)
            checks = [_OUT_OF_BOUNDS.format(a=f"x{reg}", size=f"s{k}") for reg, k in loads]
            return [
                f"if n > budget - {stop - pc}: break",
                *([f"if {' or '.join(checks)}: break"] if checks else []),
                *body,
                f"n += {stop - pc}",
                jump(instructions[stop - 1], stop),
                "continue",
            ]
        if op == "exit":
            return ["n += 1", "pc = -1", "break"]
        if op == "st":
            k = stored.index(ins.buffer)
            return [
                f"if n >= budget or {_OUT_OF_BOUNDS.format(a=f'x{ins.addr_reg}', size=f'z{k}')}: break",
                "n += 1",
                f"stream.append((u{k}, x{ins.addr_reg}, x{ins.srcs[0]}, phase))",
                f"pc = {pc + 1}",
                "continue",
            ]
        lines = ["if n >= budget: break", "n += 1"]
        if op == "bar":
            return [*lines, "phase += 1", f"pc = {pc + 1}", "continue"]
        return [*lines, jump(ins, pc + 1), "continue"]  # a bra of its own

    def dispatch(keys: list[int], indent: str) -> list[str]:
        if len(keys) > 4:  # bisect
            half = len(keys) // 2
            return [
                f"{indent}if pc < {keys[half]}:",
                *dispatch(keys[:half], indent + "    "),
                *dispatch(keys[half:], indent),
            ]
        lines = []
        for pc in keys:
            lines.append(f"{indent}if pc == {pc}:")
            lines += (f"{indent}    {line}" for line in case(pc))
        return [*lines, f"{indent}break  # inside a block"]

    # Every pc that starts a block or lies in none: no block runs across it.
    keys = [pc for pc in range(len(instructions)) if pc == 0 or end[pc - 1] <= pc]
    lines = ["def f(r, n, phase, pc, budget, stream, bufs, outs):"]
    lines += (f"    b{k} = bufs[{k}]; s{k} = len(b{k})" for k in range(len(buffers)))
    lines += (f"    u{k}, z{k} = outs[{k}]" for k in range(len(stored)))
    lines += (f"    x{reg} = r[{reg}]" for reg in used)
    lines += ["    while True:", *dispatch(keys, "        ")]
    lines += (f"    r[{reg}] = x{reg}" for reg in written)
    lines.append("    return pc, n, phase")
    return _generate("\n".join(lines) + "\n", "<lone>"), stored

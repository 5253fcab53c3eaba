"""Small hand-written kernels, and reference implementations that tests
compare the package's shortcuts against."""

import random
import struct
from collections import Counter
from fractions import Fraction

from warpshield import interp
from warpshield.errors import ProtectionError, ValidationError
from warpshield.faults import (
    MASKED,
    SDC,
    CampaignResult,
    FaultSpace,
    Outcome,
    RunCounts,
    classify_outcome,
    default_budget,
    golden_run,
    sample_sites,
)
from warpshield.fixtures import Fixture, FixtureSpec, build_fixture, fixture_names, generate_fixture
from warpshield.interp import (
    COMPLETED,
    CRASHED,
    DEFAULT_BUDGET,
    DEFAULT_COST_TABLE,
    HUNG,
    ExecutionResult,
    WordInputs,
    execute,
    replay_stores,
    validate_inputs,
    word_inputs,
)
from warpshield.ir import (
    CTAID_REGISTER,
    REGISTER_COUNT,
    TID_REGISTER,
    WARP_SIZE,
    WORD_MASK,
    Instruction,
    KernelProgram,
    parse_kernel,
)
from warpshield.profiling import (
    EXTRAPOLATED,
    MEASURED,
    KernelProfile,
    ThreadProfile,
    group_by_icnt,
    hash_seed,
    outcome_table,
    to_fraction,
)
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


CHASE_SOURCE = """\
.kernel chase
.ctas 2
.ctasize 48
.in trips 96
.in link 96
.in vals 96
.out out 96
    ld r1, trips[tid]
    mov r3, tid
    movi r6, 1
LOOP: setp.ge r8, r4, r1
    bra r8, DONE
    ld r3, link[r3]
    ld r9, vals[r3]
    iadd r5, r5, r9
    iadd r4, r4, r6
    bra LOOP
DONE: bar
    st out[tid], r5
    exit
"""


def chase_kernel() -> tuple[KernelProgram, dict[str, list[int]]]:
    """Data-dependent loop trips, chained load addresses and a bar: its
    sites mask, corrupt, crash and hang."""
    program = parse_kernel(CHASE_SOURCE)
    rng = random.Random("chase")
    inputs = {
        "trips": [rng.randrange(6) for _ in range(96)],
        "link": [rng.randrange(96) for _ in range(96)],
        "vals": [rng.getrandbits(32) for _ in range(96)],
    }
    return program, inputs


# Test-only fixtures on the suite's dispatch kernel: class 0 at 0% SDC for
# the reliable threads, class 1 at 50% for the rest.
PROBE_FIXTURE_NAMES = [
    "alternating",  # every warp mixed before regrouping, 50% reliable warps after
    "fidelity_probe",  # one mixed warp, small enough to re-measure exhaustively
    "split_probe",  # one pure reliable warp and one pure unreliable warp
    *(f"uniform_r{pct}" for pct in (0, 25, 50, 75, 100)),  # warp-aligned reliable prefix
]
PROBE_LEVELS = (Fraction(0), Fraction(1, 2))


def named_fixture(name: str, seed: int = 0) -> Fixture:
    """A test-only fixture of ``PROBE_FIXTURE_NAMES``, or else the suite's."""
    if name == "alternating":
        spec = FixtureSpec(name, 2, 64, "alternating", PROBE_LEVELS)
        flags = [tid % 2 == 0 for tid in range(spec.total_threads)]
    elif name == "fidelity_probe":
        spec = FixtureSpec(name, 1, 32, "scattered", PROBE_LEVELS)
        reliable = random.Random(f"{name}:{seed}").sample(range(32), 16)
        flags = [tid in reliable for tid in range(32)]
    elif name == "split_probe":
        spec = FixtureSpec(name, 1, 64, "scattered", PROBE_LEVELS)
        flags = [tid < 32 for tid in range(64)]
    elif name in PROBE_FIXTURE_NAMES:
        spec = FixtureSpec(name, 1, 128, "reliable_prefix", PROBE_LEVELS)
        flags = [tid < int(name.removeprefix("uniform_r")) * 128 // 100 for tid in range(128)]
    else:
        return generate_fixture(name, seed)
    return build_fixture(spec, flags, [0 if flag else 1 for flag in flags], seed)


FIXTURE_NAMES = [*fixture_names(), *PROBE_FIXTURE_NAMES]


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


# ---------------------------------------------------------------------------
# from-launch campaign


def from_launch_campaign(program, inputs, sites, *, budget=None, golden=None, seed=None):
    """``run_campaign`` as it was before sites resumed from a golden
    checkpoint: every site re-runs its whole warp from launch, and its
    outcome replays zero-filled copies of every output buffer."""
    if golden is None:
        golden = golden_run(program, inputs)
    if budget is None:
        budget = default_budget(golden)
    words = word_inputs(program, inputs)
    writers = _location_writers(program, golden.store_streams)
    warp_of = {
        t: _warp_key(program, t)
        for t in {s.thread_id for s in sites}
        if t < program.total_threads
    }
    per_site = {}
    tallies = {}
    for site in sites:
        key = warp_of.get(site.thread_id)
        if key is None:
            outcome = Outcome(MASKED, "not-executed")
        else:
            run = execute(
                program, words, fault=site, budget=budget, warp_filter=key, record_stores=True
            )
            outcome = _warp_outcome(golden, run, key, writers)
        per_site[site] = outcome
        tally = tallies.setdefault(site.thread_id, [0, 0, 0])
        tally[("masked", "sdc", "other").index(outcome.kind)] += 1
    return CampaignResult(
        per_site=per_site,
        per_thread_counts={t: tuple(v) for t, v in sorted(tallies.items())},
        seed=seed,
        runs=RunCounts(),
    )


def _location_writers(program, streams):
    writers = {name: [()] * size for name, size in program.output_buffers}
    for key, stream in streams.items():
        alone = (key,)
        for buf, addr, _, _ in stream:
            row = writers[buf]
            if not row[addr]:
                row[addr] = alone
            elif row[addr][-1] != key:
                row[addr] += alone
    return writers


def _warp_key(program, thread_id):
    cta = program.cta_of(thread_id)
    return (cta, program.launch_order(cta).index(thread_id) // WARP_SIZE)


def _warp_outcome(golden, run, key, writers):
    if run.termination != COMPLETED:
        return classify_outcome(golden, run)
    stream = run.store_streams.get(key, ())
    touched = {(buf, addr) for buf, addr, _, _ in golden.store_streams.get(key, ())}
    touched.update((buf, addr) for buf, addr, _, _ in stream)
    streams = {w: golden.store_streams[w] for buf, addr in touched for w in writers[buf][addr]}
    streams[key] = stream
    outputs = golden.outputs
    replayed = replay_stores({buf: [0] * len(v) for buf, v in outputs.items()}, streams)
    if all(replayed[buf][addr] == outputs[buf][addr] for buf, addr in touched):
        return Outcome(MASKED, None if run.fault_applied else "not-executed")
    return Outcome(SDC)


def finish_issue_by_issue(run):
    """Finish a ``ThreadRun`` one ``issue`` at a time, as ``execute`` runs
    a warp, instead of through the lone form.  Returns the run, the
    ``(pc, end)`` of its last issue and the message a crash or a hang
    stopped it with (None when it completed)."""
    last = error = None
    try:
        while (coming := run.next_issue()) is not None:
            last = coming
            run.advance()
    except interp._Abort as abort:
        run.termination = abort.kind
        error = abort.message
    return run, last, error


def profile_per_campaign(program, inputs, mode, sample_fraction, seed, campaign):
    """``profile_kernel`` as it was before one campaign served each warp
    and before each warp recorded its own write trace: sites are drawn
    from ``golden_run``'s trace of the whole kernel, and there is one
    ``campaign`` call per iCnt group (pruned) or per thread (exhaustive).
    Its ``runs`` adds up the campaigns' ``runs``."""
    golden = golden_run(program, inputs)
    groups = group_by_icnt(golden)
    budget = default_budget(golden)
    rows = {}
    runs = RunCounts()
    for gid, members in groups.items():
        injected = members[:1] if mode == "pruned" else members
        for t in injected:
            salt = gid if mode == "pruned" else t
            sites = sample_sites(FaultSpace(golden, [t]), sample_fraction, seed=hash_seed(seed, salt))
            result = campaign(program, inputs, sites, budget=budget, golden=golden)
            runs += result.runs
            counts = result.counts(t)
            total = sum(counts)
            if total:
                fractions = tuple(Fraction(c, total) for c in counts)
            else:  # no register write, no site
                fractions = (Fraction(1), Fraction(0), Fraction(0))
            for m in members if mode == "pruned" else [t]:
                rows[m] = ThreadProfile(
                    m,
                    program.cta_of(m),
                    golden.per_thread_icnt[m],
                    gid,
                    *fractions,
                    MEASURED if m == t else EXTRAPOLATED,
                )
    return profile_of_rows(program.name, (rows[t] for t in range(program.total_threads)), runs)


def profile_of_rows(kernel, rows, runs=None):
    """The ``KernelProfile`` whose ``threads`` are ``rows``: ``ThreadProfile``
    rows in thread-id order, laying CTAs out in equal contiguous blocks."""
    rows = tuple(rows)
    assert [t.thread_id for t in rows] == list(range(len(rows)))
    num_ctas = rows[-1].cta_id + 1
    cta_size = len(rows) // num_ctas
    assert [t.cta_id for t in rows] == [t // cta_size for t in range(len(rows))]
    outcome_of, outcomes = outcome_table(((t.masked_pct, t.sdc_pct, t.other_pct) for t in rows), lambda row: row)
    return KernelProfile(
        kernel,
        (num_ctas, cta_size),
        tuple(t.icnt for t in rows),
        tuple(t.group_id for t in rows),
        tuple(t.provenance for t in rows),
        outcome_of,
        outcomes,
        runs=runs,
    )


# ---------------------------------------------------------------------------
# single-step reference interpreter


class _Abort(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        self.message = message


class _WarpCtx:
    __slots__ = ("key", "members", "frags", "waiting")

    def __init__(self, key, members):
        self.key = key
        self.members = members
        self.frags = [[0, (1 << len(members)) - 1]]
        self.waiting = []


def _f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _f32_bits(x: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:
        return 0x7F800000 if x > 0 else 0xFF800000


def _signed(v: int) -> int:
    return v - 0x100000000 if v >= 0x80000000 else v


def _lanes(mask: int) -> tuple[int, ...]:
    return tuple(lane for lane in range(mask.bit_length()) if mask >> lane & 1)


def single_step_execute(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    *,
    fault=None,
    budget: int = DEFAULT_BUDGET,
    cost_table=None,
    warp_filter: tuple[int, int] | None = None,
    record_writes: bool = False,
    record_stores: bool = False,
) -> ExecutionResult:
    """Reference for ``execute`` without fused runs: every issue runs one
    instruction over the active lanes, with the opcode semantics, budget
    check and fault hook written out per opcode."""
    if budget < 1:
        raise ValidationError("instruction budget must be positive")
    if isinstance(inputs, WordInputs):
        validate_inputs(program, inputs)
        in_bufs = inputs
    else:
        in_bufs = word_inputs(program, inputs)
    costs = (cost_table or DEFAULT_COST_TABLE).op_cycles

    out_bufs = {name: [0] * size for name, size in program.output_buffers}

    total = program.total_threads
    icnt = [0] * total
    regs: list[list[int] | None] = [None] * total
    writes: list[list[int]] | None = [[] for _ in range(total)] if record_writes else None

    launched = range(program.num_ctas)
    if warp_filter is not None:
        launched = [warp_filter[0]] if 0 <= warp_filter[0] < program.num_ctas else []
    ctas: list[list[_WarpCtx]] = []
    for cta in launched:
        order = program.launch_order(cta)
        warps = []
        for wid, start in enumerate(range(0, len(order), WARP_SIZE)):
            key = (cta, wid)
            if warp_filter is not None and key != warp_filter:
                continue
            members = order[start : start + WARP_SIZE]
            warps.append(_WarpCtx(key, members))
            for t in members:
                r = [0] * REGISTER_COUNT
                r[TID_REGISTER] = t
                r[CTAID_REGISTER] = cta
                regs[t] = r
        if warps:
            ctas.append(warps)
    if not ctas:
        raise ValidationError(f"warp filter {warp_filter} matches no warp")

    instructions = program.instructions
    per_warp_cycles: dict[tuple[int, int], int] = {}
    per_warp_stores: dict[tuple[int, int], int] = {}
    streams: dict[tuple[int, int], list[tuple[str, int, int, int]]] | None = (
        {} if record_stores else None
    )

    if fault is not None:
        f_thread, f_dyn, f_mask = fault.thread_id, fault.dyn_instr, 1 << fault.bit
    else:
        f_thread, f_dyn, f_mask = -1, -1, 0
    fault_applied = False

    cycles = 0
    termination = COMPLETED
    error = None

    def issue(wp: _WarpCtx) -> None:
        nonlocal cycles, fault_applied
        frags = wp.frags
        best = 0
        for i in range(1, len(frags)):
            if frags[i][0] < frags[best][0]:
                best = i
        pc, mask = frags.pop(best)
        i = 0
        while i < len(frags):  # merge fragments reconverged at this pc
            if frags[i][0] == pc:
                mask |= frags.pop(i)[1]
            else:
                i += 1

        ins = instructions[pc]
        op = ins.opcode
        cost = costs[op]
        cycles += cost
        per_warp_cycles[wp.key] = per_warp_cycles.get(wp.key, 0) + cost

        members = wp.members
        lanes = _lanes(mask)

        if op == "bra":
            if not ins.srcs:
                for li in lanes:
                    t = members[li]
                    n = icnt[t] + 1
                    icnt[t] = n
                    if n > budget:
                        raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                frags.append([ins.target, mask])
            else:
                p = ins.srcs[0]
                taken = 0
                for li in lanes:
                    t = members[li]
                    n = icnt[t] + 1
                    icnt[t] = n
                    if n > budget:
                        raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                    if regs[t][p] != 0:
                        taken |= 1 << li
                fall = mask & ~taken
                if taken:
                    frags.append([ins.target, taken])
                if fall:
                    frags.append([pc + 1, fall])
            return

        if op == "exit":
            for li in lanes:
                t = members[li]
                icnt[t] += 1
            return  # fragment dropped; lanes are done

        if op == "bar":
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
            wp.waiting.append([pc + 1, mask])
            return

        if op == "st":
            buf = out_bufs[ins.buffer]
            size = len(buf)
            a = ins.addr_reg
            s = ins.srcs[0]
            stored = per_warp_stores.get(wp.key, 0)
            stream = None
            if streams is not None:
                stream = streams.setdefault(wp.key, [])
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                addr = r[a]
                if addr >= size:
                    raise _Abort(
                        CRASHED,
                        f"thread {t} stored out of bounds: {ins.buffer}[{addr}] (size {size})",
                    )
                v = r[s]
                buf[addr] = v
                stored += 1
                if stream is not None:
                    stream.append((ins.buffer, addr, v, phase))
            per_warp_stores[wp.key] = stored
            frags.append([pc + 1, mask])
            return

        # register-writing opcodes
        dest = ins.dest
        if op == "ld":
            buf = in_bufs[ins.buffer]
            size = len(buf)
            a = ins.addr_reg
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                addr = r[a]
                if addr >= size:
                    raise _Abort(
                        CRASHED,
                        f"thread {t} loaded out of bounds: {ins.buffer}[{addr}] (size {size})",
                    )
                v = buf[addr]
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "movi":
            imm = ins.imm
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                v = imm
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                regs[t][dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "mov":
            s = ins.srcs[0]
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                v = r[s]
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        if op == "setp":
            a, b = ins.srcs
            cond = ins.cond
            for li in lanes:
                t = members[li]
                n = icnt[t] + 1
                icnt[t] = n
                if n > budget:
                    raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
                r = regs[t]
                x = _signed(r[a])
                y = _signed(r[b])
                if cond == "eq":
                    v = 1 if x == y else 0
                elif cond == "ne":
                    v = 1 if x != y else 0
                elif cond == "lt":
                    v = 1 if x < y else 0
                elif cond == "le":
                    v = 1 if x <= y else 0
                elif cond == "gt":
                    v = 1 if x > y else 0
                else:
                    v = 1 if x >= y else 0
                if n == f_dyn and t == f_thread:
                    v ^= f_mask
                    fault_applied = True
                r[dest] = v
                if writes is not None:
                    writes[t].append(n)
            frags.append([pc + 1, mask])
            return

        # two-source arithmetic
        a, b = ins.srcs
        for li in lanes:
            t = members[li]
            n = icnt[t] + 1
            icnt[t] = n
            if n > budget:
                raise _Abort(HUNG, f"thread {t} exceeded budget {budget}")
            r = regs[t]
            x = r[a]
            y = r[b]
            if op == "iadd":
                v = (x + y) & WORD_MASK
            elif op == "isub":
                v = (x - y) & WORD_MASK
            elif op == "imul":
                v = (x * y) & WORD_MASK
            elif op == "fadd":
                v = _f32_bits(_f32(x) + _f32(y))
            else:  # fmul
                v = _f32_bits(_f32(x) * _f32(y))
            if n == f_dyn and t == f_thread:
                v ^= f_mask
                fault_applied = True
            r[dest] = v
            if writes is not None:
                writes[t].append(n)
        frags.append([pc + 1, mask])

    try:
        for warps in ctas:
            phase = 0  # barrier releases so far in this CTA; read by issue()
            while True:
                ran = False
                for wp in warps:
                    while wp.frags:
                        issue(wp)
                        ran = True
                if ran:
                    continue
                # nothing runnable: every live thread is waiting at a barrier
                released = False
                for wp in warps:
                    if wp.waiting:
                        wp.frags.extend(wp.waiting)
                        wp.waiting.clear()
                        released = True
                if not released:
                    break
                phase += 1
    except _Abort as abort:
        termination = abort.kind
        error = abort.message

    return ExecutionResult(
        outputs=out_bufs,
        per_thread_icnt=icnt,
        cycles=cycles,
        termination=termination,
        fault_applied=fault_applied,
        per_warp_cycles=per_warp_cycles,
        per_warp_stores=per_warp_stores,
        register_writes=[tuple(w) for w in writes] if writes is not None else None,
        store_streams=(
            {k: tuple(v) for k, v in streams.items()} if streams is not None else None
        ),
        error=error,
    )

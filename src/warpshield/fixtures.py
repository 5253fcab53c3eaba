"""Synthetic kernels and declared reliability profiles for characteristic
thread-resilience patterns, at desk scale.

Each fixture bundles an executable kernel, its input buffers, and a profile
whose per-thread SDC fractions realize a documented pattern (all reliable,
all unreliable, an unreliable prefix, or seeded scatter with per-warp quotas).
The seventeen-entry suite reproduces a published benchmark table's reliable
warp/thread percentages exactly at the 5% threshold; geometries were chosen so
the quantities of interest land on exact two-decimal renderings, and each
builder records its construction in ``notes``.  The table holds only these
seventeen; tests build fixtures of their own by passing a spec, a flag and a
class per thread to ``build_fixture``, on the same dispatch kernel.

Kernel construction mirrors the declared profiles: every thread loads a class
id and dispatches to a per-class code path, so equal-class threads share a
dynamic instruction count and no iCnt group mixes classes; equal-iCnt
threads with different resilience are where iCnt pruning stops being exact
(Nie et al., MICRO 2018).  Reliable paths funnel their work through a
multiply-by-zero sink and store a value that every reliable path agrees on,
which keeps nearly all of their fault sites masked; unreliable paths keep a
live dataflow chain into the output.  Path costs are balanced across classes
so warp work stays uniform once warps are pure.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .classify import classify_warps, format_pct, kernel_stats
from .errors import FixtureError
from .ir import KernelProgram, WARP_SIZE, parse_kernel, warps_for
from .profiling import EXTRAPOLATED, MEASURED, KernelProfile, TAU_DEFAULT, outcome_table


class FixtureSpec(NamedTuple):
    name: str
    num_ctas: int
    cta_size: int
    pattern: str  # all_reliable | all_unreliable | prefix_unreliable | scattered
    levels: tuple[Fraction, ...]  # distinct per-class SDC fractions, reliable classes first
    expected: tuple[str, str] | None = None  # (pct reliable warps, pct reliable threads)
    remappable: bool = False
    notes: str = ""

    @property
    def total_threads(self) -> int:
        return self.num_ctas * self.cta_size


class Fixture(NamedTuple):
    spec: FixtureSpec
    program: KernelProgram
    profile: KernelProfile
    inputs: dict[str, list[int]]
    level_of: tuple[int, ...]
    flags: tuple[bool, ...]

    @property
    def name(self) -> str:
        return self.spec.name


# ---------------------------------------------------------------------------
# kernel builders


def _body_shape(length: int, cost: int) -> tuple[int, int]:
    """Split a path body of `length` instructions into 1-cycle and 4-cycle
    units so its total cost matches `cost` (unit counts exclude the five
    fixed instructions every body carries)."""
    units = length - 5
    spare = cost - 8  # fixed body overhead: sink/chain trio (3) + st (4) + exit (1)
    mem = (spare - units) // 3
    arith = units - mem
    if mem < 0 or arith < 0 or arith + 4 * mem != spare:
        raise FixtureError(f"unbalanceable body: length={length} cost={cost}")
    return arith, mem


_PATH_COST = 103  # total per-thread cycle cost of every class path
_BASE_LEN = 65  # body length of class 0; class k adds 3k


def _class_body(level_index: int, reliable: bool) -> list[str]:
    length = _BASE_LEN + 3 * level_index
    cost = _PATH_COST - 8 - 3 * (level_index + 1)  # minus buffer loads and dispatch tests
    arith, mem = _body_shape(length, cost)
    body: list[str] = []
    if reliable:
        body += ["movi r4, 7"] * arith  # dead: r4 is never read
        body += ["ld r4, data[tid]"] * mem
        body += [
            "movi r9, 0",
            "imul r5, r1, r9",  # sink: whatever the chain held is erased
            "iadd r6, r5, tid",
            "st out[tid], r6",
            "exit",
        ]
    else:
        body += [
            f"movi r4, {2 * level_index + 3}",
            "imul r5, r1, r4",
            "iadd r5, r5, tid",
        ]
        body += ["iadd r5, r5, r4"] * arith  # live: every write reaches the store
        body += ["ld r7, data[tid]"] * mem
        body += ["st out[tid], r5", "exit"]
    return body


def _default_tail() -> list[str]:
    # Reached only when a corrupted class id misses every dispatch test;
    # stores the same value every reliable path stores.
    return [
        "movi r9, 0",
        "imul r5, r1, r9",
        "iadd r6, r5, tid",
        "st out[tid], r6",
        "exit",
    ]


def class_path_icnt(level_index: int) -> int:
    """Dynamic instruction count of a thread on the given class path."""
    return 2 + 3 * (level_index + 1) + _BASE_LEN + 3 * level_index


def _dispatch_kernel(name: str, num_ctas: int, cta_size: int, reliable_classes: int, num_classes: int) -> KernelProgram:
    total = num_ctas * cta_size
    lines = [
        f".kernel {name}",
        f".ctas {num_ctas}",
        f".ctasize {cta_size}",
        f".in data {total}",
        f".in cls {total}",
        f".out out {total}",
        "    ld r0, cls[tid]",
        "    ld r1, data[tid]",
    ]
    for j in range(num_classes):
        label = f"T{j}: " if j else "    "
        lines.append(f"{label}movi r2, {j}")
        lines.append("    setp.ne r3, r0, r2")
        lines.append(f"    bra r3, T{j + 1}")
        lines += [f"    {b}" for b in _class_body(j, reliable=j < reliable_classes)]
    lines.append(f"T{num_classes}:")
    lines += [f"    {b}" for b in _default_tail()]
    return parse_kernel("\n".join(lines) + "\n")


def fixture_inputs(program: KernelProgram, level_of: tuple[int, ...], seed: int) -> dict[str, list[int]]:
    rng = random.Random(f"fixture-data:{seed}")
    # Odd data words keep the multiply-by-zero sink exact for every thread.
    return {
        "data": [2 * rng.getrandbits(30) + 1 for _ in range(program.total_threads)],
        "cls": list(level_of),
    }


# ---------------------------------------------------------------------------
# flag / class placement


def _spread(total: int, parts: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """Deterministic partition of `total` into `parts` values within [lo, hi]."""
    if not lo * parts <= total <= hi * parts:
        raise FixtureError(f"cannot spread {total} over {parts} parts in [{lo}, {hi}]")
    vals = [lo] * parts
    remaining = total - lo * parts
    while remaining:
        open_parts = [i for i in range(parts) if vals[i] < hi]
        i = open_parts[rng.randrange(len(open_parts))]
        room = min(hi - vals[i], remaining)
        take = rng.randint(1, room)
        vals[i] += take
        remaining -= take
    return vals


def _scattered_flags(
    num_ctas: int,
    cta_size: int,
    quotas: list[list[int]],
    rng: random.Random,
    front_load: tuple[int, ...] = (),
) -> list[bool]:
    """Per-warp reliable quotas, placed at seeded slots (or packed to the
    warp front for CTAs that must fill the reliable buffer first)."""
    flags = [False] * (num_ctas * cta_size)
    warps = warps_for(num_ctas, cta_size)
    per_cta = {}
    for w in warps:
        per_cta.setdefault(w.cta_id, []).append(w)
    for cta, cta_warps in per_cta.items():
        if len(quotas[cta]) != len(cta_warps):
            raise FixtureError(f"CTA {cta}: {len(quotas[cta])} quotas for {len(cta_warps)} warps")
        for w, quota in zip(cta_warps, quotas[cta]):
            if not 0 <= quota <= len(w.members):
                raise FixtureError(f"CTA {cta} warp {w.warp_id}: quota {quota} out of range")
            if cta in front_load:
                slots = range(quota)
            else:
                slots = rng.sample(range(len(w.members)), quota)
            for s in slots:
                flags[w.members[s]] = True
    return flags


def _assign_levels(
    flags: list[bool],
    reliable_pool: list[int],
    unreliable_pool: list[int],
    rng: random.Random,
) -> list[int]:
    if len(reliable_pool) != sum(flags) or len(unreliable_pool) != len(flags) - sum(flags):
        raise FixtureError(
            f"class pools ({len(reliable_pool)} reliable, {len(unreliable_pool)} unreliable) "
            f"do not match flags ({sum(flags)} reliable of {len(flags)})"
        )
    rel = list(reliable_pool)
    unrel = list(unreliable_pool)
    rng.shuffle(rel)
    rng.shuffle(unrel)
    out = []
    ri = ui = 0
    for f in flags:
        if f:
            out.append(rel[ri])
            ri += 1
        else:
            out.append(unrel[ui])
            ui += 1
    return out


def _pool(counts: dict[int, int]) -> list[int]:
    out = []
    for level, count in sorted(counts.items()):
        out += [level] * count
    return out


# ---------------------------------------------------------------------------
# profile synthesis


def _declared_profile(spec: FixtureSpec, level_of: list[int], icnt_of_level: list[int]) -> KernelProfile:
    order = sorted(range(len(spec.levels)), key=lambda j: (icnt_of_level[j], j))
    group_of_level = {level: gid for gid, level in enumerate(order)}
    group_id = tuple(group_of_level[level] for level in level_of)
    seen_groups: set[int] = set()
    provenance = []
    for gid in group_id:
        provenance.append(EXTRAPOLATED if gid in seen_groups else MEASURED)
        seen_groups.add(gid)
    outcome_of, outcomes = outcome_table(
        level_of, lambda level: (1 - spec.levels[level], spec.levels[level], Fraction(0))
    )
    return KernelProfile(
        kernel=spec.name,
        geometry=(spec.num_ctas, spec.cta_size),
        icnt=tuple(icnt_of_level[level] for level in level_of),
        group_id=group_id,
        provenance=tuple(provenance),
        outcome_of=outcome_of,
        outcomes=outcomes,
    )


def build_fixture(spec: FixtureSpec, flags: list[bool], level_of: list[int], seed: int) -> Fixture:
    """The fixture whose thread t is reliable iff ``flags[t]`` and runs the
    class path ``level_of[t]`` of the dispatch kernel, with the profile that
    declares ``spec.levels[level_of[t]]`` as its SDC fraction."""
    reliable = [sdc <= TAU_DEFAULT for sdc in spec.levels]  # each level's verdict
    reliable_classes = sum(reliable)
    if reliable != sorted(reliable, reverse=True):
        raise FixtureError(f"{spec.name}: reliable classes must precede unreliable ones")
    for tid, level in enumerate(level_of):
        if flags[tid] != reliable[level]:
            raise FixtureError(f"{spec.name}: thread {tid} class contradicts its flag")

    program = _dispatch_kernel(spec.name, spec.num_ctas, spec.cta_size, reliable_classes, len(spec.levels))
    icnt_of_level = [class_path_icnt(j) for j in range(len(spec.levels))]

    profile = _declared_profile(spec, level_of, icnt_of_level)
    if spec.expected is not None:
        stats = kernel_stats(classify_warps(flags, program.warps()), flags, TAU_DEFAULT)
        got = (format_pct(stats.pct_reliable_warps), format_pct(stats.pct_reliable_threads))
        if got != spec.expected:
            raise FixtureError(f"{spec.name}: stats {got} do not match target {spec.expected}")
    return Fixture(
        spec=spec,
        program=program,
        profile=profile,
        inputs=fixture_inputs(program, tuple(level_of), seed),
        level_of=tuple(level_of),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# the seventeen-kernel suite

_F = Fraction


def _jmeint(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    per_cta_reliable = [100] * 15 + [71] * 6 + [70] * 4
    quotas = [_spread(r, 5, 1, 31, rng) for r in per_cta_reliable]
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    level_of = _assign_levels(
        flags, _pool({0: 1606, 1: 600}), _pool({2: 598, 3: 598, 4: 598}), rng
    )
    return build_fixture(spec, flags, level_of, seed)


def _laplacian(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    quotas = [[32, 32, 32, 32, 31, 31, 31, 31], [32, 32, 32, 32] + _spread(117, 4, 0, 31, rng)]
    quotas += [[32, 32, 32, 32, 0, 0, 0, 0] for _ in range(17)]
    quotas += [[32, 32, 32, 0, 0, 0, 0, 0]]
    for q in quotas:
        rng.shuffle(q)
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    level_of = _assign_levels(flags, _pool({0: 2000, 1: 769}), _pool({2: 1200, 3: 1151}), rng)
    return build_fixture(spec, flags, level_of, seed)


def _meanfilter(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    quotas = [[32] * 3 + _spread(93, 16, 0, 31, rng) for _ in range(7)]
    quotas += [[32] * 7 + _spread(s, 12, 0, 31, rng) for s in (50, 50, 51, 51)]
    quotas += [[0] * 19 for _ in range(4)]
    for q in quotas:
        rng.shuffle(q)
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    level_of = _assign_levels(
        flags, _pool({0: 1500, 1: 921}), _pool({2: 2700, 3: 2631, 4: 1368}), rng
    )
    return build_fixture(spec, flags, level_of, seed)


def _conv2d(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    per_cta_reliable = [62] * 4 + [31] * 4 + [20] * 4 + [11] * 4
    quotas = [_spread(r, 8, 0, 31, rng) for r in per_cta_reliable]
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    level_of = _assign_levels(flags, _pool({0: 496}), _pool({1: 1200, 2: 1200, 3: 1200}), rng)
    return build_fixture(spec, flags, level_of, seed)


def _hotspot(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    quotas = [
        [27, 9, 5, 5, 5, 4, 4, 4],  # scattered with an early bias: regroups to first+last warp
        [32, 5, 5, 5, 4, 4, 4, 4],
        [32, 32, 32, 32, 32, 11, 10, 10],
        [32, 32, 32, 31, 31, 30, 30, 30],
        [0] * 8,
        [32, 32, 32, 3, 2, 2, 2, 2],
    ]
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng, front_load=(0,))
    level_of = _assign_levels(flags, _pool({0: 672}), _pool({1: 300, 2: 300, 3: 264}), rng)
    return build_fixture(spec, flags, level_of, seed)


def _gaussian_k2(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    fully_reliable = (1, 4, 7, 10, 13)
    quotas = []
    scatter_bump = 0
    for cta in range(spec.num_ctas):
        if cta in fully_reliable:
            quotas.append([32] * 12)
        elif scatter_bump < 2:  # two CTAs carry one extra scattered thread
            scatter_bump += 1
            quotas.append([32] * 6 + _spread(169, 6, 0, 31, rng))
        elif scatter_bump < 5:
            scatter_bump += 1
            quotas.append([32] * 6 + _spread(168, 6, 0, 31, rng))
        else:
            quotas.append([32] * 5 + _spread(200, 7, 0, 31, rng))
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    # The dominant class sits exactly at a 3.6% SDC fraction; only the five
    # fully reliable CTAs hold zero-SDC threads.
    level_of = []
    for tid, flag in enumerate(flags):
        cta = tid // spec.cta_size
        if not flag:
            level_of.append(2)
        elif cta in fully_reliable:
            level_of.append(0)
        else:
            level_of.append(1)
    return build_fixture(spec, flags, level_of, seed)


def _pathfinder(spec: FixtureSpec, seed: int) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    quotas = [[32, 32] + _spread(32, 6, 0, 31, rng), [32, 32] + _spread(32, 6, 0, 31, rng)]
    quotas += [_spread(28, 8, 0, 31, rng) for _ in range(4)]
    flags = _scattered_flags(spec.num_ctas, spec.cta_size, quotas, rng)
    level_of = _assign_levels(flags, _pool({0: 200, 1: 104}), _pool({2: 700, 3: 532}), rng)
    return build_fixture(spec, flags, level_of, seed)


def _prefix_unreliable(spec: FixtureSpec, seed: int, k: int, rel_counts, unrel_counts) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    flags = [tid >= k for tid in range(spec.total_threads)]
    level_of = _assign_levels(flags, _pool(rel_counts), _pool(unrel_counts), rng)
    return build_fixture(spec, flags, level_of, seed)


def _uniform_class(spec: FixtureSpec, seed: int, counts: dict[int, int], reliable: bool) -> Fixture:
    rng = random.Random(f"{spec.name}:{seed}")
    flags = [reliable] * spec.total_threads
    if reliable:
        level_of = _assign_levels(flags, _pool(counts), [], rng)
    else:
        level_of = _assign_levels(flags, [], _pool(counts), rng)
    return build_fixture(spec, flags, level_of, seed)


_TABLE: dict[str, tuple[FixtureSpec, object]] = {}  # name -> (spec, builder), in table order


def _register(spec: FixtureSpec, builder) -> None:
    _TABLE[spec.name] = (spec, builder)


_register(
    FixtureSpec(
        "jmeint_k1", 25, 160, "scattered",
        (_F(0), _F("0.02"), _F("0.09"), _F("0.13"), _F("0.18")),
        expected=("0.00", "55.15"), remappable=True,
        notes="2206 of 4000 threads reliable, 1-31 per warp so every warp is mixed; "
        "per-CTA reliable counts 15x100 + 6x71 + 4x70 give 65 of 125 pure warps after regrouping.",
    ),
    _jmeint,
)
_register(
    FixtureSpec(
        "laplacian_k1", 20, 256, "scattered",
        (_F(0), _F("0.01"), _F("0.3"), _F("0.75")),
        expected=("49.38", "54.08"), remappable=True,
        notes="79 of 160 warps fully reliable; 241 more reliable threads scattered into two CTAs.",
    ),
    _laplacian,
)
_register(
    FixtureSpec(
        "meanfilter_k1", 15, 608, "scattered",
        (_F(0), _F("0.04"), _F("0.2"), _F("0.55"), _F(1)),
        expected=("17.19", "26.55"), remappable=True,
        notes="49 of 285 warps reliable; 15% of threads sit at a 100% SDC fraction, "
        "so full warp reliability arrives only at a threshold of 1.",
    ),
    _meanfilter,
)
_register(
    FixtureSpec(
        "nn_k1", 4, 256, "all_reliable", (_F(0), _F("0.01")),
        expected=("100.00", "100.00"),
        notes="First layer of the four-kernel neural-network pattern.",
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 896, 1: 128}, True),
)
_register(
    FixtureSpec(
        "nn_k2", 4, 128, "all_reliable", (_F(0), _F("0.01")),
        expected=("100.00", "100.00"),
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 400, 1: 112}, True),
)
_register(
    FixtureSpec(
        "nn_k3", 2, 128, "all_reliable", (_F(0), _F("0.01")),
        expected=("100.00", "100.00"),
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 200, 1: 56}, True),
)
_register(
    FixtureSpec(
        "nn_k4", 1, 96, "all_reliable", (_F(0),),
        expected=("100.00", "100.00"),
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 96}, True),
)
_register(
    FixtureSpec(
        "scp_k1", 8, 256, "all_unreliable",
        (_F("0.42"), _F("0.55"), _F("0.71"), _F("0.88")),
        expected=("0.00", "0.00"),
        notes="Every thread above a 40% SDC fraction.",
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 512, 1: 512, 2: 512, 3: 512}, False),
)
_register(
    FixtureSpec(
        "conv2d_k1", 16, 256, "scattered",
        (_F(0), _F("0.12"), _F("0.4"), _F("0.8")),
        expected=("0.00", "12.11"), remappable=True,
        notes="496 of 4096 threads reliable, at most 31 per warp.",
    ),
    _conv2d,
)
_register(
    FixtureSpec(
        "mvt_k1", 4, 256, "all_unreliable", (_F("0.6382"),),
        expected=("0.00", "0.00"),
        notes="A single class: every thread at a 63.82% SDC fraction.",
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 1024}, False),
)
_register(
    FixtureSpec(
        "gaussian_k1", 1, 512, "prefix_unreliable",
        (_F(0), _F("0.2"), _F("0.5"), _F("0.8")),
        expected=("87.50", "90.62"),
        notes="One CTA of 512 threads; the first 48 are unreliable, so warp 0 is "
        "unreliable, warp 1 mixed, warps 2-15 reliable.",
    ),
    lambda spec, seed: _prefix_unreliable(spec, seed, 48, {0: 464}, {1: 16, 2: 16, 3: 16}),
)
_register(
    FixtureSpec(
        "gaussian_k2", 15, 384, "scattered",
        (_F(0), _F("0.036"), _F("0.6")),
        expected=("63.89", "95.87"), remappable=True,
        notes="Dominant class at exactly 3.6% SDC; 170 of 180 warps become pure "
        "above that threshold (94.44%).",
    ),
    _gaussian_k2,
)
_register(
    FixtureSpec(
        "hotspot_k1", 6, 256, "scattered",
        (_F(0), _F("0.15"), _F("0.35"), _F("0.48")),
        expected=("25.00", "43.75"), remappable=True,
        notes="CTA 0 scatters 63 reliable threads with an early bias so regrouping "
        "gathers them into the first warp and the trailing mixed warp; CTA 4 is "
        "entirely unreliable.",
    ),
    _hotspot,
)
_register(
    FixtureSpec(
        "nearestneighbor_k1", 45, 128, "prefix_unreliable",
        (_F(0), _F("0.3"), _F("0.6")),
        expected=("0.56", "0.57"),
        notes="Only the last 33 of 5760 threads are reliable: the final warp is pure, "
        "its predecessor mixed.",
    ),
    lambda spec, seed: _prefix_unreliable(spec, seed, 5727, {0: 33}, {1: 2864, 2: 2863}),
)
_register(
    FixtureSpec(
        "pathfinder_k1", 6, 256, "scattered",
        (_F(0), _F("0.02"), _F("0.08"), _F("0.15")),
        expected=("8.33", "19.79"), remappable=True,
    ),
    _pathfinder,
)
_register(
    FixtureSpec(
        "srad_k3", 8, 128, "all_reliable", (_F(0),),
        expected=("100.00", "100.00"),
        notes="Eight CTAs, every thread at zero SDC.",
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 1024}, True),
)
_register(
    FixtureSpec(
        "srad_k4", 4, 256, "all_reliable", (_F(0), _F("0.005")),
        expected=("100.00", "100.00"),
    ),
    lambda spec, seed: _uniform_class(spec, seed, {0: 700, 1: 324}, True),
)


def fixture_names() -> list[str]:
    """The suite's fixture names, in benchmark-table order."""
    return list(_TABLE)


def suite_specs() -> list[FixtureSpec]:
    return [spec for spec, _ in _TABLE.values()]


def generate_fixture(name: str, seed: int = 0) -> Fixture:
    """Build a named fixture; deterministic for a given (name, seed)."""
    if name not in _TABLE:
        raise FixtureError(f"unknown fixture {name!r} (try one of {', '.join(_TABLE)})")
    spec, builder = _TABLE[name]
    return builder(spec, seed)


def remappable_suite(seed: int = 0) -> Iterator[Fixture]:
    """The regroup-eligible fixtures, in benchmark-table order, each built
    when the caller asks for it, so that one is held at a time; no other is
    built."""
    return (builder(spec, seed) for spec, builder in _TABLE.values() if spec.remappable)


"""Per-thread resilience profiles with dynamic-instruction-count pruning.

Threads that execute the same number of dynamic instructions are grouped, one
representative per group is injected, and its outcome fractions extrapolate to
the whole group.  Exhaustive mode injects every thread and exists as the
fallback for kernels whose equal-count threads nonetheless behave differently,
so its measured rows may differ within a group.

Fractions are exact rationals derived from outcome counts, so downstream
threshold comparisons are reproducible; files render them as shortest-decimal
strings, which round-trips every terminating decimal exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ArtifactError, ValidationError
from .faults import FaultSpace, default_budget, golden_run, run_campaign, sample_sites
from .interp import DEFAULT_BUDGET, ExecutionResult
from .ir import KernelProgram

TAU_DEFAULT = Fraction(1, 20)  # reliable iff sdc fraction <= 5%

MEASURED = "measured"
EXTRAPOLATED = "extrapolated"

_SUM_TOLERANCE = Fraction(1, 10**9)


def _check_fractions(masked: Fraction, sdc: Fraction, other: Fraction) -> str | None:
    # Profiles repeat a handful of distinct triples across thousands of
    # threads; memoize on the raw integers to keep construction cheap.
    return _check_fraction_ints(
        masked.numerator,
        masked.denominator,
        sdc.numerator,
        sdc.denominator,
        other.numerator,
        other.denominator,
    )


@lru_cache(maxsize=65536)
def _check_fraction_ints(mn, md, sn, sd, on, od) -> str | None:
    triple = (
        ("masked_pct", Fraction(mn, md)),
        ("sdc_pct", Fraction(sn, sd)),
        ("other_pct", Fraction(on, od)),
    )
    for name, v in triple:
        if not 0 <= v <= 1:
            return f"{name}={float(v)} outside [0, 1]"
    total = sum(v for _, v in triple)
    if abs(total - 1) > _SUM_TOLERANCE:
        return f"outcome fractions sum to {float(total):.12f}"
    return None


def to_fraction(value) -> Fraction:
    """Exact rational for a threshold or fraction-valued knob.

    Strings parse as decimals; floats are interpreted as the decimal they
    print as (``0.036`` means 36/1000, not the nearest binary double), which
    keeps boundary comparisons like ``sdc <= 3.6%`` exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse fraction {value!r}") from None
    raise ValidationError(f"cannot convert {type(value).__name__} to a fraction")


@dataclass(frozen=True)
class ThreadProfile:
    thread_id: int
    cta_id: int
    icnt: int
    group_id: int
    masked_pct: Fraction
    sdc_pct: Fraction
    other_pct: Fraction
    provenance: str  # measured | extrapolated

    def __post_init__(self):
        problem = _check_fractions(self.masked_pct, self.sdc_pct, self.other_pct)
        if problem:
            raise ValidationError(f"thread {self.thread_id}: {problem}")
        if self.provenance not in (MEASURED, EXTRAPOLATED):
            raise ValidationError(f"bad provenance {self.provenance!r}")


@dataclass(frozen=True)
class KernelProfile:
    kernel: str
    threads: tuple[ThreadProfile, ...]
    # Downstream classification default; not persisted, excluded from equality.
    tau: Fraction = field(default=TAU_DEFAULT, compare=False)

    def __post_init__(self):
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValidationError("profile must cover thread ids 0..N-1 exactly once, in order")
        # An extrapolated row copies its group's measured representative (the
        # group's lowest-id measured row); measured rows may differ freely.
        measured: dict[int, tuple] = {}
        for t in self.threads:
            if t.provenance == MEASURED:
                measured.setdefault(t.group_id, (t.masked_pct, t.sdc_pct, t.other_pct))
        for t in self.threads:
            if t.provenance == EXTRAPOLATED:
                rep = measured.get(t.group_id)
                if rep is None:
                    raise ValidationError(
                        f"group {t.group_id} has extrapolated rows but no measured row"
                    )
                if rep != (t.masked_pct, t.sdc_pct, t.other_pct):
                    raise ValidationError(
                        f"group {t.group_id} carries conflicting outcome fractions"
                    )

    @property
    def geometry(self) -> tuple[int, int]:
        num_ctas = self.threads[-1].cta_id + 1
        if len(self.threads) % num_ctas:
            raise ValidationError("thread count is not a multiple of the CTA count")
        cta_size = len(self.threads) // num_ctas
        for t in self.threads:
            if t.cta_id != t.thread_id // cta_size:
                raise ValidationError("cta ids are not contiguous equal-size blocks")
        return (num_ctas, cta_size)


def group_by_icnt(golden: ExecutionResult) -> dict[int, list[int]]:
    """Partition threads by exact dynamic instruction count.

    Group ids are assigned in ascending iCnt order, so group 0 is the
    shortest-running cohort.
    """
    buckets: dict[int, list[int]] = {}
    for tid, count in enumerate(golden.per_thread_icnt):
        buckets.setdefault(count, []).append(tid)
    return {gid: buckets[count] for gid, count in enumerate(sorted(buckets))}


def _fractions(counts: tuple[int, int, int]) -> tuple[Fraction, Fraction, Fraction]:
    masked, sdc, other = counts
    total = masked + sdc + other
    if total == 0:
        # A thread with no register-writing instructions offers no fault site.
        return (Fraction(1), Fraction(0), Fraction(0))
    return (Fraction(masked, total), Fraction(sdc, total), Fraction(other, total))


def profile_kernel(
    program: KernelProgram,
    inputs: dict[str, list[int]],
    mode: str = "pruned",
    sample_fraction: float = 1.0,
    seed: int = 0,
    *,
    budget: int = DEFAULT_BUDGET,
    tau: Fraction = TAU_DEFAULT,
) -> KernelProfile:
    """Measure (or extrapolate) every thread's outcome fractions.

    Pruned mode injects only the lowest-id thread of each iCnt group and
    copies its fractions to the group; exhaustive mode injects every thread.
    """
    if mode not in ("pruned", "exhaustive"):
        raise ValidationError(f"unknown profiling mode {mode!r}")
    golden = golden_run(program, inputs, budget)
    groups = group_by_icnt(golden)
    run_budget = default_budget(golden)

    group_of = {}
    for gid, members in groups.items():
        for t in members:
            group_of[t] = gid

    fractions: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    provenance: dict[int, str] = {}
    if mode == "pruned":
        for gid, members in groups.items():
            rep = members[0]
            space = FaultSpace(golden, [rep])
            sites = sample_sites(space, sample_fraction, seed=hash_seed(seed, gid))
            campaign = run_campaign(program, inputs, sites, budget=run_budget, golden=golden)
            shared = _fractions(campaign.counts(rep))
            for t in members:
                fractions[t] = shared
                provenance[t] = MEASURED if t == rep else EXTRAPOLATED
    else:
        for gid, members in groups.items():
            for t in members:
                space = FaultSpace(golden, [t])
                sites = sample_sites(space, sample_fraction, seed=hash_seed(seed, t))
                campaign = run_campaign(program, inputs, sites, budget=run_budget, golden=golden)
                fractions[t] = _fractions(campaign.counts(t))
                provenance[t] = MEASURED

    threads = tuple(
        ThreadProfile(
            thread_id=t,
            cta_id=program.cta_of(t),
            icnt=golden.per_thread_icnt[t],
            group_id=group_of[t],
            masked_pct=fractions[t][0],
            sdc_pct=fractions[t][1],
            other_pct=fractions[t][2],
            provenance=provenance[t],
        )
        for t in range(program.total_threads)
    )
    return KernelProfile(kernel=program.name, threads=threads, tau=tau)


def hash_seed(seed: int, salt) -> int:
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# persistence

PROFILE_HEADER = [
    "kernel",
    "cta_id",
    "thread_id",
    "icnt",
    "group_id",
    "masked_pct",
    "sdc_pct",
    "other_pct",
    "provenance",
]


def profile_to_csv_text(profile: KernelProfile) -> str:
    # Thousands of rows share a handful of fractions: render each value once.
    # The key is its numerator and denominator, because hashing a Fraction
    # costs as much as rendering it.
    rendered: dict[tuple[int, int], str] = {}

    def fmt(x: Fraction) -> str:
        key = (x.numerator, x.denominator)
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = repr(float(x))
        return text

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(PROFILE_HEADER)
    w.writerows(
        [
            profile.kernel,
            t.cta_id,
            t.thread_id,
            t.icnt,
            t.group_id,
            fmt(t.masked_pct),
            fmt(t.sdc_pct),
            fmt(t.other_pct),
            t.provenance,
        ]
        for t in profile.threads
    )
    return out.getvalue()


def save_profile(profile: KernelProfile, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(profile_to_csv_text(profile))


def load_profile(path) -> KernelProfile:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return profile_from_csv_text(fh.read())
    except FileNotFoundError:
        raise ArtifactError(f"missing profile {path} (run profile first)") from None
    except (ValueError, csv.Error, ValidationError) as e:  # undecodable bytes or malformed rows
        raise ArtifactError(f"malformed profile {path}: {e}") from None


def profile_from_csv_text(text: str) -> KernelProfile:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty profile file") from None
    if header != PROFILE_HEADER:
        raise ValidationError(f"unexpected profile header {header}")
    # Thousands of rows share a handful of fraction strings: parse each once.
    # Rows that share a string then share its Fraction, which also makes the
    # group consistency check in KernelProfile an identity comparison.
    parsed: dict[str, Fraction] = {}

    def fraction(text: str) -> Fraction:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = Fraction(text)
        return value

    kernel = None
    rows: dict[int, ThreadProfile] = {}
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) != len(PROFILE_HEADER):
            raise ValidationError(f"profile row {lineno}: expected {len(PROFILE_HEADER)} fields")
        try:
            tid = int(row[2])
            profile_row = ThreadProfile(
                thread_id=tid,
                cta_id=int(row[1]),
                icnt=int(row[3]),
                group_id=int(row[4]),
                masked_pct=fraction(row[5]),
                sdc_pct=fraction(row[6]),
                other_pct=fraction(row[7]),
                provenance=row[8],
            )
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"profile row {lineno}: {e}") from None
        if kernel is None:
            kernel = row[0]
        elif kernel != row[0]:
            raise ValidationError(f"profile row {lineno}: mixed kernel names")
        if tid in rows:
            raise ValidationError(f"profile row {lineno}: duplicate thread id {tid}")
        rows[tid] = profile_row
    if kernel is None:
        raise ValidationError("profile has no rows")
    if sorted(rows) != list(range(len(rows))):
        missing = sorted(set(range(len(rows))) - set(rows))[:5]
        raise ValidationError(f"profile is missing thread ids (first few: {missing})")
    profile = KernelProfile(kernel=kernel, threads=tuple(rows[t] for t in sorted(rows)))
    profile.geometry  # validates the CTA blocking
    return profile


def profile_digest(profile: KernelProfile) -> str:
    """Stable content hash used to bind downstream artifacts to their source profile."""
    return hashlib.sha256(profile_to_csv_text(profile).encode()).hexdigest()

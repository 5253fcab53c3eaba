"""Per-thread resilience profiles with dynamic-instruction-count pruning.

Threads that execute the same number of dynamic instructions are grouped, one
representative per group is injected, and its outcome fractions extrapolate to
the whole group.  Exhaustive mode injects every thread and exists as the
fallback for kernels whose equal-count threads nonetheless behave differently,
so its measured rows may differ within a group.

Fractions are exact rationals derived from outcome counts, so downstream
threshold comparisons are reproducible; files render them as shortest-decimal
strings, which round-trips every terminating decimal exactly.

Thousands of threads share a handful of outcome rows (masked, SDC and other
fractions plus provenance).  Rows are checked once per distinct outcome row
when a :class:`KernelProfile` is built, and loading, rendering and
classification each handle a distinct row once, keyed by the identity of its
objects.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import ArtifactError, ValidationError
from .ir import DEFAULT_BUDGET, KernelProgram

if TYPE_CHECKING:
    from .faults import RunCounts
    from .interp import ExecutionResult

TAU_DEFAULT = Fraction(1, 20)  # reliable iff sdc fraction <= 5%

MEASURED = "measured"
EXTRAPOLATED = "extrapolated"

_SUM_TOLERANCE = Fraction(1, 10**9)


# Decimal exponents beyond those of binary64's nonzero finite values, and
# the largest finite binary64.
_EXP10_RANGE = (-324, 308)
_FLOAT_MAX = Fraction(sys.float_info.max)
_SCIENTIFIC = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing with :class:`ValueError` a value beyond
    binary64's range.

    ``Fraction`` builds a power of ten as large as a decimal's exponent, so
    ``1e999999999`` would take hours: an exponent that puts the leading
    digit beyond binary64's range is refused before the ``Fraction`` is
    built.  What is left costs time bounded by the length of the text, and
    a value past the largest finite float is refused too, since every
    figure is printed as a float.
    """
    m = _SCIENTIFIC.match(text)
    if m is not None:
        whole = m.group(1).replace("_", "")
        digits = whole + (m.group(2) or "").replace("_", "")
        exponent = int(m.group(3).replace("_", ""))
        significant = digits.lstrip("0")
        if significant:  # the exponent of the leading nonzero digit
            exponent += len(whole) - 1 - (len(digits) - len(significant))
        low, high = _EXP10_RANGE
        if not low <= exponent <= high:
            raise ValueError("exponent beyond binary64 range")
    value = Fraction(text)
    if abs(value) > _FLOAT_MAX:
        raise ValueError("value beyond binary64 range")
    return value


def to_fraction(value) -> Fraction:
    """Exact rational for a threshold or fraction-valued knob.

    Strings parse as decimals (see :func:`parse_fraction`); floats are
    interpreted as the decimal they print as (``0.036`` means 36/1000, not
    the nearest binary double), which keeps boundary comparisons like
    ``sdc <= 3.6%`` exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return parse_fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"cannot parse fraction {value!r}: {e}") from None
    raise ValidationError(f"cannot convert {type(value).__name__} to a fraction")


class ThreadProfile(NamedTuple):
    """One thread's row; :class:`KernelProfile` checks it when it is built."""

    thread_id: int
    cta_id: int
    icnt: int
    group_id: int
    masked_pct: Fraction
    sdc_pct: Fraction
    other_pct: Fraction
    provenance: str  # measured | extrapolated


def _check_outcome_row(t: ThreadProfile) -> None:
    fractions = (("masked_pct", t.masked_pct), ("sdc_pct", t.sdc_pct), ("other_pct", t.other_pct))
    for name, v in fractions:
        if not 0 <= v <= 1:
            raise ValidationError(f"thread {t.thread_id}: {name}={float(v)} outside [0, 1]")
    total = t.masked_pct + t.sdc_pct + t.other_pct
    if abs(total - 1) > _SUM_TOLERANCE:
        raise ValidationError(f"thread {t.thread_id}: outcome fractions sum to {float(total):.12f}")
    if t.provenance not in (MEASURED, EXTRAPOLATED):
        raise ValidationError(f"bad provenance {t.provenance!r}")


@dataclass(frozen=True)
class KernelProfile:
    kernel: str
    threads: tuple[ThreadProfile, ...]
    # Downstream classification default; not persisted, excluded from equality.
    tau: Fraction = field(default=TAU_DEFAULT, compare=False)
    # How profile_kernel's campaigns decided their sites; None when loaded.
    runs: RunCounts | None = field(default=None, compare=False)

    def __post_init__(self):
        # Thousands of threads share a handful of outcome rows, and the rows
        # of one file or one campaign share their Fraction objects.  So each
        # distinct (group, outcome row) is checked once, at its first thread,
        # and found by identity: hashing a Fraction costs a pow().
        distinct: dict[tuple, ThreadProfile] = {}
        for t in self.threads:
            key = (t.group_id, id(t.masked_pct), id(t.sdc_pct), id(t.other_pct), t.provenance)
            if key not in distinct:
                distinct[key] = t
        for t in distinct.values():
            _check_outcome_row(t)
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValidationError("profile must cover thread ids 0..N-1 exactly once, in order")
        # An extrapolated row copies its group's measured representative (the
        # group's lowest-id measured row); measured rows may differ freely.
        measured: dict[int, tuple] = {}
        for t in distinct.values():
            if t.provenance == MEASURED:
                measured.setdefault(t.group_id, (t.masked_pct, t.sdc_pct, t.other_pct))
        for t in distinct.values():
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
    Each injected thread's sites are sampled on their own, salted by its
    group (pruned) or thread id (exhaustive), and one campaign per warp
    classifies the sites of all its injected threads, sharing the warp's
    fault-free pass.  The profile's ``runs`` adds up how the campaigns
    decided their sites.
    """
    if mode not in ("pruned", "exhaustive"):
        raise ValidationError(f"unknown profiling mode {mode!r}")
    from .faults import FaultSpace, RunCounts, default_budget, golden_run, run_campaign, sample_sites

    golden = golden_run(program, inputs, budget)
    groups = group_by_icnt(golden)
    run_budget = default_budget(golden)

    group_of = {}
    for gid, members in groups.items():
        for t in members:
            group_of[t] = gid

    if mode == "pruned":
        salts = {members[0]: gid for gid, members in groups.items()}
    else:
        salts = {t: t for t in range(program.total_threads)}
    counts: dict[int, tuple[int, int, int]] = {}
    runs = RunCounts()
    for w in program.warps():
        injected = [t for t in w.members if t in salts]
        if not injected:
            continue
        sites = [
            site
            for t in injected
            for site in sample_sites(FaultSpace(golden, [t]), sample_fraction, seed=hash_seed(seed, salts[t]))
        ]
        campaign = run_campaign(program, inputs, sites, budget=run_budget, golden=golden)
        counts.update((t, campaign.counts(t)) for t in injected)
        runs += campaign.runs

    fractions: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    provenance: dict[int, str] = {}
    if mode == "pruned":
        for members in groups.values():
            rep = members[0]
            shared = _fractions(counts[rep])
            for t in members:
                fractions[t] = shared
                provenance[t] = MEASURED if t == rep else EXTRAPOLATED
    else:
        for t in range(program.total_threads):
            fractions[t] = _fractions(counts[t])
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
    return KernelProfile(kernel=program.name, threads=threads, tau=tau, runs=runs)


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
    # Thousands of rows share a handful of outcome rows: render the tail of
    # each distinct one once, found by the identity of its objects.  The
    # kernel name is the only field the csv module could quote; render it
    # once, in a two-field row as in the file.
    field_text = io.StringIO()
    csv.writer(field_text, lineterminator="\n").writerow([profile.kernel, 0])
    kernel = field_text.getvalue()[: -len(",0\n")]
    tails: dict[tuple, str] = {}
    lines = [",".join(PROFILE_HEADER) + "\n"]
    for t in profile.threads:
        key = (id(t.masked_pct), id(t.sdc_pct), id(t.other_pct), t.provenance)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f"{float(t.masked_pct)!r},{float(t.sdc_pct)!r},{float(t.other_pct)!r},{t.provenance}"
            )
        lines.append(f"{kernel},{t.cta_id},{t.thread_id},{t.icnt},{t.group_id},{tail}\n")
    return "".join(lines)


def save_profile(profile: KernelProfile, path) -> str:
    """Write ``profile.csv`` and return the text written, which
    :func:`text_digest` hashes without rendering it again."""
    text = profile_to_csv_text(profile)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return text


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
    # Thousands of rows share a handful of tails (iCnt, group and outcome
    # row): parse each distinct one once, and each fraction string once.  Rows
    # that share a tail then share its objects, which KernelProfile's checks
    # and every later pass over the profile key on.
    parsed: dict[str, Fraction] = {}

    def fraction(text: str) -> Fraction:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_fraction(text)
        return value

    tails: dict[tuple[str, ...], tuple] = {}
    kernel = None
    rows: dict[int, ThreadProfile] = {}
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) != len(PROFILE_HEADER):
            raise ValidationError(f"profile row {lineno}: expected {len(PROFILE_HEADER)} fields")
        try:
            tid = int(row[2])
            tail_text = (row[3], row[4], row[5], row[6], row[7], row[8])
            tail = tails.get(tail_text)
            if tail is None:
                tail = tails[tail_text] = (
                    int(row[3]),
                    int(row[4]),
                    fraction(row[5]),
                    fraction(row[6]),
                    fraction(row[7]),
                    row[8],
                )
            profile_row = ThreadProfile(tid, int(row[1]), *tail)
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
    order = sorted(rows)
    if order != list(range(len(rows))):
        missing = sorted(set(range(len(rows))) - set(rows))[:5]
        raise ValidationError(f"profile is missing thread ids (first few: {missing})")
    profile = KernelProfile(kernel=kernel, threads=tuple(rows[t] for t in order))
    profile.geometry  # validates the CTA blocking
    return profile


def profile_digest(profile: KernelProfile) -> str:
    """Stable content hash used to bind downstream artifacts to their source profile."""
    return text_digest(profile_to_csv_text(profile))


def text_digest(text: str) -> str:
    """:func:`profile_digest` of the profile that renders as ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()

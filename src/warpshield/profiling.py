"""Per-thread resilience profiles with dynamic-instruction-count pruning.

Threads that execute the same number of dynamic instructions are grouped, one
representative per group is injected, and its outcome fractions extrapolate to
the whole group.  Exhaustive mode injects every thread and exists as the
fallback for kernels whose equal-count threads nonetheless behave differently,
so its measured rows may differ within a group.

Fractions are exact rationals derived from outcome counts, so downstream
threshold comparisons are reproducible; files render them as shortest-decimal
strings, which round-trips every terminating decimal exactly.

A profile is a table of distinct (masked, SDC, other) outcome rows under
per-thread columns of iCnt, group, provenance and an index into the table.
Pruning copies one representative's row to its whole group, so thousands of
threads share a handful of rows.  Each row is checked, rendered to text and
compared with a threshold once, and every thread reaches the result by
indexing.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import ArtifactError, ValidationError
from .ir import DEFAULT_BUDGET, KernelProgram

if TYPE_CHECKING:
    from collections.abc import Callable, Hashable, Iterable, Iterator

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
    """One thread's row of a :class:`KernelProfile`, as ``threads`` shows it."""

    thread_id: int
    cta_id: int
    icnt: int
    group_id: int
    masked_pct: Fraction
    sdc_pct: Fraction
    other_pct: Fraction
    provenance: str  # measured | extrapolated


OutcomeRow = tuple[Fraction, Fraction, Fraction]  # (masked, sdc, other) fractions


class KernelProfile:
    """Every thread's outcome fractions, as per-thread columns over a table
    of distinct outcome rows.

    The columns are indexed by thread id, and thread ``t`` lies in CTA
    ``t // cta_size``.  ``outcome_of[t]`` indexes ``outcomes``, whose rows
    are distinct by value and in order of first use (see
    :func:`outcome_table`), so two profiles are equal exactly when every
    thread has the same row.  ``threads`` shows one :class:`ThreadProfile`
    per thread, for readers outside the package.
    """

    __slots__ = (
        "kernel",
        "geometry",  # (num_ctas, cta_size)
        "icnt",
        "group_id",
        "provenance",  # measured | extrapolated
        "outcome_of",
        "outcomes",
        # How profile_kernel's campaigns decided their sites; None when loaded.
        "runs",
        "_threads",  # the ``threads`` view, made on first use
    )
    tau = TAU_DEFAULT  # the downstream classification default; not persisted

    def __init__(
        self,
        kernel: str,
        geometry: tuple[int, int],
        icnt: tuple[int, ...],
        group_id: tuple[int, ...],
        provenance: tuple[str, ...],
        outcome_of: tuple[int, ...],
        outcomes: tuple[OutcomeRow, ...],
        runs: RunCounts | None = None,
    ):
        values = (kernel, geometry, icnt, group_id, provenance, outcome_of, outcomes, runs, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

        num_ctas, cta_size = self.geometry
        n = num_ctas * cta_size
        if num_ctas < 1 or cta_size < 1:
            raise ValidationError(f"geometry {self.geometry} holds no thread")
        if any(len(c) != n for c in (self.icnt, self.group_id, self.provenance, self.outcome_of)):
            raise ValidationError(f"profile columns must hold {n} threads ({num_ctas} CTAs of {cta_size})")
        rows = range(len(self.outcomes))
        if list(dict.fromkeys(self.outcome_of)) != list(rows) or len(set(self.outcomes)) != len(rows):
            raise ValidationError("outcome table rows must be distinct and indexed in order of first use")
        for r, fractions in zip(rows, self.outcomes):  # named by the first thread with the row
            for name, v in zip(("masked_pct", "sdc_pct", "other_pct"), fractions):
                if not 0 <= v <= 1:
                    tid = self.outcome_of.index(r)
                    raise ValidationError(f"thread {tid}: {name}={float(v)} outside [0, 1]")
            total = sum(fractions)
            if abs(total - 1) > _SUM_TOLERANCE:
                tid = self.outcome_of.index(r)
                raise ValidationError(f"thread {tid}: outcome fractions sum to {float(total):.12f}")
        for p in dict.fromkeys(self.provenance):
            if p not in (MEASURED, EXTRAPOLATED):
                raise ValidationError(f"bad provenance {p!r}")
        # An extrapolated row copies its group's measured representative (the
        # group's lowest-id measured row); measured rows may differ freely.
        distinct = dict.fromkeys(zip(self.group_id, self.provenance, self.outcome_of))
        measured: dict[int, int] = {}
        for gid, p, r in distinct:
            if p == MEASURED:
                measured.setdefault(gid, r)
        for gid, p, r in distinct:
            if p == EXTRAPOLATED:
                rep = measured.get(gid)
                if rep is None:
                    raise ValidationError(f"group {gid} has extrapolated rows but no measured row")
                if rep != r:
                    raise ValidationError(f"group {gid} carries conflicting outcome fractions")

    def _key(self) -> tuple:
        return (self.kernel, self.geometry, self.icnt, self.group_id, self.provenance, self.outcome_of, self.outcomes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])  # not _threads
        return f"KernelProfile({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def threads(self) -> tuple[ThreadProfile, ...]:
        if self._threads is None:
            cta_size = self.geometry[1]
            columns = zip(self.icnt, self.group_id, self.outcome_of, self.provenance)
            threads = tuple(
                ThreadProfile(t, t // cta_size, icnt, gid, *self.outcomes[r], p)
                for t, (icnt, gid, r, p) in enumerate(columns)
            )
            object.__setattr__(self, "_threads", threads)
        return self._threads


def outcome_table(
    keys: Iterable[Hashable], row_of: Callable[[Hashable], OutcomeRow]
) -> tuple[tuple[int, ...], tuple[OutcomeRow, ...]]:
    """``(outcome_of, outcomes)`` for threads described by ``keys``, one per
    thread in id order: ``row_of`` is called once per distinct key, rows
    equal by value share one table entry, and entries are in order of first
    use, as :class:`KernelProfile` requires."""
    index_of_key: dict[Hashable, int] = {}
    index_of_row: dict[OutcomeRow, int] = {}
    outcome_of = []
    for key in keys:
        r = index_of_key.get(key)
        if r is None:
            r = index_of_key[key] = index_of_row.setdefault(row_of(key), len(index_of_row))
        outcome_of.append(r)
    return tuple(outcome_of), tuple(index_of_row)


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
) -> KernelProfile:
    """Measure (or extrapolate) every thread's outcome fractions.

    Pruned mode injects only the lowest-id thread of each iCnt group and
    copies its fractions to the group; exhaustive mode injects every thread.
    Each injected thread's sites are sampled on their own, salted by its
    group (pruned) or thread id (exhaustive), and one campaign per warp
    classifies the sites of all its injected threads, sharing the warp's
    fault-free pass.  The profile's ``runs`` adds up how the campaigns
    decided their sites.

    The kernel's fault-free run records outputs, iCnts, cycles and store
    streams, not the write trace that sites are drawn from: each warp that
    holds injected threads records its members' trace in a run of its own,
    ``execute(..., warp_filter=key, record_writes=True)``, which writes the
    same registers as the full run.  So no run holds the kernel's trace,
    and these runs are not campaign runs: ``runs`` does not count them.
    The inputs are masked once, for every run.
    """
    if mode not in ("pruned", "exhaustive"):
        raise ValidationError(f"unknown profiling mode {mode!r}")
    from .faults import FaultSpace, RunCounts, default_budget, golden_run, run_campaign, sample_sites
    from .interp import execute, word_inputs

    words = word_inputs(program, inputs)
    golden = golden_run(program, words, budget, record_writes=False)
    groups = group_by_icnt(golden)
    run_budget = default_budget(golden)

    n = program.total_threads
    group_id = [0] * n
    for gid, members in groups.items():
        for t in members:
            group_id[t] = gid
    # source[t]: the injected thread whose fractions thread t takes
    if mode == "pruned":
        salts = {members[0]: gid for gid, members in groups.items()}
        source = [groups[gid][0] for gid in group_id]
    else:
        salts = {t: t for t in range(n)}
        source = range(n)
    counts: dict[int, tuple[int, int, int]] = {}
    runs = RunCounts()
    for w in program.warps():
        injected = [t for t in w.members if t in salts]
        if not injected:
            continue
        trace = execute(program, words, budget=budget, warp_filter=(w.cta_id, w.warp_id), record_writes=True)
        sites = [
            site
            for t in injected
            for site in sample_sites(FaultSpace(trace, [t]), sample_fraction, seed=hash_seed(seed, salts[t]))
        ]
        campaign = run_campaign(program, words, sites, budget=run_budget, golden=golden)
        counts.update((t, campaign.counts(t)) for t in injected)
        runs += campaign.runs

    outcome_of, outcomes = outcome_table((counts[s] for s in source), _fractions)
    return KernelProfile(
        kernel=program.name,
        geometry=program.geometry,
        icnt=tuple(golden.per_thread_icnt),
        group_id=tuple(group_id),
        provenance=tuple(MEASURED if s == t else EXTRAPOLATED for t, s in enumerate(source)),
        outcome_of=outcome_of,
        outcomes=outcomes,
        runs=runs,
    )


def hash_seed(seed: int, salt) -> int:
    # The interpreter's own SHA-256, so no command maps OpenSSL (see _sha256).
    digest = _sha256()(f"{seed}:{salt}".encode()).digest()
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
    # The kernel name is the only field the csv module could quote; render
    # it once, in a two-field row as in the file.  The module quotes a field
    # for the line-break characters of its terminator only, and a reader ends
    # a line at either, so the row is rendered with both.
    field_text = io.StringIO()
    csv.writer(field_text, lineterminator="\r\n").writerow([profile.kernel, 0])
    kernel = field_text.getvalue()[: -len(",0\r\n")]
    fractions = [f"{float(m)!r},{float(s)!r},{float(o)!r}" for m, s, o in profile.outcomes]
    cta_size = profile.geometry[1]
    lines = [",".join(PROFILE_HEADER) + "\n"]
    columns = zip(profile.icnt, profile.group_id, profile.outcome_of, profile.provenance)
    for t, (icnt, gid, r, p) in enumerate(columns):
        lines.append(f"{kernel},{t // cta_size},{t},{icnt},{gid},{fractions[r]},{p}\n")
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


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its line feed, as ``io.StringIO``
    reads them, without the copy of four bytes per character it holds."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def profile_from_csv_text(text: str) -> KernelProfile:
    """The profile a ``profile.csv`` holds; its rows may come in any order.

    Lines are read from ``text`` itself, and each row goes straight into
    per-thread columns indexed by its thread id, sized by the file's line
    count: no row outlives its line but its CTA id and an index into the
    distinct (iCnt, group, outcome, provenance) tails.  A thread id below 0
    or not below that count is refused before anything is indexed by it.
    """
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty profile file") from None
    if header != PROFILE_HEADER:
        raise ValidationError(f"unexpected profile header {header}")
    # Thousands of rows share a handful of tails (iCnt, group, outcome row and
    # provenance): parse each distinct one once, and each fraction string once.
    parsed: dict[str, Fraction] = {}

    def fraction(text: str) -> Fraction:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_fraction(text)
        return value

    tail_index: dict[tuple[str, ...], int] = {}
    tails: list[tuple] = []
    kernel = None
    # Rows never outnumber line feeds: the header's line ends in one, and so
    # does every row's line but perhaps the last.
    size = text.count("\n")
    ctas: list[int | None] = [None] * size  # by thread id
    tail_of: list[int | None] = [None] * size  # by thread id: index into tails
    n = 0  # rows read
    for lineno, row in enumerate(reader, 2):
        if not row:
            continue
        if len(row) != len(PROFILE_HEADER):
            raise ValidationError(f"profile row {lineno}: expected {len(PROFILE_HEADER)} fields")
        try:
            tid = int(row[2])
            tail_text = (row[3], row[4], row[5], row[6], row[7], row[8])
            tail = tail_index.get(tail_text)
            if tail is None:
                icnt, gid = int(row[3]), int(row[4])
                outcome = (fraction(row[5]), fraction(row[6]), fraction(row[7]))
                tail = tail_index[tail_text] = len(tails)
                tails.append((icnt, gid, row[8], outcome))
            cta = int(row[1])
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"profile row {lineno}: {e}") from None
        if kernel is None:
            kernel = row[0]
        elif kernel != row[0]:
            raise ValidationError(f"profile row {lineno}: mixed kernel names")
        if not 0 <= tid < size:
            raise ValidationError(f"profile row {lineno}: thread id {tid} is negative or not below the row count")
        if tail_of[tid] is not None:
            raise ValidationError(f"profile row {lineno}: duplicate thread id {tid}")
        ctas[tid], tail_of[tid] = cta, tail
        n += 1
    if kernel is None:
        raise ValidationError("profile has no rows")
    missing = [t for t in range(n) if tail_of[t] is None]  # n distinct ids are 0..n-1 or miss one
    if missing:
        raise ValidationError(f"profile is missing thread ids (first few: {missing[:5]})")
    del ctas[n:], tail_of[n:]
    num_ctas = max(ctas[-1] + 1, 1)
    if n % num_ctas:
        raise ValidationError("thread count is not a multiple of the CTA count")
    cta_size = n // num_ctas
    if any(cta != t // cta_size for t, cta in enumerate(ctas)):
        raise ValidationError("cta ids are not contiguous equal-size blocks")
    icnt, group_id, provenance, _ = zip(*(tails[i] for i in tail_of))
    outcome_of, outcomes = outcome_table(tail_of, lambda i: tails[i][3])
    return KernelProfile(kernel, (num_ctas, cta_size), icnt, group_id, provenance, outcome_of, outcomes)


def profile_digest(profile: KernelProfile) -> str:
    """Hex SHA-256 of the profile's ``profile.csv`` text, which binds
    downstream artifacts to their source profile."""
    return text_digest(profile_to_csv_text(profile))


def text_digest(text: str) -> str:
    """:func:`profile_digest` of the profile that renders as ``text``: the
    hex SHA-256 of its UTF-8 bytes, computed by :func:`_sha256`'s
    constructor."""
    return _sha256()(text.encode()).hexdigest()


@cache
def _sha256():
    """CPython's built-in SHA-256 constructor (``_sha2`` from 3.12,
    ``_sha256`` before), or ``hashlib.sha256`` on a build with neither.

    ``hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto: about
    3.5 MB of peak RSS and 3-4 ms of start-up for every command that hashes,
    which is most of them, since plans and protection runs are bound to
    their profile's digest.  ``random`` skips ``hashlib`` the same way.
    The built-in module is slower per byte: ``meanfilter_k1``'s 0.47 MB
    profile hashes in about 2.5 ms against OpenSSL's 0.4 ms, still less
    than the import it saves, and a profile of 2^20 threads (about 55 MB)
    would take about 0.3 s.  The digests are the same bytes either way.
    Resolved once per process: a failed import searches ``sys.path`` every
    time it is tried.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256

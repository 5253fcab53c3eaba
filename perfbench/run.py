"""Benchmark of the warpshield pipeline, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload campaign_wide --seed 0 --seconds 20 --trace 0

``--trace 0`` drives the workload through the ``warpshield`` CLI exactly as a
user would, one command at a time (a closed loop with one client), repeating
whole passes until ``--seconds`` of command time have been measured, and
prints the end-to-end metrics.  Those times are host-normalised: the
benchmark pins itself and its commands to one CPU, stops a running command
every ``SLICE_S`` to time a fixed pure-Python calibration sample there, and
scales each slice by ``CAL_REF_S`` over the samples beside it, so that a
shared host slowing down or speeding up moves the samples and the command
alike and cancels out.  ``--trace 1`` runs one CLI pass, then repeats the
pass in-process by calling the layers' public functions, once without and
once with spans around each call, then times single-layer probes, and prints
the per-layer metrics.  Every run checks the program's outputs; each failed
command or check counts as a failed operation.  The last line of standard
output is the JSON result; see perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "warpshield" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'warpshield'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from warpshield import fixtures as fx  # noqa: E402
from warpshield.classify import classify_threads, classify_warps, kernel_stats  # noqa: E402
from warpshield.costs import REFERENCE_FIGURES, account  # noqa: E402
from warpshield.faults import (  # noqa: E402
    default_budget,
    enumerate_fault_space,
    golden_run,
    run_campaign,
    sample_sites,
)
from warpshield.interp import execute  # noqa: E402
from warpshield.ir import parse_kernel, program_to_source, warps_for  # noqa: E402
from warpshield.profiling import (  # noqa: E402
    group_by_icnt,
    hash_seed,
    load_profile,
    profile_digest,
    save_profile,
)
from warpshield.protect import build_protection_plan, run_protected  # noqa: E402
from warpshield.remap import apply_plan, build_plan, load_plan, remapped_stats  # noqa: E402

from tracing import Tracer  # noqa: E402

TAU = Fraction(1, 20)
WARP = 32
LAYERS = ("ir", "fixtures", "interp", "faults", "profiling", "classify", "remap", "protect", "costs")
COMMANDS = ("profile", "classify", "remap", "protect", "report", "suite")
OUTCOMES = ("faults.sites", "faults.masked", "faults.sdc", "faults.crashed", "faults.hung", "faults.not_executed")
LOOP_KERNEL = HERE / "loop_barrier.wir"
PROBE_PROFILE_FIXTURE = "meanfilter_k1"  # the largest declared profile: 9120 rows


@dataclass(frozen=True)
class Size:
    name: str
    wide_sample: float  # jmeint_k1: 62 of 12320 pruned sites
    loop_sample: float  # loop_barrier: 692 of 13824 pruned sites
    pipeline_fixtures: int | None  # None: all remappable fixtures, else the n smallest
    min_passes: int
    min_setups: int  # untraced runs time at least this many set-ups
    probe_reps: int


FULL = Size("full", 0.005, 0.05, None, 1, 5, 5)
TINY = Size("tiny", 0.0005, 0.003, 2, 1, 1, 1)

# Host-normalised times are reported in seconds of a host on which one
# calibration sample takes this long.
CAL_REF_S = 0.0125
SLICE_S = 0.5  # a running command is stopped this often for a calibration sample


# ---------------------------------------------------------------------------
# running commands and counting operations


@dataclass
class Command:
    name: str
    seconds: float
    rss_mb: float | None  # None: the child did not report it
    code: int
    output: str
    norm_s: float  # host-normalised seconds
    elapsed: float  # seconds in run_process, calibration samples included


def _env() -> dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_process(name: str, target: list) -> Command:
    """Run ``python3 <target...>`` to completion on the benchmark's CPU; time
    it and read its peak RSS.

    The child runs in slices of SLICE_S.  After each it is stopped while a
    calibration sample is timed on the same CPU, then continued; each slice's
    seconds are scaled by the samples on either side of it.  It runs under
    peak_rss.py, which reports the child's own peak RSS through a pipe."""
    start = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    seconds = norm_s = 0.0
    peak_r, peak_w = os.pipe()
    with tempfile.TemporaryFile(dir=OUT) as log, open(peak_r, "rb") as peak:
        before = calibration_s()
        try:
            proc = subprocess.Popen(
                [sys.executable, HERE / "peak_rss.py", str(peak_w), *(str(a) for a in target)],
                cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT, pass_fds=(peak_w,),
            )
        finally:
            os.close(peak_w)
        exited = os.pidfd_open(proc.pid)
        try:
            while proc.returncode is None:
                slice_start = time.perf_counter()
                if not select.select([exited], [], [], SLICE_S)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status = os.waitpid(proc.pid, os.WUNTRACED)  # a stop, or the exit that reaps it
                spent = time.perf_counter() - slice_start
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                after = calibration_s()
                seconds += spent
                norm_s += normalised(spent, before, after)
                before = after
                if proc.returncode is None:
                    os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(exited)
            if proc.returncode is None:  # interrupted: SIGKILL ends the child, stopped or not
                proc.kill()
                proc.wait()
        log.seek(0)
        output = log.read().decode(errors="replace").strip()
        peak_kb = peak.read().decode()
    elapsed = time.perf_counter() - start
    rss_mb = int(peak_kb) / 1024 if peak_kb.isdigit() else None
    return Command(name, seconds, rss_mb, proc.returncode, output, norm_s, elapsed)


def cli(*args) -> Command:
    return run_process(str(args[0]), ["-m", "warpshield.cli", *args])


class Checks:
    """Counts operations (CLI commands and output checks) and records failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.commands: list[Command] = []

    def command(self, cmd: Command) -> Command:
        self.attempted += 1
        self.commands.append(cmd)
        if cmd.code != 0:
            self.failures.append(f"{cmd.name} exited {cmd.code}: {cmd.output[-300:]}")
        elif cmd.rss_mb is None:
            self.failures.append(f"{cmd.name} did not report its peak RSS")
        return cmd

    def attempt(self, what: str, fn, *args):
        """Run one operation and return its result; an exception is its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:  # a malformed artifact fails the operation, not the benchmark
            self.failures.append(f"{what} ({type(err).__name__}: {err})")
            return None

    def check(self, what: str, fn, *args) -> None:
        """Run one output check; an exception or a false result is one failure."""
        if self.attempt(what, fn, *args) is False:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# simulated statistics shared by the checks and the digest


def exact(x: Fraction) -> Fraction:
    """The small-denominator rational a profile fraction was rendered from."""
    return Fraction(x).limit_denominator(1 << 20)


def thread_fractions(profile) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [(exact(t.masked_pct), exact(t.sdc_pct), exact(t.other_pct)) for t in profile.threads]


def flags_of(profile) -> list[bool]:
    return [sdc <= TAU for _, sdc, _ in thread_fractions(profile)]


def reliable_warp_shares(flags: list[bool], num_ctas: int, cta_size: int) -> tuple[Fraction, Fraction]:
    """Reliable-warp share before and after per-CTA regrouping, computed from
    the flags alone: regrouping packs each CTA's reliable threads into full
    warps first, then its unreliable ones, and leaves the remainders together."""
    before = after = warps = 0
    for cta in range(num_ctas):
        cta_flags = flags[cta * cta_size : (cta + 1) * cta_size]
        chunks = [cta_flags[i : i + WARP] for i in range(0, cta_size, WARP)]
        warps += len(chunks)
        before += sum(all(c) for c in chunks)
        reliable = sum(cta_flags)
        unreliable = cta_size - reliable
        tail = [True] * (reliable % WARP) + [False] * (unreliable % WARP)
        after += reliable // WARP + sum(all(tail[i : i + WARP]) for i in range(0, len(tail), WARP))
    return Fraction(before, warps), Fraction(after, warps)


def sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def code_sha() -> str:
    """Hash of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "warpshield").rglob("*.py"), *HERE.glob("*.py"), *HERE.glob("*.wir")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def calibration_s() -> float:
    """Time one fixed pure-Python sample: integer arithmetic, dict stores and
    list churn on a few kilobytes that stay in the CPU's first-level cache.
    A command run just before it cannot leave it a colder cache, and it calls
    nothing in warpshield, so a change to the program cannot move it; a
    neighbour that slows the CPU slows it and the program alike."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
        items.append(acc >> 3)
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - start


def calibrate_ms() -> float:
    """Median of a few calibration samples, recorded at the start and end of a run."""
    return statistics.median(calibration_s() for _ in range(5)) * 1000


def normalised(seconds: float, before: float, after: float) -> float:
    return seconds * CAL_REF_S / ((before + after) / 2)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One set of inputs: staging, the CLI pass, its checks and its in-process twin."""

    name = ""

    def __init__(self, seed: int, size: Size, work: Path):
        self.seed = seed
        self.size = size
        self.work = work

    def setup(self, checks: Checks) -> None:
        raise NotImplementedError

    def steps(self) -> list[tuple[list, object]]:
        """CLI argument lists, each with an optional untimed follow-up."""
        raise NotImplementedError

    def results(self, checks: Checks) -> dict:
        """Check the pass's artifacts; return the simulated statistics they hold."""
        raise NotImplementedError

    def inprocess(self, tr: Tracer) -> dict:
        raise NotImplementedError

    def check_inprocess(self, data: dict, baseline: dict, checks: Checks) -> dict:
        """Check the traced in-process pass against the untraced one and the
        CLI artifacts; return its counters."""
        raise NotImplementedError

    probe_fixture = PROBE_PROFILE_FIXTURE

    def probe_kernel(self):
        """(program, source text, inputs, fixture builder or None) for the layer probes."""
        build = lambda: fx.generate_fixture(self.probe_fixture, self.seed)  # noqa: E731
        fixture = build()
        return fixture.program, program_to_source(fixture.program), fixture.inputs, build


class Campaign(Workload):
    """Pruned, sampled profile of one kernel, then classify and remap."""

    sample = 0.0

    def source_args(self) -> list:
        raise NotImplementedError

    def load(self, tr: Tracer):
        raise NotImplementedError

    @property
    def run_dir(self) -> Path:
        return self.work / "run"

    def steps(self):
        out = self.run_dir
        common = ["--seed", self.seed, "--out", out]
        return [
            (["profile", *self.source_args(), "--profile-mode", "pruned", "--sample", self.sample, *common], None),
            (["classify", *common], None),
            (["remap", *common], None),
        ]

    def results(self, checks: Checks) -> dict:
        out = self.run_dir
        profile = load_profile(out / "profile.csv")
        num_ctas, cta_size = profile.geometry
        fractions = thread_fractions(profile)
        before, after = reliable_warp_shares([sdc <= TAU for _, sdc, _ in fractions], num_ctas, cta_size)
        stats = _read_json(out / "stats.json")
        remapped = _read_json(out / "stats_remapped.json")
        checks.check(
            "stats.json reliable-warp share matches the profile",
            lambda: stats["pct_reliable_warps"] == float(before * 100),
        )
        checks.check(
            "stats_remapped.json reliable-warp share matches regrouping of the profile",
            lambda: remapped["pct_reliable_warps"] == float(after * 100),
        )
        checks.check("plan.json permutes each CTA's threads", _plan_is_permutation, out / "plan.json", num_ctas, cta_size)
        groups = {}
        for t, fr in zip(profile.threads, fractions):
            groups.setdefault(t.group_id, [t.icnt, *(str(f) for f in fr)])
        return {
            "kernel": profile.kernel,
            "thread_fractions": sha(fractions),
            "groups": [groups[g] for g in sorted(groups)],
            "reliable_warps_before": str(before),
            "reliable_warps_after": str(after),
        }

    def inprocess(self, tr: Tracer) -> dict:
        with tr.span("step.profile"):
            program, inputs = self.load(tr)
            golden = tr.call("faults.golden_run", golden_run, program, inputs)
            groups = tr.call("profiling.group_by_icnt", group_by_icnt, golden)
            budget = tr.call("faults.default_budget", default_budget, golden)
            sites = []
            for gid, members in groups.items():
                space = tr.call(
                    "faults.enumerate_fault_space", enumerate_fault_space, program, inputs, [members[0]], golden=golden
                )
                site_seed = tr.call("profiling.hash_seed", hash_seed, self.seed, gid)
                for site in tr.call("faults.sample_sites", sample_sites, space, self.sample, seed=site_seed):
                    start = time.perf_counter()
                    result = tr.call(
                        "faults.run_campaign", run_campaign, program, inputs, [site], budget=budget, golden=golden
                    )
                    sites.append((site, result.per_site[site], time.perf_counter() - start))
        with tr.span("step.classify"):
            profile = tr.call("profiling.load_profile", load_profile, self.run_dir / "profile.csv")
            _classify(tr, profile)
        with tr.span("step.remap"):
            profile = tr.call("profiling.load_profile", load_profile, self.run_dir / "profile.csv")
            _remap(tr, profile)
        return {"program": program, "golden": golden, "groups": groups, "sites": sites}

    def check_inprocess(self, data: dict, baseline: dict, checks: Checks) -> dict:
        program, golden, sites = data["program"], data["golden"], data["sites"]
        counts = dict.fromkeys(("masked", "sdc", "crashed", "hung", "not_executed"), 0)
        per_thread: dict[int, list[int]] = {}
        for site, outcome, _ in sites:
            counts[(outcome.detail or outcome.kind).replace("-", "_")] += 1
            tally = per_thread.setdefault(site.thread_id, [0, 0, 0])
            tally[0 if outcome.kind == "masked" else 1 if outcome.kind == "sdc" else 2] += 1
        checks.check(
            "traced and untraced in-process passes give every site the same outcome",
            lambda: [s[:2] for s in sites] == [s[:2] for s in baseline["sites"]],
        )
        # Both passes time the same single-site calls: twice the samples for the percentiles.
        timed = sites + baseline["sites"]
        site_ms = sorted(seconds * 1000 for _, _, seconds in timed)
        hung_s = sum(seconds for _, outcome, seconds in timed if outcome.detail == "hung")
        fractions = thread_fractions(load_profile(self.run_dir / "profile.csv"))

        def counts_match() -> bool:
            reps = [members[0] for members in data["groups"].values()]
            return sorted(per_thread) == sorted(reps) and all(
                tuple(Fraction(c, sum(per_thread[t])) for c in per_thread[t]) == fractions[t] for t in reps
            )

        checks.check("traced per-site outcome counts equal the campaign's counts", counts_match)
        icnt = golden.per_thread_icnt
        total = sum(icnt)
        warp_icnt = {t: sum(icnt[m] for m in w.members) for w in program.warps() for t in w.members}
        space = sum(len(w) for w in golden.register_writes) * 32
        return {
            "faults.sites": len(sites),
            **{f"faults.{k}": v for k, v in counts.items()},
            "faults.site_samples": len(site_ms),
            "faults.site_ms_p50": statistics.median(site_ms),
            "faults.site_ms_p90": statistics.quantiles(site_ms, n=10)[-1] if len(site_ms) > 1 else site_ms[0],
            "faults.off_warp_share": statistics.fmean((total - warp_icnt[s.thread_id]) / total for s, _, _ in sites),
            "faults.hung_time_share": hung_s / (sum(site_ms) / 1000),
            "profiling.groups": len(data["groups"]),
            "profiling.pruned_share": len(sites) / space,
        }


class CampaignWide(Campaign):
    """jmeint_k1: 4000 threads in 125 warps of straight-line code."""

    name = "campaign_wide"
    fixture = probe_fixture = "jmeint_k1"

    @property
    def sample(self):
        return self.size.wide_sample

    def setup(self, checks):
        checks.command(cli("emit", "--fixture", self.fixture, "--seed", self.seed, "--out", self.work / "declared"))

    def source_args(self):
        return ["--fixture", self.fixture]

    def load(self, tr):
        fixture = tr.call("fixtures.generate_fixture", fx.generate_fixture, self.fixture, self.seed)
        return fixture.program, fixture.inputs

    def results(self, checks):
        stats = super().results(checks)
        declared = flags_of(load_profile(self.work / "declared" / f"{self.fixture}_profile.csv"))
        measured = flags_of(load_profile(self.run_dir / "profile.csv"))
        stats["class_mismatch_share"] = str(Fraction(sum(a != b for a, b in zip(declared, measured)), len(declared)))
        return stats



class CampaignLoop(Campaign):
    """loop_barrier.wir: 2 CTAs x 128 threads with loops, divergence and a barrier."""

    name = "campaign_loop"

    @property
    def sample(self):
        return self.size.loop_sample

    def setup(self, checks):
        self.work.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(LOOP_KERNEL, self.work / LOOP_KERNEL.name)
        checks.command(
            run_process(
                "loop_inputs",
                [HERE / "loop_inputs.py", "--kernel", self.work / LOOP_KERNEL.name,
                 "--seed", self.seed, "--out", self.work / "inputs.json"],
            )
        )

    def source_args(self):
        return ["--kernel", self.work / LOOP_KERNEL.name, "--inputs", self.work / "inputs.json"]

    def load(self, tr):
        program = tr.call("ir.parse_kernel", parse_kernel, (self.work / LOOP_KERNEL.name).read_text())
        return program, json.loads((self.work / "inputs.json").read_text())

    def results(self, checks):
        stats = super().results(checks)
        checks.check("the loop kernel has more than one iCnt group", lambda: len(stats["groups"]) > 1)
        return stats

    def probe_kernel(self):
        text = (self.work / LOOP_KERNEL.name).read_text()
        return parse_kernel(text), text, json.loads((self.work / "inputs.json").read_text()), None


class Pipeline(Workload):
    """Declared profiles of the remappable fixtures through classify, remap,
    protect (detect, correct) and report, then suite.  No injection."""

    name = "pipeline"

    def specs(self):
        specs = [s for s in fx.suite_specs() if s.remappable]
        if self.size.pipeline_fixtures is not None:
            specs = sorted(specs, key=lambda s: s.total_threads)[: self.size.pipeline_fixtures]
        return specs

    def setup(self, checks):
        for spec in self.specs():
            d = self.work / spec.name
            checks.command(cli("emit", "--fixture", spec.name, "--seed", self.seed, "--out", d))
            if (d / f"{spec.name}_profile.csv").exists():
                shutil.copyfile(d / f"{spec.name}_profile.csv", d / "profile.csv")

    def _kernel_args(self, name: str) -> list:
        d = self.work / name
        return ["--kernel", d / f"{name}.wir", "--inputs", d / f"{name}_inputs.json"]

    def steps(self):
        steps = []
        for spec in self.specs():
            d = self.work / spec.name
            common = ["--seed", self.seed, "--out", d]
            kernel = self._kernel_args(spec.name)
            keep_detect = lambda d=d: shutil.copyfile(d / "protection.json", d / "protection_detect.json")  # noqa: E731
            steps += [
                (["classify", *common], None),
                (["remap", *common], None),
                (["protect", "--mode", "detect", *kernel, *common], keep_detect),
                (["protect", "--mode", "correct", *kernel, *common], None),
                (["report", "--mode", "correct", *kernel, *common], None),
            ]
        steps.append((["suite", "--seed", self.seed, "--out", self.work / "suite"], None))
        return steps

    def results(self, checks):
        per_kernel = {}
        for spec in self.specs():
            d = self.work / spec.name
            profile = load_profile(d / "profile.csv")
            num_ctas, cta_size = profile.geometry
            before, after = reliable_warp_shares(flags_of(profile), num_ctas, cta_size)
            stats = _read_json(d / "stats.json")
            remapped = _read_json(d / "stats_remapped.json")
            detect = _read_json(d / "protection_detect.json")
            correct = _read_json(d / "protection.json")
            cost = _read_json(d / "report.json")["cost"]
            checks.check(
                f"{spec.name}: reliable-warp share before regrouping is the declared {spec.expected[0]}%",
                lambda: f"{stats['pct_reliable_warps']:.2f}" == spec.expected[0] == f"{float(before * 100):.2f}",
            )
            checks.check(
                f"{spec.name}: stats_remapped.json matches regrouping of the profile",
                lambda: remapped["pct_reliable_warps"] == float(after * 100),
            )
            checks.check(
                f"{spec.name}: fault-free protected runs detect and correct nothing",
                lambda: detect["mode"] == "detect" and correct["mode"] == "correct"
                and not detect["detections"] and not correct["corrected"],
            )
            checks.check(
                f"{spec.name}: protection cycles equal the cost model's partial-protection cycles",
                lambda: detect["cycles"] == cost["cycles_partial_detect"]
                and correct["cycles"] == cost["cycles_partial_correct"],
            )
            per_kernel[spec.name] = {
                "thread_fractions": sha(thread_fractions(profile)),
                "reliable_warps_before": str(before),
                "reliable_warps_after": str(after),
                "protect_cycles": [detect["cycles"], correct["cycles"]],
                "cost": cost,
            }
        suite = _read_json(self.work / "suite" / "suite_report.json")
        rows = {row["kernel"]: row for row in suite["kernels"]}
        for name, kernel in per_kernel.items():
            checks.check(
                f"{name}: suite row equals the per-fixture report",
                lambda: rows[name]["savings_detect_pct"] == kernel["cost"]["savings_detect_pct"]
                and rows[name]["savings_correct_pct"] == kernel["cost"]["savings_correct_pct"]
                and Fraction(rows[name]["pct_reliable_warps_after"])
                == round(Fraction(kernel["reliable_warps_after"]) * 100, 2),
            )
        declared = [Fraction(s.expected[0]) for s in fx.suite_specs() if s.remappable]
        checks.check(
            "suite mean reliable-warp share before regrouping is the declared mean",
            lambda: Fraction(suite["mean_pct_reliable_warps_before"]) == round(sum(declared) / len(declared), 2),
        )
        means = {k: suite[k] for k in REFERENCE_FIGURES if k in suite}
        gap = statistics.fmean(abs(float(v) - REFERENCE_FIGURES[k]) for k, v in means.items())
        return {"kernels": per_kernel, "suite_means": means, "ref_gap_pp": gap}

    def inprocess(self, tr):
        protected = []
        for spec in self.specs():
            d = self.work / spec.name
            with tr.span("step.classify"):
                _classify(tr, tr.call("profiling.load_profile", load_profile, d / "profile.csv"))
            with tr.span("step.remap"):
                _remap(tr, tr.call("profiling.load_profile", load_profile, d / "profile.csv"))
            for mode in ("detect", "correct"):
                with tr.span("step.protect"):
                    program, inputs, profile, plan = self._load_all(tr, spec.name)
                    remapped = tr.call("remap.apply_plan", apply_plan, program, plan)
                    flags = tr.call("classify.classify_threads", classify_threads, profile, plan.tau)
                    warps = tr.call("classify.classify_warps", classify_warps, flags, remapped.warps())
                    protection = tr.call("protect.build_protection_plan", build_protection_plan, warps, mode)
                    start = time.perf_counter()
                    result = tr.call("protect.run_protected", run_protected, remapped, inputs, protection)
                    protected.append((program, inputs, protection, result, time.perf_counter() - start))
            with tr.span("step.report"):
                program, inputs, profile, plan = self._load_all(tr, spec.name)
                flags = tr.call("classify.classify_threads", classify_threads, profile, plan.tau)
                tr.call("costs.account", account, program, inputs, flags, plan=plan, remap_overhead=0)
        with tr.span("step.suite"):
            for fixture in tr.call("fixtures.remappable_suite", fx.remappable_suite, self.seed):
                flags = list(fixture.flags)
                warps = tr.call("classify.classify_warps", classify_warps, flags, fixture.program.warps())
                tr.call("classify.kernel_stats", kernel_stats, warps, flags, fixture.profile.tau)
                digest = tr.call("profiling.profile_digest", profile_digest, fixture.profile)
                plan = tr.call(
                    "remap.build_plan", build_plan, flags, fixture.program.geometry,
                    tau=fixture.profile.tau, kernel=fixture.name, profile_sha256=digest,
                )
                tr.call("remap.remapped_stats", remapped_stats, plan, flags)
                tr.call("costs.account", account, fixture.program, fixture.inputs, flags, plan=plan, remap_overhead=0)
        return {"protected": protected}

    def _load_all(self, tr, name):
        d = self.work / name
        program = tr.call("ir.parse_kernel", parse_kernel, (d / f"{name}.wir").read_text())
        inputs = json.loads((d / f"{name}_inputs.json").read_text())
        profile = tr.call("profiling.load_profile", load_profile, d / "profile.csv")
        plan = tr.call("remap.load_plan", load_plan, d / "plan.json")
        return program, inputs, profile, plan

    def check_inprocess(self, data, baseline, checks):
        golden = {}
        seconds = {"detect": 0.0, "correct": 0.0}
        replica_runs = 0
        for program, inputs, protection, result, spent in data["protected"]:
            if program.name not in golden:
                golden[program.name] = execute(program, inputs).outputs
            checks.check(
                f"{program.name}: run_protected ({protection.mode}) outputs equal a golden execute, "
                "with no detection or correction",
                lambda: result.final_outputs == golden[program.name] and not result.detections
                and not result.corrections,
            )
            seconds[protection.mode] += spent
            replica_runs += sum(protection.factors.values())
        return {
            "protect.detect_ms": seconds["detect"] * 1000,
            "protect.correct_ms": seconds["correct"] * 1000,
            "protect.replica_runs": replica_runs,
        }


def _classify(tr: Tracer, profile) -> None:
    flags = tr.call("classify.classify_threads", classify_threads, profile, TAU)
    warps = tr.call("ir.warps_for", warps_for, *profile.geometry)
    classes = tr.call("classify.classify_warps", classify_warps, flags, warps)
    tr.call("classify.kernel_stats", kernel_stats, classes, flags, TAU)


def _remap(tr: Tracer, profile) -> None:
    flags = tr.call("classify.classify_threads", classify_threads, profile, TAU)
    digest = tr.call("profiling.profile_digest", profile_digest, profile)
    plan = tr.call(
        "remap.build_plan", build_plan, flags, profile.geometry, tau=TAU, kernel=profile.kernel, profile_sha256=digest
    )
    tr.call("remap.remapped_stats", remapped_stats, plan, flags)


def _plan_is_permutation(path: Path, num_ctas: int, cta_size: int) -> bool:
    ctas = sorted(_read_json(path)["ctas"], key=lambda c: c["cta_id"])
    return [c["cta_id"] for c in ctas] == list(range(num_ctas)) and all(
        sorted(c["new_order"]) == list(range(c["cta_id"] * cta_size, (c["cta_id"] + 1) * cta_size)) for c in ctas
    )


WORKLOADS = {w.name: w for w in (CampaignWide, CampaignLoop, Pipeline)}


# ---------------------------------------------------------------------------
# one run


def ledger_agrees(ledger: Path, key: str, digest: str) -> bool:
    """Store a simulated-statistics digest under its key (workload, seed, size,
    code), or compare it with the one stored: a run of the same code and seed
    must reproduce it."""
    known = _read_json(ledger) if ledger.exists() else {}
    if known.setdefault(key, digest) != digest:
        return False
    ledger.write_text(json.dumps(known, indent=1, sort_keys=True))
    return True


def _setup(workload: Workload, checks: Checks, calibrations: list[float]) -> tuple[float, float]:
    """Stage the workload afresh; return its seconds, raw and host-normalised.
    Commands it runs count with their own times; the rest of its time is
    scaled by calibration samples taken before and after."""
    before = calibration_s()
    first = len(checks.commands)
    start = time.perf_counter()
    shutil.rmtree(workload.work, ignore_errors=True)
    workload.work.mkdir(parents=True)
    workload.setup(checks)
    total = time.perf_counter() - start
    after = calibration_s()
    calibrations += [before, after]
    children = checks.commands[first:]
    own = total - sum(c.elapsed for c in children)
    return (
        own + sum(c.seconds for c in children),
        normalised(own, before, after) + sum(c.norm_s for c in children),
    )


def _cli_pass(workload: Workload, checks: Checks) -> list[Command]:
    commands = []
    for args, follow_up in workload.steps():
        cmd = checks.command(cli(*args))
        commands.append(cmd)
        if follow_up is not None and cmd.code == 0:
            checks.attempt(f"follow-up of {cmd.name}", follow_up)
    return commands


def _probes(workload: Workload, work: Path, reps: int) -> dict:
    program, text, inputs, build = workload.probe_kernel()
    golden = execute(program, inputs)
    golden_ms = _median_ms(lambda: execute(program, inputs), reps)
    profile = fx.generate_fixture(PROBE_PROFILE_FIXTURE, workload.seed).profile
    path = work / "probe_profile.csv"
    save_ms = _median_ms(lambda: save_profile(profile, path), reps)
    return {
        "ir.parse_ms": _median_ms(lambda: parse_kernel(text), reps),
        "fixtures.build_ms": _median_ms(build, reps) if build is not None else 0.0,
        "interp.golden_ms": golden_ms,
        "interp.tinstr_per_s": sum(golden.per_thread_icnt) / (golden_ms / 1000),
        "interp.warp_run_ms": _median_ms(lambda: execute(program, inputs, warp_filter=(0, 0)), reps),
        "profiling.load_ms": _median_ms(lambda: load_profile(path), reps),
        "profiling.save_ms": save_ms,
        "profiling.digest_ms": _median_ms(lambda: profile_digest(profile), reps),
    }


def _traced_metrics(commands: list[Command], untraced_s: float, tr: Tracer, traced_s: float,
                    counters: dict, stats: dict, probes: dict, calib_ms: float) -> dict:
    cli_s = sum(c.seconds for c in commands)
    self_s, calls = tr.self_times(), tr.calls()
    span_ms = lambda name: sum(tr.durations(name)) * 1000  # noqa: E731
    profile_s = sum(tr.durations("step.profile"))
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update({f"{layer}.calls": calls.get(layer, 0) for layer in LAYERS})
    metrics.update(
        {
            "cli.self_s": cli_s - untraced_s,
            "cli.calls": len(commands),
            **{f"cli.{name}_s": sum(c.seconds for c in commands if c.name == name) for name in COMMANDS},
            "faults.sites": 0, "faults.masked": 0, "faults.sdc": 0, "faults.crashed": 0, "faults.hung": 0,
            "faults.not_executed": 0, "faults.site_samples": 0, "faults.site_ms_p50": 0.0,
            "faults.site_ms_p90": 0.0, "faults.off_warp_share": 0.0, "faults.hung_time_share": 0.0,
            "profiling.groups": 0, "profiling.pruned_share": 0.0,
            "protect.detect_ms": 0.0, "protect.correct_ms": 0.0, "protect.replica_runs": 0,
            **counters,
            **probes,
            "profiling.profile_s": profile_s,
            "classify.threads_ms": span_ms("classify.classify_threads"),
            "classify.warps_ms": span_ms("classify.classify_warps"),
            "classify.mismatch_share": float(Fraction(stats.get("class_mismatch_share", 0))),
            "remap.plan_ms": span_ms("remap.build_plan"),
            "costs.account_ms": span_ms("costs.account"),
            "costs.ref_gap_pp": stats.get("ref_gap_pp", 0.0),
            "trace.wall_s": traced_s,
            "trace.untraced_wall_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.spans": len(tr.spans),
            "host.calib_ms": calib_ms,
        }
    )
    metrics["profiling.sites_per_s"] = metrics["faults.sites"] / profile_s if profile_s else 0.0
    return metrics


def _traced(workload: Workload, checks: Checks, ledger: Path, key: str, commands: list[Command], stats: dict,
            out: Path, calib_ms: float) -> dict:
    """The in-process pass without and with spans, its checks, and the layer probes."""
    start = time.perf_counter()
    baseline = checks.attempt("untraced in-process pass", workload.inprocess, Tracer(enabled=False))
    untraced_s = time.perf_counter() - start
    tr = Tracer(trace_id=key)
    start = time.perf_counter()
    data = checks.attempt("traced in-process pass", workload.inprocess, tr)
    traced_s = time.perf_counter() - start
    counters = checks.attempt("in-process checks", workload.check_inprocess, data, baseline, checks) or {}
    outcomes = {k: counters.get(k, 0) for k in OUTCOMES}
    per_site = sorted((str(s), o.kind, o.detail) for s, o, _ in (data or {}).get("sites", []))
    digest = sha([outcomes, per_site])
    checks.check("outcomes identical to earlier traced runs of this code and seed", ledger_agrees, ledger, key, digest)
    print(f"digest outcomes {digest} {json.dumps(outcomes, sort_keys=True)}")
    probes = checks.attempt("layer probes", _probes, workload, out, workload.size.probe_reps) or {}
    tr.write(out / f"trace-{workload.name}-{workload.seed}.json")
    return _traced_metrics(commands, untraced_s, tr, traced_s, counters, stats, probes, calib_ms)


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: Size = FULL, out: Path = OUT) -> dict:
    """Run one workload; print records and checks; return the result object."""
    out = out.resolve()  # the CLI children run from the repository root
    out.mkdir(parents=True, exist_ok=True)
    # Commands and the calibration samples that scale their times share one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[workload_name](seed, size, out / "work" / workload_name)
    checks = Checks()
    code = code_sha()
    record = {
        "workload": workload_name, "seed": seed, "trace": int(trace), "size": size.name,
        "python": platform.python_version(), "cpus": os.cpu_count(), "pinned_cpu": cpu, "git_sha": git_sha(),
        "code_sha256": code, "calib_ms_start": calibrate_ms(),
    }
    setups: list[tuple[float, float]] = []
    passes: list[list[Command]] = []
    calibrations: list[float] = []
    digests: list[str] = []
    stats: dict = {}
    min_passes = 1 if trace else size.min_passes
    # Set-ups beyond one per pass come first; the last set-up stages the first pass.
    for _ in range(0 if trace else size.min_setups - 1):
        setups.append(_setup(workload, checks, calibrations))
    while len(passes) < min_passes or (not trace and sum(c.seconds for p in passes for c in p) < seconds):
        # A fresh set-up before each pass spreads the set-ups over the run.
        setups.append(_setup(workload, checks, calibrations))
        passes.append(_cli_pass(workload, checks))
        stats = checks.attempt(f"{workload_name} artifacts", workload.results, checks) or {}
        digests.append(sha(stats))
    checks.check("simulated statistics identical in every pass", lambda: len(set(digests)) == 1)
    ledger = out / "digests.json"
    key = f"{workload_name} seed={seed} size={size.name} code={code[:16]}"
    checks.check(
        "simulated statistics identical to earlier runs of this code and seed",
        ledger_agrees, ledger, f"{key} results", digests[0],
    )
    print(f"digest results {digests[0]} {json.dumps(stats, sort_keys=True, default=str)[:2000]}")

    if trace:
        metrics = _traced(
            workload, checks, ledger, f"{key} outcomes", passes[0], stats, out, statistics.median(calibrations) * 1000
        )
    else:
        # Passes run the same commands in the same order: take each command's median.
        per_command = zip(*([c.norm_s for c in p] for p in passes))
        metrics = {
            "setup_s": statistics.median(norm for _, norm in setups),
            "wall_s": sum(statistics.median(times) for times in per_command),
            "peak_rss_mb": max(c.rss_mb or 0.0 for p in passes for c in p),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    checks.check("every declared metric is measured", lambda: set(units) <= set(metrics))
    metrics = {name: metrics.get(name, 0) for name in units}

    record["calib_ms_end"] = calibrate_ms()
    record["calib_ms_median"] = statistics.median(calibrations) * 1000
    record["setups_raw_s"] = [raw for raw, _ in setups]
    record["pass_walls_raw_s"] = [sum(c.seconds for c in p) for p in passes]
    record["pass_walls_s"] = [sum(c.norm_s for c in p) for p in passes]
    record["command_s"] = {
        name: [sum(c.seconds for c in passes[0] if c.name == name), sum(c.norm_s for c in passes[0] if c.name == name)]
        for name in COMMANDS
    }
    record["failed_share"] = len(checks.failures) / checks.attempted
    with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "metrics": metrics, "failures": checks.failures}) + "\n")
    print(f"record {json.dumps(record, sort_keys=True)}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"failed_share {record['failed_share']} ({len(checks.failures)} of {checks.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

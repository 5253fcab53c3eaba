"""Batch pipeline driver: profile -> classify -> remap -> protect -> report.

Every command consumes the previous command's files from the output directory
and writes plain CSV/JSON artifacts there; the run configuration is embedded
in each artifact so results are reproducible byte-for-byte from the same
flags.  Exit codes: 0 success, 2 configuration error, 3 artifact error, 4
execution error.  Artifact errors include a file that cannot be read or
written, a ``--kernel`` file that does not decode, parse or validate, an
``--inputs`` file that does not match its kernel's buffers, and a
malformed artifact such as ``stats.json``.  A command refuses a bad
``--kernel`` or ``--inputs`` file before it makes ``--out``.

Commands import what they use: this module loads only what the parser needs,
and each handler imports its own modules, so ``classify`` never loads the
interpreter and a ``--kernel`` run never builds the fixture table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ArtifactError, ParseError, ValidationError, WarpshieldError

if TYPE_CHECKING:
    from fractions import Fraction

    from .fixtures import Fixture
    from .interp import CostTable
    from .ir import KernelProgram
    from .profiling import KernelProfile
    from .remap import RemapPlan

_EXIT_CONFIG = 2
_EXIT_ARTIFACT = 3
_EXIT_EXECUTION = 4


class _ConfigError(WarpshieldError):
    pass


def _fixture(args) -> Fixture:
    from . import fixtures as fx

    if args.fixture not in fx.fixture_names():
        raise _ConfigError(f"unknown fixture {args.fixture!r} (see `warpshield fixtures`)")
    return fx.generate_fixture(args.fixture, seed=args.seed)


def _load_program(args) -> tuple[KernelProgram, dict[str, list[int]]]:
    """The kernel and its inputs, from ``--fixture`` or ``--kernel``.  A
    fixture brings its own inputs, so ``--kernel`` or ``--inputs`` beside it
    could not take effect and is refused."""
    if args.fixture:
        if args.kernel or args.inputs:
            raise _ConfigError("--fixture cannot be combined with --kernel or --inputs")
        fixture = _fixture(args)
        return fixture.program, fixture.inputs
    if args.kernel:
        from .interp import seeded_inputs, validate_inputs
        from .ir import parse_kernel

        path = Path(args.kernel)
        if not path.exists():
            raise ArtifactError(f"kernel file {path} does not exist")
        try:
            program = parse_kernel(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ParseError, ValidationError) as e:
            raise ArtifactError(f"malformed kernel file {path}: {e}") from None
        if not args.inputs:
            return program, seeded_inputs(program, args.seed)
        inputs = _read_inputs(Path(args.inputs))
        try:
            validate_inputs(program, inputs)
        except ValidationError as e:
            raise ArtifactError(f"inputs file {args.inputs} does not match kernel {program.name!r}: {e}") from None
        return program, inputs
    raise _ConfigError("one of --fixture or --kernel is required")


def _is_word_list(words) -> bool:
    return isinstance(words, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in words
    )


def _read_inputs(path: Path) -> dict[str, list[int]]:
    raw = _read_json(path, "inputs file")
    if not isinstance(raw, dict) or not all(_is_word_list(words) for words in raw.values()):
        raise ArtifactError(f"inputs file {path} must map buffer names to lists of integers")
    return raw


def _out_dir(args) -> Path:
    """``--out``, made if missing.  A command that reads a kernel resolves
    it first, so a refused ``--fixture`` or ``--kernel`` leaves no
    directory behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file, or under one
        raise _ConfigError(f"--out {out} is not a directory: {e}") from None
    return out


def _cost_table(args) -> CostTable:
    from .interp import DEFAULT_COST_TABLE, CostTable

    if args.cost_table:
        path = Path(args.cost_table)
        try:
            return CostTable.from_json(_read_json(path, "cost table"))
        except ValidationError as e:
            raise ArtifactError(f"malformed cost table {path}: {e}") from None
    return DEFAULT_COST_TABLE


def _tau(args) -> Fraction:
    from .profiling import to_fraction

    tau = to_fraction(args.tau)
    if not 0 <= tau <= 1:
        raise _ConfigError(f"--tau {args.tau} outside [0, 1]")
    return tau


def _load_plan_for(out: Path, profile: KernelProfile) -> RemapPlan:
    """plan.json, refused unless it was built from this profile."""
    from .profiling import profile_digest
    from .remap import load_plan

    plan = load_plan(out / "plan.json")
    if plan.profile_sha256 != profile_digest(profile):
        raise ArtifactError("plan.json was built from a different profile.csv")
    return plan


def _config_dict(args, command: str) -> dict:
    keep = (
        "fixture",
        "kernel",
        "inputs",
        "tau",
        "mode",
        "profile_mode",
        "sample",
        "seed",
        "budget",
        "cost_table",
        "remap_overhead",
        "out",
    )
    cfg = {"command": command}
    for key in keep:
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_bars(path: Path, rows: list[dict]) -> None:
    header = list(rows[0])
    _write_csv(path, header, ([row[key] for key in header] for row in rows))


def _read_json(path: Path, what: str):
    if not path.exists():
        raise ArtifactError(f"missing {what} {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as e:  # undecodable bytes or JSON syntax
        raise ArtifactError(f"{what} {path} is not valid JSON: {e}") from None


def _read_stats(path: Path, what: str) -> dict:
    """stats.json or stats_remapped.json: an object with a numeric
    ``pct_reliable_warps``, which ``report`` copies into bars.csv."""
    stats = _read_json(path, what)
    share = stats.get("pct_reliable_warps") if isinstance(stats, dict) else None
    if not isinstance(share, (int, float)) or isinstance(share, bool):
        raise ArtifactError(f"{what} {path} must be a JSON object with a numeric pct_reliable_warps")
    return stats


def cmd_profile(args) -> int:
    from .profiling import profile_kernel, save_profile, text_digest

    program, inputs = _load_program(args)
    if args.sample is not None and not 0 < args.sample <= 1:
        raise _ConfigError(f"--sample {args.sample} outside (0, 1]")
    out = _out_dir(args)
    profile = profile_kernel(
        program,
        inputs,
        mode=args.profile_mode,
        sample_fraction=args.sample if args.sample is not None else 1.0,
        seed=args.seed,
        budget=args.budget,
    )
    digest = text_digest(save_profile(profile, out / "profile.csv"))
    _write_json(
        out / "profile_meta.json",
        {
            "campaign": profile.runs.to_json(),
            "config": _config_dict(args, "profile"),
            "kernel": program.name,
            "geometry": list(program.geometry),
            "profile_sha256": digest,
        },
    )
    print(f"profiled {program.name}: {program.total_threads} threads -> {out / 'profile.csv'}")
    return 0


def cmd_classify(args) -> int:
    from .classify import (
        classify_threads,
        classify_warps,
        format_pct,
        kernel_stats,
        scatter_rows,
        stats_to_json,
        write_scatter_csv,
    )
    from .ir import warps_for
    from .profiling import load_profile

    out = _out_dir(args)
    profile = load_profile(out / "profile.csv")
    tau = _tau(args)
    flags = classify_threads(profile, tau)
    warps = warps_for(*profile.geometry)
    stats = kernel_stats(classify_warps(flags, warps), flags, tau)
    payload = stats_to_json(stats, profile.kernel)
    payload["config"] = _config_dict(args, "classify")
    _write_json(out / "stats.json", payload)
    write_scatter_csv(scatter_rows(profile, flags, warps), out / "scatter.csv")
    print(
        f"{profile.kernel}: {format_pct(stats.pct_reliable_warps)}% reliable warps, "
        f"{format_pct(stats.pct_reliable_threads)}% reliable threads (tau={float(tau)})"
    )
    return 0


def cmd_remap(args) -> int:
    from .classify import classify_threads, format_pct, scatter_rows, stats_to_json, write_scatter_csv
    from .profiling import load_profile, profile_digest
    from .remap import regroup, save_plan

    out = _out_dir(args)
    profile = load_profile(out / "profile.csv")
    tau = _tau(args)
    flags = classify_threads(profile, tau)
    _, plan, stats = regroup(
        flags, profile.geometry, tau=tau, kernel=profile.kernel, profile_sha256=profile_digest(profile)
    )
    save_plan(plan, out / "plan.json")
    payload = stats_to_json(stats, profile.kernel)
    payload["config"] = _config_dict(args, "remap")
    _write_json(out / "stats_remapped.json", payload)
    write_scatter_csv(scatter_rows(profile, flags, plan.warps()), out / "scatter_remapped.csv")
    print(
        f"{profile.kernel}: {format_pct(stats.pct_reliable_warps)}% reliable warps after regrouping"
    )
    return 0


def cmd_protect(args) -> int:
    from .classify import classify_threads, classify_warps
    from .profiling import load_profile
    from .protect import build_protection_plan, protection_report, run_protected
    from .remap import apply_plan

    program, inputs = _load_program(args)
    out = _out_dir(args)
    profile = load_profile(out / "profile.csv")
    plan = _load_plan_for(out, profile)
    remapped = apply_plan(program, plan)
    flags = classify_threads(profile, plan.tau)
    classifications = classify_warps(flags, remapped.warps())
    protection = build_protection_plan(classifications, args.mode)
    result = run_protected(
        remapped,
        inputs,
        protection,
        budget=args.budget,
        cost_table=_cost_table(args),
    )
    payload = protection_report(result, protection)
    payload["config"] = _config_dict(args, "protect")
    _write_json(out / "protection.json", payload)
    print(
        f"{program.name}: {len(protection.protected_warps)} of {len(protection.factors)} "
        f"warps protected ({args.mode}), {result.cycles} cycles"
    )
    return 0


def _bars_row(kernel: str, before, after, cost: dict) -> dict:
    """A kernel's row of bars.csv and suite_bars.csv, from its reliable-warp
    shares and its ``CostReport.to_json()``."""
    return {
        "kernel": kernel,
        "pct_reliable_warps_before": before,
        "pct_reliable_warps_after": after,
        "savings_detect_pct": cost["savings_detect_pct"],
        "savings_correct_pct": cost["savings_correct_pct"],
    }


def cmd_report(args) -> int:
    from .classify import classify_threads
    from .costs import REFERENCE_FIGURES, account
    from .profiling import load_profile, to_fraction

    # The cost covers detection and correction both, so detect and correct
    # write the same cost and bars.csv and differ only in config.mode; none
    # costs the original layout alone.
    if args.mode == "none":  # nothing is regrouped, so no overhead can apply
        if args.remap_overhead is not None:
            raise _ConfigError("--remap-overhead cannot be combined with --mode none")
        del args.remap_overhead
    elif args.remap_overhead is None:
        args.remap_overhead = "0"
    program, inputs = _load_program(args)
    out = _out_dir(args)
    profile = load_profile(out / "profile.csv")
    if profile.kernel != program.name:
        raise ValidationError(f"profile.csv was built for kernel {profile.kernel!r}, not {program.name!r}")
    report = {
        "config": _config_dict(args, "report"),
        "kernel": profile.kernel,
        "reference_figures": REFERENCE_FIGURES,
        "before": _read_stats(out / "stats.json", "classify output"),
    }
    plan = None if args.mode == "none" else _load_plan_for(out, profile)
    if plan is not None:
        report["after"] = _read_stats(out / "stats_remapped.json", "remap output")
    cost = account(
        program,
        inputs,
        classify_threads(profile, None if plan is None else plan.tau),
        plan=plan,
        cost_table=_cost_table(args),
        remap_overhead=to_fraction(getattr(args, "remap_overhead", 0)),
        budget=args.budget,
    ).to_json()
    if plan is None:  # the original layout alone
        report["cost"] = {key: cost[key] for key in ("kernel", "cycles_base", "cycles_remapped")}
    else:
        report["cost"] = cost
        before, after = (report[key]["pct_reliable_warps"] for key in ("before", "after"))
        _write_bars(out / "bars.csv", [_bars_row(profile.kernel, before, after, cost)])
    _write_json(out / "report.json", report)
    print(f"report for {profile.kernel} -> {out / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    from .classify import classify_threads
    from .profiling import load_profile, to_fraction
    from .remap import regroup

    out = _out_dir(args)
    profile = load_profile(out / "profile.csv")
    taus = [to_fraction(t.strip()) for t in args.taus.split(",") if t.strip()]
    if not taus:
        raise _ConfigError("--taus produced an empty threshold list")
    rows = []
    for tau in sorted(taus):
        before, _, after = regroup(classify_threads(profile, tau), profile.geometry, tau=tau, kernel=profile.kernel)
        rows.append((float(tau), float(before.pct_reliable_warps * 100), float(after.pct_reliable_warps * 100)))
    _write_csv(out / "sweep.csv", ["tau", "pct_reliable_warps_before", "pct_reliable_warps_after"], rows)
    print(f"sweep over {len(rows)} thresholds -> {out / 'sweep.csv'}")
    return 0


def cmd_suite(args) -> int:
    """Run the full pipeline over the regroup-eligible fixtures and aggregate."""
    from fractions import Fraction

    from . import fixtures as fx
    from .classify import format_pct
    from .costs import REFERENCE_FIGURES, account
    from .profiling import to_fraction
    from .remap import regroup

    out = _out_dir(args)
    table = _cost_table(args)
    overhead = to_fraction(args.remap_overhead)
    rows = []
    for fixture in fx.remappable_suite(seed=args.seed):
        flags = list(fixture.flags)
        before, plan, after = regroup(flags, fixture.program.geometry, tau=fixture.profile.tau, kernel=fixture.name)
        cost = account(fixture.program, fixture.inputs, flags, plan=plan, cost_table=table, remap_overhead=overhead)
        before_pct, after_pct = (format_pct(stats.pct_reliable_warps) for stats in (before, after))
        rows.append(_bars_row(fixture.name, before_pct, after_pct, cost.to_json()))
    mean_before = sum(Fraction(r["pct_reliable_warps_before"]) for r in rows) / len(rows)
    mean_after = sum(Fraction(r["pct_reliable_warps_after"]) for r in rows) / len(rows)
    payload = {
        "config": _config_dict(args, "suite"),
        "kernels": rows,
        "mean_pct_reliable_warps_before": format_pct(mean_before / 100),
        "mean_pct_reliable_warps_after": format_pct(mean_after / 100),
        "mean_savings_detect_pct": float(sum(r["savings_detect_pct"] for r in rows) / len(rows)),
        "mean_savings_correct_pct": float(sum(r["savings_correct_pct"] for r in rows) / len(rows)),
        "reference_figures": REFERENCE_FIGURES,
    }
    _write_json(out / "suite_report.json", payload)
    _write_bars(out / "suite_bars.csv", rows)
    print(
        f"suite: reliable warps {payload['mean_pct_reliable_warps_before']}% -> "
        f"{payload['mean_pct_reliable_warps_after']}% "
        f"(reference: {REFERENCE_FIGURES['mean_pct_reliable_warps_before']} -> "
        f"{REFERENCE_FIGURES['mean_pct_reliable_warps_after']}); "
        f"savings {payload['mean_savings_detect_pct']:.2f}%/"
        f"{payload['mean_savings_correct_pct']:.2f}% "
        f"(reference: {REFERENCE_FIGURES['mean_savings_detect_pct']}/"
        f"{REFERENCE_FIGURES['mean_savings_correct_pct']})"
    )
    return 0


def cmd_fixtures(args) -> int:
    from . import fixtures as fx

    print(f"{'name':24} {'geometry':>12} {'pattern':>18} {'warps%':>8} {'threads%':>9}  flags")
    for spec in fx.suite_specs():
        warps_pct, threads_pct = spec.expected
        tag = "remappable" if spec.remappable else ""
        print(
            f"{spec.name:24} {spec.num_ctas:>5}x{spec.cta_size:<6} {spec.pattern:>18} "
            f"{warps_pct:>8} {threads_pct:>9}  {tag}"
        )
    return 0


def cmd_emit(args) -> int:
    from .ir import program_to_source
    from .profiling import save_profile

    fixture = _fixture(args)
    out = _out_dir(args)
    (out / f"{fixture.name}.wir").write_text(program_to_source(fixture.program))
    _write_json(out / f"{fixture.name}_inputs.json", {k: v for k, v in fixture.inputs.items()})
    save_profile(fixture.profile, out / f"{fixture.name}_profile.csv")
    print(f"emitted {fixture.name} kernel, inputs, and profile under {out}")
    return 0


# Each handler imports the modules it uses, so a command loads only those.
_COMMANDS = {
    "profile": cmd_profile,
    "classify": cmd_classify,
    "remap": cmd_remap,
    "protect": cmd_protect,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "suite": cmd_suite,
    "fixtures": cmd_fixtures,
    "emit": cmd_emit,
}


def build_parser() -> argparse.ArgumentParser:
    from .ir import DEFAULT_BUDGET

    parser = argparse.ArgumentParser(
        prog="warpshield",
        description="Profile per-thread soft-error resilience, regroup threads into "
        "reliability-homogeneous warps, and cost selective warp replication.",
    )
    parser.add_argument("--error-json", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the flags it reads; --seed is on every one.
    def common(p, *, kernel_source=False, budget=False, cost_table=False):
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=0)
        if kernel_source:
            p.add_argument("--fixture", help="built-in fixture name (see `fixtures`)")
            p.add_argument("--kernel", help="path to an IR kernel file, in place of --fixture")
            p.add_argument("--inputs", help="JSON file of the --kernel's input buffer contents")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        if cost_table:
            p.add_argument("--cost-table", dest="cost_table", help="JSON cost table")

    p = sub.add_parser("profile", help="run the fault-injection profiler")
    common(p, kernel_source=True, budget=True)
    p.add_argument("--profile-mode", dest="profile_mode", choices=["pruned", "exhaustive"], default="pruned")
    p.add_argument("--sample", type=float, default=None, help="site sample fraction in (0, 1]")

    for name, text in (
        ("classify", "classify threads and warps at a threshold"),
        ("remap", "build and evaluate a regrouping plan"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--tau", default="0.05", help="SDC threshold (inclusive)")

    p = sub.add_parser("protect", help="run replicated execution under the plan")
    common(p, kernel_source=True, budget=True, cost_table=True)
    p.add_argument("--mode", choices=["detect", "correct"], default="detect")

    p = sub.add_parser("report", help="aggregate artifacts and cost the protection")
    common(p, kernel_source=True, budget=True, cost_table=True)
    p.add_argument(
        "--mode",
        choices=["detect", "correct", "none"],
        default="detect",
        help="detect and correct both cost detection and correction, so they write the same cost and "
        "bars.csv; none costs the original layout alone",
    )
    p.add_argument("--remap-overhead", dest="remap_overhead", help="detect and correct modes only; default 0")

    p = sub.add_parser("sweep", help="reliable-warp percentages across thresholds")
    common(p)
    p.add_argument("--taus", required=True, help="comma-separated threshold list")

    p = sub.add_parser("suite", help="pipeline + aggregate over the regroupable fixtures")
    common(p, cost_table=True)
    p.add_argument("--remap-overhead", dest="remap_overhead", default="0")

    p = sub.add_parser("fixtures", help="list the built-in fixture table")

    p = sub.add_parser("emit", help="write a fixture's kernel/inputs/profile to files")
    p.add_argument("--fixture", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WarpshieldError, OSError) as err:  # OSError: an artifact path that cannot be read or written
        code = _EXIT_EXECUTION
        if isinstance(err, (_ConfigError, ValidationError)):
            code = _EXIT_CONFIG
        elif isinstance(err, (ArtifactError, OSError)):
            code = _EXIT_ARTIFACT
        if args.error_json:
            print(
                json.dumps({"error": {"type": type(err).__name__, "message": str(err), "exit_code": code}}),
                file=sys.stderr,
            )
        else:
            print(f"error: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

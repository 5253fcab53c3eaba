import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import warpshield
from warpshield.cli import main
from warpshield.fixtures import generate_fixture
from warpshield.interp import CostTable
from warpshield.ir import parse_kernel
from warpshield.profiling import load_profile, profile_kernel, save_profile

from support import (
    ADD_ONE_SOURCE,
    CHASE_SOURCE,
    add_one_inputs,
    chase_kernel,
    from_launch_campaign,
    profile_per_campaign,
)


def test_exhaustive_profile_writes_a_profile_that_loads(tmp_path):
    """Exhaustively measured threads of one iCnt group may differ."""
    argv = ["profile", "--fixture", "gaussian_k1", "--profile-mode", "exhaustive"]
    assert main([*argv, "--sample", "0.01", "--out", str(tmp_path)]) == 0
    profile = load_profile(tmp_path / "profile.csv")
    assert all(t.provenance == "measured" for t in profile.threads)
    groups = {}
    for t in profile.threads:
        groups.setdefault(t.group_id, set()).add((t.masked_pct, t.sdc_pct, t.other_pct))
    assert any(len(fractions) > 1 for fractions in groups.values())


def test_profile_meta_records_how_the_campaigns_decided_their_sites(tmp_path):
    kernel, inputs = tmp_path / "add_one.wir", tmp_path / "inputs.json"
    kernel.write_text(ADD_ONE_SOURCE)
    program = parse_kernel(ADD_ONE_SOURCE)
    inputs.write_text(json.dumps(add_one_inputs(program)))
    argv = ["profile", "--kernel", str(kernel), "--inputs", str(inputs), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "out" / "profile_meta.json").read_text())
    runs = profile_kernel(program, add_one_inputs(program)).runs
    assert meta["campaign"] == runs.to_json()
    assert "tau" not in meta["config"]  # profile takes no threshold
    # One iCnt group: the 96 sites of its representative, each read by the store.
    assert meta["campaign"] == {
        "sites_without_run": 0,
        "sites_by_lone_thread": 96,
        "sites_by_full_warp": 0,
        "sites_crashed": 0,
        "sites_hung": 0,
    }


def test_profile_meta_splits_other_into_crashed_and_hung(tmp_path):
    """The counts equal those of the from-launch campaign, run once per
    iCnt group on the same sampled sites."""
    program, inputs = chase_kernel()
    kernel, inputs_file = tmp_path / "chase.wir", tmp_path / "inputs.json"
    kernel.write_text(CHASE_SOURCE)
    inputs_file.write_text(json.dumps(inputs))
    argv = ["profile", "--kernel", str(kernel), "--inputs", str(inputs_file), "--sample", "0.05"]
    assert main([*argv, "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "profile_meta.json").read_text())
    details = Counter()

    def counted(*args, **kwargs):
        campaign = from_launch_campaign(*args, **kwargs)
        details.update(outcome.detail for outcome in campaign.per_site.values())
        return campaign

    profile_per_campaign(program, inputs, "pruned", 0.05, 0, counted)
    assert meta["campaign"]["sites_crashed"] == details["crashed"] > 0
    assert meta["campaign"]["sites_hung"] == details["hung"] > 0


def test_corrupt_plan_exits_3(tmp_path, capsys):
    save_profile(generate_fixture("gaussian_k1").profile, tmp_path / "profile.csv")
    (tmp_path / "plan.json").write_text('{"ctas": [')
    assert main(["protect", "--fixture", "gaussian_k1", "--out", str(tmp_path)]) == 3
    assert "plan" in capsys.readouterr().err


def test_missing_profile_exits_3(tmp_path):
    assert main(["classify", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "content",
    [
        b"kernel,cta_id\n",
        b"kernel,\xff\n",
        b"x" * 200_000,
        b"kernel,cta_id,thread_id,icnt,group_id,masked_pct,sdc_pct,other_pct,provenance\n"
        b"k,-1,0,5,0,0.5,0.5,0.0,measured\n",
        b"kernel,cta_id,thread_id,icnt,group_id,masked_pct,sdc_pct,other_pct,provenance\n"
        b"k,0,-1,5,0,0.5,0.5,0.0,measured\n",
        b"kernel,cta_id,thread_id,icnt,group_id,masked_pct,sdc_pct,other_pct,provenance\n"
        b"k,0,1000000000000,5,0,0.5,0.5,0.0,measured\n",
    ],
    ids=["short-header", "not-utf8", "overlong-field", "cta-minus-one", "thread-minus-one", "thread-beyond-rows"],
)
def test_malformed_profile_exits_3(tmp_path, content, capsys):
    (tmp_path / "profile.csv").write_bytes(content)
    assert main(["classify", "--out", str(tmp_path)]) == 3
    assert "profile" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"tau": "\xff", "ctas": []}', json.dumps({"tau": "abc", "ctas": []}).encode()],
    ids=["not-utf8", "bad-tau"],
)
def test_malformed_plan_exits_3(tmp_path, content, capsys):
    save_profile(generate_fixture("gaussian_k1").profile, tmp_path / "profile.csv")
    (tmp_path / "plan.json").write_bytes(content)
    assert main(["protect", "--fixture", "gaussian_k1", "--out", str(tmp_path)]) == 3
    assert "plan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        json.dumps({"in": [1, "2"]}),
        json.dumps({"in": [1, 2.5]}),
        "[1, 2]",
        json.dumps({"in": [1] * 63}),
        json.dumps({"in": [1] * 64, "extra": [1]}),
    ],
    ids=["missing", "not-json", "string-word", "float-word", "not-an-object", "short-buffer", "extra-buffer"],
)
def test_bad_inputs_file_exits_3(tmp_path, content, capsys):
    """A refused inputs file leaves no ``--out`` directory behind."""
    kernel = tmp_path / "add_one.wir"
    kernel.write_text(ADD_ONE_SOURCE)
    inputs = tmp_path / "inputs.json"
    if content is not None:
        inputs.write_text(content)
    argv = ["profile", "--kernel", str(kernel), "--inputs", str(inputs)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "inputs file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MALFORMED_KERNELS = {
    "undecodable": b"\xff\xfe.kernel add_one\n",
    "unknown-opcode": ADD_ONE_SOURCE.replace("iadd r2, r1, r0", "frob r2, r1, r0").encode(),
    "zero-ctas": ADD_ONE_SOURCE.replace(".ctas 2", ".ctas 0").encode(),
    "too-many-threads": ADD_ONE_SOURCE.replace(".ctas 2", ".ctas 1000000").encode(),
    "huge-buffer": ADD_ONE_SOURCE.replace(".in in 64", ".in in 4000000000").encode(),
    "opcode-suffix": ADD_ONE_SOURCE.replace("movi r0, 1", "mov.x r0, r1").encode(),
    "second-ctas": ADD_ONE_SOURCE.replace(".ctasize 32", ".ctasize 32\n.ctas 4").encode(),
    "superscript-register": ADD_ONE_SOURCE.replace("iadd r2, r1, r0", "iadd r2, r1, r\u00b2").encode(),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_KERNELS))
@pytest.mark.parametrize("command", ["profile", "protect", "report"])
def test_malformed_kernel_file_exits_3(tmp_path, command, kind, capsys):
    """A kernel file that does not decode, parse or validate is a bad
    artifact, and leaves no ``--out`` directory behind."""
    kernel = tmp_path / "bad.wir"
    kernel.write_bytes(_MALFORMED_KERNELS[kind])
    assert main([command, "--kernel", str(kernel), "--out", str(tmp_path / "out")]) == 3
    assert f"malformed kernel file {kernel}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content", ["[]", "{}", json.dumps({"pct_reliable_warps": "x"}), json.dumps({"pct_reliable_warps": True})],
    ids=["list", "empty-object", "string-share", "bool-share"],
)
@pytest.mark.parametrize("artifact", ["stats.json", "stats_remapped.json"])
def test_malformed_stats_file_exits_3(tmp_path, artifact, content, capsys):
    """``report`` copies ``pct_reliable_warps`` into bars.csv, so it must
    be a number in a JSON object."""
    out = _pathfinder_artifacts(tmp_path)
    (tmp_path / artifact).write_text(content)
    assert main(["report", "--mode", "correct", "--fixture", "pathfinder_k1", *out]) == 3
    assert f"{tmp_path / artifact} must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "bars.csv").exists()


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        json.dumps({"compare_per_store": "one"}),
        json.dumps({"op_cycles": {"iadd": 1}}),
        "[]",
        json.dumps({"op_cycles": {op: 0 for op in CostTable().op_cycles}, "vote_per_store": 0}),
        json.dumps({"vote_per_store": -2}),
        json.dumps({"op_cycles": {**CostTable().op_cycles, "ldd": 40}}),
        json.dumps({"vote_per_stor": 9}),
    ],
    ids=[
        "missing",
        "not-json",
        "string-count",
        "missing-opcodes",
        "not-an-object",
        "all-zero",
        "negative-vote",
        "unknown-opcode",
        "misspelt-key",
    ],
)
def test_malformed_cost_table_exits_3(tmp_path, content, capsys):
    table = tmp_path / "costs.json"
    if content is not None:
        table.write_text(content)
    assert main(["suite", "--cost-table", str(table), "--out", str(tmp_path / "out")]) == 3
    assert "cost table" in capsys.readouterr().err


def test_negative_op_cycles_exit_3_before_a_report_is_written(tmp_path, capsys):
    save_profile(generate_fixture("pathfinder_k1").profile, tmp_path / "profile.csv")
    out = ["--out", str(tmp_path)]
    assert main(["classify", *out]) == 0 and main(["remap", *out]) == 0
    table = tmp_path / "costs.json"
    table.write_text(json.dumps({"op_cycles": {**CostTable().op_cycles, "iadd": -1}}))
    argv = ["report", "--mode", "correct", "--fixture", "pathfinder_k1", "--cost-table", str(table)]
    assert main([*argv, *out]) == 3
    assert "cost table" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _first_order(edit):
    def apply(plan):
        plan["ctas"][0]["new_order"] = edit(plan["ctas"][0]["new_order"])

    return apply


@pytest.mark.parametrize("command", ["protect", "report"])
@pytest.mark.parametrize(
    "corrupt",
    [
        _first_order(lambda order: [order[0]] * len(order)),
        _first_order(lambda order: order[:-1]),
        _first_order(lambda order: [str(t) for t in order]),
        lambda plan: plan.update(ctas=[]),
        lambda plan: plan.update(tau=2),
    ],
    ids=["repeated-thread", "short", "string-ids", "no-ctas", "tau-out-of-range"],
)
def test_plan_the_pipeline_cannot_run_exits_3(tmp_path, command, corrupt, capsys):
    """A plan.json that still matches its profile's digest but holds a
    layout that is not a permutation, or a tau outside [0, 1]."""
    save_profile(generate_fixture("gaussian_k1").profile, tmp_path / "profile.csv")
    out = ["--out", str(tmp_path)]
    assert main(["classify", *out]) == 0 and main(["remap", *out]) == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    corrupt(plan)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    assert main([command, "--fixture", "gaussian_k1", *out]) == 3
    assert "plan" in capsys.readouterr().err


def _pathfinder_artifacts(tmp_path):
    save_profile(generate_fixture("pathfinder_k1").profile, tmp_path / "profile.csv")
    out = ["--out", str(tmp_path)]
    assert main(["classify", *out]) == 0 and main(["remap", *out]) == 0
    return out


@pytest.mark.parametrize("command", ["profile", "protect", "emit"])
def test_unknown_fixture_exits_2(tmp_path, command, capsys):
    """A test-only fixture such as uniform_r50 is not in the table either.
    A refused fixture leaves no ``--out`` directory behind."""
    for name in ("nope", "uniform_r50"):
        assert main([command, "--fixture", name, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown fixture '{name}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["profile", "protect", "report"])
def test_missing_kernel_file_exits_3(tmp_path, command, capsys):
    """A missing ``--kernel`` leaves no ``--out`` directory behind."""
    argv = [command, "--kernel", str(tmp_path / "missing.wir"), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "missing.wir does not exist" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["profile", "protect", "report"])
@pytest.mark.parametrize("flags", [["--kernel"], ["--inputs"], ["--kernel", "--inputs"]], ids=["kernel", "inputs", "both"])
def test_fixture_with_kernel_or_inputs_exits_2(tmp_path, command, flags, capsys):
    """A fixture brings its own kernel and inputs, so a ``--kernel`` or
    ``--inputs`` beside it could not take effect: the run is refused before
    anything is read and leaves no ``--out`` directory behind."""
    paths = [arg for flag in flags for arg in (flag, str(tmp_path / "missing"))]
    sample = ["--sample", "0.001"] if command == "profile" else []
    assert main([command, "--fixture", "pathfinder_k1", *paths, *sample, "--out", str(tmp_path / "out")]) == 2
    assert "--fixture cannot be combined with --kernel or --inputs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_UNREAD_FLAGS = [
    *((command, "--cost-table", "t.json") for command in ("profile", "classify", "remap", "sweep")),
    *((command, "--budget", "10") for command in ("classify", "remap", "sweep", "suite")),
    *((command, "--tau", "0.1") for command in ("protect", "report")),
    ("protect", "--mode", "none"),
]


@pytest.mark.parametrize(
    "command, flag, value", _UNREAD_FLAGS, ids=[f"{c}{f}-{v}" for c, f, v in _UNREAD_FLAGS]
)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, command, flag, value, capsys):
    """Each command takes only the flags it reads; the rest are usage errors."""
    required = ["--taus", "0.05"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    refusal = f"invalid choice: '{value}'" if flag == "--mode" else f"unrecognized arguments: {flag}"
    assert refusal in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("overhead", ["-2", "-1"])
def test_remap_overhead_of_minus_one_or_below_exits_2(tmp_path, overhead, capsys):
    out = _pathfinder_artifacts(tmp_path)
    argv = ["report", "--mode", "correct", "--fixture", "pathfinder_k1", "--remap-overhead", overhead]
    assert main([*argv, *out]) == 2
    assert "remap overhead" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_remap_overhead_with_mode_none_exits_2(tmp_path, capsys):
    """``--mode none`` costs the original layout alone, so a
    ``--remap-overhead`` could not take effect: the run is refused before
    anything is read.  Without it, the report records no overhead; the
    detect and correct modes record the default, 0."""
    argv = ["report", "--mode", "none", "--fixture", "pathfinder_k1"]
    assert main([*argv, "--remap-overhead", "7", "--out", str(tmp_path / "out")]) == 2
    assert "--remap-overhead cannot be combined with --mode none" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    out = _pathfinder_artifacts(tmp_path)
    assert main([*argv, *out]) == 0
    assert "remap_overhead" not in json.loads((tmp_path / "report.json").read_text())["config"]
    assert main(["report", "--mode", "correct", "--fixture", "pathfinder_k1", *out]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["config"]["remap_overhead"] == "0"


def _pathfinder_variant(tmp_path, edit):
    """``--kernel`` and ``--inputs`` arguments for pathfinder_k1's source
    with ``edit`` applied and its own inputs."""
    emitted = tmp_path / "emitted"
    assert main(["emit", "--fixture", "pathfinder_k1", "--out", str(emitted)]) == 0
    kernel = tmp_path / "variant.wir"
    kernel.write_text(edit((emitted / "pathfinder_k1.wir").read_text()))
    return ["--kernel", str(kernel), "--inputs", str(emitted / "pathfinder_k1_inputs.json")]


@pytest.mark.parametrize("mode", ["none", "correct"])
def test_report_refuses_a_kernel_other_than_the_profiled_one(tmp_path, mode, capsys):
    """The profile names the kernel it was measured on: a ``--kernel`` of
    another name exits 2 in every mode, before anything is written."""
    out = _pathfinder_artifacts(tmp_path)
    kernel = _pathfinder_variant(tmp_path, lambda source: source.replace(".kernel pathfinder_k1", ".kernel other"))
    assert main(["report", "--mode", mode, *kernel, *out]) == 2
    assert "was built for kernel 'pathfinder_k1', not 'other'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "bars.csv").exists()


def test_report_none_refuses_a_kernel_whose_geometry_is_not_the_profiled_one(tmp_path, capsys):
    out = _pathfinder_artifacts(tmp_path)
    kernel = _pathfinder_variant(tmp_path, lambda source: source.replace(".ctas 6\n", ".ctas 3\n"))
    assert main(["report", "--mode", "none", *kernel, *out]) == 2
    assert "warp layout covers 768 threads, flags cover 1536" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pathfinder_artifacts_are_pinned(tmp_path):
    """bars.csv, sweep.csv, suite_bars.csv and both kinds of report cost on
    pathfinder_k1's declared profile, seed 0.  A change to the cost model,
    the fixtures or the regrouping that moves them re-pins them on purpose."""
    out = _pathfinder_artifacts(tmp_path)
    costs = {}
    for mode in ("none", "correct"):
        assert main(["report", "--mode", mode, "--fixture", "pathfinder_k1", *out]) == 0
        costs[mode] = json.loads((tmp_path / "report.json").read_text())["cost"]
    assert costs == {
        "none": {"kernel": "pathfinder_k1", "cycles_base": 11550, "cycles_remapped": 11550.0},
        "correct": {
            "kernel": "pathfinder_k1",
            "cycles_base": 11550,
            "cycles_remapped": 9832.0,
            "cycles_partial_detect": 19838.0,
            "cycles_partial_correct": 29844.0,
            "cycles_full_rmt": 24636,
            "cycles_full_tmr": 37722,
            "savings_detect_pct": 19.475564214969964,
            "savings_correct_pct": 20.88436456179418,
            "remap_overhead_pct": -14.874458874458874,
            "protected_warps": 42,
            "total_warps": 48,
        },
    }
    assert main(["sweep", "--taus", "0.04,0.05", *out]) == 0
    assert main(["suite", "--out", str(tmp_path / "suite")]) == 0
    assert {name: _sha256(tmp_path / name) for name in ("bars.csv", "sweep.csv", "suite/suite_bars.csv")} == {
        "bars.csv": "16eb178429515baced3f825760a2b395a2cb184918bd93a6a9a75abd9d434e40",
        "sweep.csv": "d3a23e7da64e9ef1d4e0d9d60bde7f463b2e763c1442d7dde8bb9fb282339375",
        "suite/suite_bars.csv": "3b752fe26f07c7f7b527f684beb6cc28125f4a376e21230dc6b9e00aea4a2020",
    }


def test_suite_refuses_a_remap_overhead_of_minus_two(tmp_path, capsys):
    assert main(["suite", "--remap-overhead", "-2", "--out", str(tmp_path)]) == 2
    assert "remap overhead" in capsys.readouterr().err
    assert not (tmp_path / "suite_report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--mode", "correct", "--fixture", "pathfinder_k1", "--remap-overhead", "1e401"],
        ["suite", "--remap-overhead", "1e401"],
        ["sweep", "--taus", "0.05,1e401"],
        ["classify", "--tau", "1e-401"],
    ],
    ids=["report", "suite", "sweep", "classify"],
)
def test_flag_beyond_binary64_range_exits_2(tmp_path, argv, capsys):
    out = _pathfinder_artifacts(tmp_path)
    assert main([*argv, *out]) == 2
    assert "beyond binary64 range" in capsys.readouterr().err


def test_remap_overhead_whose_figures_overflow_a_float_exits_2(tmp_path, capsys):
    out = _pathfinder_artifacts(tmp_path)
    argv = ["report", "--mode", "correct", "--fixture", "pathfinder_k1", "--remap-overhead", "1e308"]
    assert main([*argv, *out]) == 2
    assert "overflow a float" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_profile_field_beyond_binary64_range_exits_3(tmp_path, capsys):
    out = _pathfinder_artifacts(tmp_path)
    lines = (tmp_path / "profile.csv").read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    row[5] = "1e401"
    lines[1] = ",".join(row)
    (tmp_path / "profile.csv").write_text("".join(lines))
    assert main(["classify", *out]) == 3
    assert "beyond binary64 range" in capsys.readouterr().err


def test_protect_whose_fault_free_run_hangs_exits_2(tmp_path, capsys):
    out = _pathfinder_artifacts(tmp_path)
    assert main(["protect", "--fixture", "pathfinder_k1", "--budget", "1", *out]) == 2
    assert "fault-free run of warp (0, 0) terminated hung" in capsys.readouterr().err
    assert not (tmp_path / "protection.json").exists()


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["classify"], "profile.csv"),
        (["remap"], "plan.json"),
        (["protect", "--fixture", "pathfinder_k1"], "plan.json"),
        (["report", "--mode", "none", "--fixture", "pathfinder_k1"], "stats.json"),
        (["profile", "--kernel", "{dir}"], None),
        (["profile", "--kernel", "{kernel}", "--inputs", "{dir}"], None),
        (["suite", "--cost-table", "{dir}"], None),
    ],
    ids=["profile-csv", "remap-writes-plan", "protect-reads-plan", "stats", "kernel", "inputs", "cost-table"],
)
def test_artifact_path_that_is_a_directory_exits_3(tmp_path, argv, artifact, capsys):
    """Reading or writing the artifact fails with an OSError, which exits 3
    like any other bad artifact."""
    out = _pathfinder_artifacts(tmp_path)
    if artifact is not None:
        (tmp_path / artifact).unlink()
        (tmp_path / artifact).mkdir()
    kernel = tmp_path / "add_one.wir"
    kernel.write_text(ADD_ONE_SOURCE)
    (tmp_path / "a_directory").mkdir()
    argv = [arg.format(dir=tmp_path / "a_directory", kernel=kernel) for arg in argv]
    assert main(["--error-json", *argv, *out]) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["exit_code"] == 3 and error["type"] == "IsADirectoryError"


@pytest.mark.parametrize(
    "argv",
    [["classify"], ["profile", "--fixture", "pathfinder_k1"], ["emit", "--fixture", "pathfinder_k1"], ["suite"]],
    ids=["classify", "profile", "emit", "suite"],
)
def test_out_naming_a_file_exits_2(tmp_path, argv, capsys):
    (tmp_path / "a_file").write_text("")
    assert main([*argv, "--out", str(tmp_path / "a_file")]) == 2
    assert "is not a directory" in capsys.readouterr().err


COMMANDS = ["profile", "classify", "remap", "protect", "report", "sweep", "suite", "fixtures", "emit"]

# Modules a command must not load: classify and remap never run the
# interpreter, and a --kernel run never builds the fixture table.
# Only profile finishes ``ThreadRun``s, so only it loads ``lone``.
NOT_LOADED = {
    "emit": {"lone"},
    "classify": {"interp", "faults", "fixtures", "protect", "costs", "lone"},
    "remap": {"interp", "faults", "fixtures", "protect", "costs", "lone"},
    "protect": {"fixtures", "lone"},
    "report": {"fixtures", "lone"},
    "sweep": {"lone"},
    "suite": {"lone"},
    "fixtures": {"lone"},
}


# Stdlib modules no command may import: ``dataclasses`` and the ``inspect``
# it pulls in cost a start-up more than the package's own value types do.
# ``hashlib`` and its ``_hashlib`` map OpenSSL's libcrypto: profile digests
# and site seeds use the interpreter's built-in SHA-256.
NEVER_LOADED = {"dataclasses", "inspect", "hashlib", "_hashlib"}


def _run_importtime(cwd, *args):
    """Run ``python -X importtime *args`` with ``src`` on the path; return
    the process and the names of the modules it imported."""
    src = str(Path(warpshield.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    lines = proc.stderr.splitlines()
    return proc, {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


def _fresh_cli(cwd, *argv):
    """Run ``python -m warpshield.cli`` in a new interpreter; return its exit
    code, its stderr, the warpshield modules it imported and the other
    modules it imported that a bare interpreter (``site`` and any ``.pth``
    file) does not already load."""
    proc, imported = _run_importtime(cwd, "-m", "warpshield.cli", *argv)
    _, bare = _run_importtime(cwd, "-c", "pass")
    errors = "\n".join(line for line in proc.stderr.splitlines() if not line.startswith("import time:"))
    modules = {name.split(".", 1)[1] for name in imported if name.startswith("warpshield.")}
    others = {name for name in imported - bare if name.split(".", 1)[0] != "warpshield"}
    return proc.returncode, errors, modules, others


def test_every_command_runs_in_a_fresh_interpreter_and_loads_only_what_it_uses(tmp_path):
    out = tmp_path / "pathfinder_k1"
    kernel = ["--kernel", str(out / "pathfinder_k1.wir"), "--inputs", str(out / "pathfinder_k1_inputs.json")]
    runs = [
        ["emit", "--fixture", "pathfinder_k1", "--out", str(out)],
        ["classify", "--out", str(out)],
        ["remap", "--out", str(out)],
        ["protect", "--mode", "correct", *kernel, "--out", str(out)],
        ["report", "--mode", "correct", *kernel, "--out", str(out)],
        ["sweep", "--taus", "0.04,0.05", "--out", str(out)],
        ["profile", *kernel, "--sample", "0.01", "--out", str(tmp_path / "profiled")],
        ["suite", "--out", str(tmp_path / "suite")],
        ["fixtures"],
    ]
    assert sorted(argv[0] for argv in runs) == sorted(COMMANDS)
    for argv in runs:
        code, errors, modules, others = _fresh_cli(tmp_path, *argv)
        assert code == 0, (argv, errors)
        assert not modules & NOT_LOADED.get(argv[0], set()), (argv[0], sorted(modules))
        assert not others & NEVER_LOADED, (argv[0], sorted(others))
        if argv[0] == "emit":
            shutil.copy(out / "pathfinder_k1_profile.csv", out / "profile.csv")
    assert (out / "report.json").exists() and (tmp_path / "profiled" / "profile.csv").exists()


def test_help_of_every_command_exits_0(tmp_path):
    for argv in [["--help"], *([command, "--help"] for command in COMMANDS)]:
        code, errors, _, _ = _fresh_cli(tmp_path, *argv)
        assert code == 0, (argv, errors)

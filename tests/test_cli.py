import json

import pytest

from warpshield.cli import main
from warpshield.fixtures import generate_fixture
from warpshield.interp import CostTable
from warpshield.profiling import load_profile, save_profile

from support import ADD_ONE_SOURCE


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


def test_corrupt_plan_exits_3(tmp_path, capsys):
    save_profile(generate_fixture("gaussian_k1").profile, tmp_path / "profile.csv")
    (tmp_path / "plan.json").write_text('{"ctas": [')
    assert main(["protect", "--fixture", "gaussian_k1", "--out", str(tmp_path)]) == 3
    assert "plan" in capsys.readouterr().err


def test_missing_profile_exits_3(tmp_path):
    assert main(["classify", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize(
    "content",
    [b"kernel,cta_id\n", b"kernel,\xff\n", b"x" * 200_000],
    ids=["short-header", "not-utf8", "overlong-field"],
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
    [None, "{not json", json.dumps({"in": [1, "2"]}), json.dumps({"in": [1, 2.5]}), "[1, 2]"],
    ids=["missing", "not-json", "string-word", "float-word", "not-an-object"],
)
def test_bad_inputs_file_exits_3(tmp_path, content, capsys):
    kernel = tmp_path / "add_one.wir"
    kernel.write_text(ADD_ONE_SOURCE)
    inputs = tmp_path / "inputs.json"
    if content is not None:
        inputs.write_text(content)
    argv = ["profile", "--kernel", str(kernel), "--inputs", str(inputs)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert "inputs file" in capsys.readouterr().err


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
    ],
    ids=["missing", "not-json", "string-count", "missing-opcodes", "not-an-object", "all-zero", "negative-vote"],
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

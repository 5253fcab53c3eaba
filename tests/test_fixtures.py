from fractions import Fraction

import pytest

from warpshield.classify import classify_threads, classify_warps, format_pct, kernel_stats
from warpshield.errors import FixtureError
from warpshield.fixtures import class_path_icnt, fixture_names, generate_fixture, remappable_suite, suite_specs
from warpshield.interp import execute
from warpshield.profiling import TAU_DEFAULT, profile_kernel

from support import PROBE_FIXTURE_NAMES, named_fixture

TABLE_ORDER = [
    "jmeint_k1",
    "laplacian_k1",
    "meanfilter_k1",
    "nn_k1",
    "nn_k2",
    "nn_k3",
    "nn_k4",
    "scp_k1",
    "conv2d_k1",
    "mvt_k1",
    "gaussian_k1",
    "gaussian_k2",
    "hotspot_k1",
    "nearestneighbor_k1",
    "pathfinder_k1",
    "srad_k3",
    "srad_k4",
]


def test_suite_has_seventeen_kernels_in_table_order():
    specs = suite_specs()
    assert len(specs) == 17
    assert [s.name for s in specs] == TABLE_ORDER
    assert sum(1 for s in specs if s.remappable) == 7


def test_every_fixture_reproduces_its_target_stats():
    # generation itself verifies targets; recompute here independently
    for fixture in map(generate_fixture, fixture_names()):
        flags = list(fixture.flags)
        stats = kernel_stats(classify_warps(flags, fixture.program.warps()), flags)
        got = (format_pct(stats.pct_reliable_warps), format_pct(stats.pct_reliable_threads))
        assert got == fixture.spec.expected, fixture.name


def test_generation_is_deterministic_per_seed():
    a = generate_fixture("jmeint_k1", seed=5)
    b = generate_fixture("jmeint_k1", seed=5)
    assert a.flags == b.flags
    assert a.level_of == b.level_of
    assert a.inputs == b.inputs
    assert a.program == b.program
    c = generate_fixture("jmeint_k1", seed=6)
    assert c.flags != a.flags  # scattered placement moves with the seed


def test_seed_does_not_move_target_stats():
    for seed in (1, 2, 3):
        fixture = generate_fixture("meanfilter_k1", seed=seed)
        flags = list(fixture.flags)
        stats = kernel_stats(classify_warps(flags, fixture.program.warps()), flags)
        assert format_pct(stats.pct_reliable_warps) == "17.19"


def test_fixture_kernels_execute_and_match_declared_icnt():
    for fixture in map(generate_fixture, fixture_names()):
        result = execute(fixture.program, fixture.inputs)
        assert result.termination == "completed", fixture.name
        assert result.per_thread_icnt == [t.icnt for t in fixture.profile.threads], fixture.name
        assert len(set(result.outputs["out"])) > 1, f"{fixture.name} produced constant output"


def test_mvt_all_threads_at_exact_published_fraction():
    fixture = generate_fixture("mvt_k1")
    assert all(t.sdc_pct == Fraction("0.6382") for t in fixture.profile.threads)


def test_meanfilter_has_fifteen_percent_fully_corrupting_threads():
    fixture = generate_fixture("meanfilter_k1")
    full = sum(1 for t in fixture.profile.threads if t.sdc_pct == 1)
    assert Fraction(full, len(fixture.profile.threads)) == Fraction(15, 100)


def test_gaussian_k2_dominant_class_sits_at_3_6_percent():
    fixture = generate_fixture("gaussian_k2")
    by_level = {}
    for level in fixture.level_of:
        by_level[level] = by_level.get(level, 0) + 1
    dominant = max(by_level, key=by_level.get)
    assert fixture.spec.levels[dominant] == Fraction("0.036")
    assert by_level[dominant] == 3602


def test_jmeint_every_warp_mixed_before_regrouping():
    fixture = generate_fixture("jmeint_k1")
    flags = list(fixture.flags)
    kinds = {c.kind for c in classify_warps(flags, fixture.program.warps())}
    assert kinds == {"mixed"}


def test_scp_every_thread_above_forty_percent():
    fixture = generate_fixture("scp_k1")
    assert all(t.sdc_pct > Fraction(2, 5) for t in fixture.profile.threads)


def test_class_paths_have_distinct_instruction_counts():
    counts = [class_path_icnt(k) for k in range(5)]
    assert len(set(counts)) == 5
    assert counts == sorted(counts)


def test_profile_group_ids_track_path_length():
    fixture = generate_fixture("laplacian_k1")
    by_group = {}
    for t in fixture.profile.threads:
        by_group.setdefault(t.group_id, set()).add(t.icnt)
    for icnts in by_group.values():
        assert len(icnts) == 1
    ordered = [next(iter(by_group[g])) for g in sorted(by_group)]
    assert ordered == sorted(ordered)


@pytest.mark.parametrize("name", PROBE_FIXTURE_NAMES)
def test_injected_classes_match_declared_classes(name):
    """The generated code paths don't just declare reliability; they measure
    that way under real injection."""
    fixture = named_fixture(name)
    measured = profile_kernel(fixture.program, fixture.inputs, mode="pruned")
    declared = classify_threads(fixture.profile, TAU_DEFAULT)
    assert classify_threads(measured, TAU_DEFAULT) == declared
    for t in measured.threads:
        if declared[t.thread_id]:
            assert t.sdc_pct <= TAU_DEFAULT
        else:
            assert t.sdc_pct > Fraction(1, 2)


def test_unknown_fixture_name():
    with pytest.raises(FixtureError, match="unknown fixture"):
        generate_fixture("nope")


def test_registry_exposes_suite_and_probes():
    assert fixture_names() == TABLE_ORDER


def test_remappable_suite_subset():
    names = [f.name for f in remappable_suite()]
    assert names == [
        "jmeint_k1",
        "laplacian_k1",
        "meanfilter_k1",
        "conv2d_k1",
        "gaussian_k2",
        "hotspot_k1",
        "pathfinder_k1",
    ]

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from warpshield.classify import (
    MIXED,
    RELIABLE,
    UNRELIABLE,
    classify_threads,
    classify_warps,
    format_pct,
    kernel_stats,
    scatter_rows,
    stats_to_json,
)
from warpshield.errors import ValidationError
from warpshield.fixtures import REMAPPABLE_BEFORE_PCTS, generate_fixture, suite_specs
from warpshield.ir import warps_for
from warpshield.profiling import KernelProfile, ThreadProfile


def _profile(sdc_values, cta_size=None):
    n = len(sdc_values)
    cta_size = cta_size or n
    threads = tuple(
        ThreadProfile(
            thread_id=i,
            cta_id=i // cta_size,
            icnt=4,
            group_id=gid,
            masked_pct=1 - sdc,
            sdc_pct=sdc,
            other_pct=Fraction(0),
            provenance="measured",
        )
        for i, sdc in enumerate(sdc_values)
        for gid in [sorted(set(sdc_values)).index(sdc)]
    )
    return KernelProfile(kernel="synthetic", threads=threads)


def test_threshold_boundary_is_inclusive():
    profile = _profile([Fraction(1, 20)])
    assert classify_threads(profile, Fraction(1, 20)) == [True]
    assert classify_threads(profile, 0.05) == [True]  # float thresholds read as decimals
    assert classify_threads(profile, "0.05") == [True]


def test_equal_values_in_distinct_fraction_objects_classify_alike():
    """classify_threads compares each distinct sdc_pct object once; equal
    values held in distinct objects, or one object shared, agree with a
    per-thread comparison."""
    shared = Fraction(1, 20)
    sdc = [shared, Fraction(1, 20), Fraction(5, 100), shared, Fraction(3, 50), Fraction(6, 100), Fraction(0)]
    profile = _profile(sdc)
    for tau in (Fraction(0), Fraction(1, 20), Fraction(59, 1000), Fraction(3, 50), Fraction(1)):
        assert classify_threads(profile, tau) == [t.sdc_pct <= tau for t in profile.threads]


def test_threshold_zero_requires_exactly_zero():
    profile = _profile([Fraction(0), Fraction(1, 10**9)])
    assert classify_threads(profile, 0) == [True, False]


def test_threshold_one_accepts_everything():
    profile = _profile([Fraction(0), Fraction(1, 2), Fraction(1)])
    assert classify_threads(profile, 1) == [True, True, True]


def test_threshold_out_of_range():
    with pytest.raises(ValidationError):
        classify_threads(_profile([Fraction(0)]), 2)


def test_gaussian_fixture_warp_classes():
    fixture = generate_fixture("gaussian_k1")
    flags = list(fixture.flags)
    kinds = [c.kind for c in classify_warps(flags, fixture.program.warps())]
    assert kinds[0] == UNRELIABLE
    assert kinds[1] == MIXED
    assert kinds[2:] == [RELIABLE] * 14


def test_all_reliable_and_alternating_classes():
    warps = warps_for(1, 64)
    assert {c.kind for c in classify_warps([True] * 64, warps)} == {RELIABLE}
    alternating = [t % 2 == 0 for t in range(64)]
    assert {c.kind for c in classify_warps(alternating, warps)} == {MIXED}


def test_partial_warp_follows_same_rule():
    warps = warps_for(1, 40)
    flags = [True] * 32 + [False] * 8
    kinds = [c.kind for c in classify_warps(flags, warps)]
    assert kinds == [RELIABLE, UNRELIABLE]


def test_kernel_stats_table_rows():
    gaussian = generate_fixture("gaussian_k1")
    flags = list(gaussian.flags)
    stats = kernel_stats(classify_warps(flags, gaussian.program.warps()), flags)
    assert stats.pct_reliable_warps == Fraction(14, 16)
    assert format_pct(stats.pct_reliable_warps) == "87.50"
    assert format_pct(stats.pct_reliable_threads) == "90.62"
    assert stats.warp_counts == (14, 1, 1)

    scp = generate_fixture("scp_k1")
    flags = list(scp.flags)
    stats = kernel_stats(classify_warps(flags, scp.program.warps()), flags)
    assert format_pct(stats.pct_reliable_warps) == "0.00"
    assert format_pct(stats.pct_reliable_threads) == "0.00"

    nn = generate_fixture("nn_k1")
    flags = list(nn.flags)
    stats = kernel_stats(classify_warps(flags, nn.program.warps()), flags)
    assert format_pct(stats.pct_reliable_warps) == "100.00"


def test_class_partition():
    fixture = generate_fixture("hotspot_k1")
    flags = list(fixture.flags)
    stats = kernel_stats(classify_warps(flags, fixture.program.warps()), flags)
    rel, unrel, mixed = stats.warp_counts
    assert rel + unrel + mixed == stats.total_warps == 48


@settings(max_examples=60, deadline=None)
@given(
    sdc=st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=40), min_size=64, max_size=64
    ),
    taus=st.tuples(
        st.fractions(min_value=0, max_value=1, max_denominator=50),
        st.fractions(min_value=0, max_value=1, max_denominator=50),
    ),
)
def test_reliability_monotone_in_threshold(sdc, taus):
    profile = _profile(sdc, cta_size=64)
    lo, hi = sorted(taus)
    flags_lo = classify_threads(profile, lo)
    flags_hi = classify_threads(profile, hi)
    assert all(h or not l for l, h in zip(flags_lo, flags_hi))  # lo-set is a subset
    warps = warps_for(1, 64)
    stats_lo = kernel_stats(classify_warps(flags_lo, warps), flags_lo, lo)
    stats_hi = kernel_stats(classify_warps(flags_hi, warps), flags_hi, hi)
    assert stats_lo.pct_reliable_threads <= stats_hi.pct_reliable_threads
    assert stats_lo.pct_reliable_warps <= stats_hi.pct_reliable_warps


def test_seven_fixture_mean_before_regrouping():
    specs = {s.name: s for s in suite_specs()}
    remappable = [s for s in specs.values() if s.remappable]
    assert tuple(s.expected[0] for s in remappable) == REMAPPABLE_BEFORE_PCTS
    mean = sum(Fraction(p) for p in REMAPPABLE_BEFORE_PCTS) / 7
    assert format_pct(mean / 100) == "23.40"


def test_format_pct_round_half_even():
    assert format_pct(Fraction(464, 512)) == "90.62"  # 90.625 ties to even
    assert format_pct(Fraction(79, 160)) == "49.38"  # 49.375 ties to even
    assert format_pct(Fraction(1, 2)) == "50.00"
    assert format_pct(Fraction(1, 3)) == "33.33"
    assert format_pct(Fraction(0)) == "0.00"
    assert format_pct(Fraction(1)) == "100.00"


def test_stats_json_shape():
    fixture = generate_fixture("gaussian_k1")
    flags = list(fixture.flags)
    stats = kernel_stats(classify_warps(flags, fixture.program.warps()), flags)
    payload = stats_to_json(stats, "gaussian_k1")
    assert payload == {
        "kernel": "gaussian_k1",
        "tau": 0.05,
        "pct_reliable_warps": 87.5,
        "pct_reliable_threads": 90.625,
        "warp_counts": {"reliable": 14, "unreliable": 1, "mixed": 1},
    }


def test_scatter_rows_mark_boundaries():
    fixture = generate_fixture("gaussian_k1")
    flags = list(fixture.flags)
    rows = scatter_rows(fixture.profile, flags, fixture.program.warps())
    assert len(rows) == 512
    warp_starts = [r[0] for r in rows if r[2]]
    assert warp_starts == list(range(0, 512, 32))
    cta_starts = [r[0] for r in rows if r[3]]
    assert cta_starts == [0]
    assert rows[0][4] == 0 and rows[511][4] == 1  # prefix unreliable, tail reliable

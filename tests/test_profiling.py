import csv
import hashlib
import io
from fractions import Fraction

import pytest

from warpshield.classify import classify_threads, classify_warps, format_pct, kernel_stats
from warpshield.errors import ValidationError
from warpshield.fixtures import fixture_names, generate_fixture
from warpshield.interp import execute
from warpshield.ir import parse_kernel
from warpshield.profiling import (
    PROFILE_HEADER,
    group_by_icnt,
    load_profile,
    profile_digest,
    profile_from_csv_text,
    profile_kernel,
    profile_to_csv_text,
    save_profile,
    to_fraction,
)

from support import add_one_inputs, add_one_kernel, two_group_kernel


def test_straight_line_kernel_is_one_group():
    program = add_one_kernel()
    golden = execute(program, add_one_inputs(program), record_writes=True)
    groups = group_by_icnt(golden)
    assert list(groups) == [0]
    assert groups[0] == list(range(64))


def test_parity_branch_yields_two_groups():
    program, inputs = two_group_kernel()
    golden = execute(program, inputs, record_writes=True)
    groups = group_by_icnt(golden)
    assert len(groups) == 2
    # group ids follow ascending instruction count: even path (8) then odd (12)
    assert groups[0] == [t for t in range(64) if t % 2 == 0]
    assert groups[1] == [t for t in range(64) if t % 2 == 1]
    assert golden.per_thread_icnt[0] == 8
    assert golden.per_thread_icnt[1] == 12


def test_prefix_branch_groups_48_and_464():
    src = """.kernel prefix48
.ctas 1
.ctasize 512
.in data 512
.out out 512
    movi r2, 48
    setp.lt r3, r62, r2
    bra r3, LONG
    ld r1, data[tid]
    st out[tid], r1
    exit
LONG: ld r1, data[tid]
    iadd r1, r1, r1
    iadd r1, r1, r1
    st out[tid], r1
    exit
"""
    program = parse_kernel(src)
    golden = execute(program, {"data": list(range(512))}, record_writes=True)
    groups = group_by_icnt(golden)
    assert sorted(len(g) for g in groups.values()) == [48, 464]
    assert groups[0] == list(range(48, 512))  # shorter path, larger cohort
    assert groups[1] == list(range(48))


def test_pruned_uniform_kernel_shares_fractions():
    program = add_one_kernel()
    profile = profile_kernel(program, add_one_inputs(program), mode="pruned")
    assert len({(t.masked_pct, t.sdc_pct, t.other_pct) for t in profile.threads}) == 1
    assert profile.threads[0].provenance == "measured"
    assert all(t.provenance == "extrapolated" for t in profile.threads[1:])


def test_add_one_sdc_fraction_matches_hand_count():
    """Trace oracle: 3 register writes x 32 bits, all on the live chain into
    the store, so the SDC fraction is exactly 1."""
    program = add_one_kernel()
    profile = profile_kernel(program, add_one_inputs(program), mode="pruned")
    assert all(t.sdc_pct == 1 for t in profile.threads)
    assert all(t.icnt == 5 for t in profile.threads)


def test_pruned_equals_exhaustive_on_behaviorally_identical_groups():
    program, inputs = two_group_kernel()
    pruned = profile_kernel(program, inputs, mode="pruned")
    exhaustive = profile_kernel(program, inputs, mode="exhaustive")
    for a, b in zip(pruned.threads, exhaustive.threads):
        assert (a.masked_pct, a.sdc_pct, a.other_pct) == (b.masked_pct, b.sdc_pct, b.other_pct)
        assert a.group_id == b.group_id and a.icnt == b.icnt


def test_profile_round_trip(tmp_path):
    program, inputs = two_group_kernel()
    profile = profile_kernel(program, inputs, mode="pruned")
    path = tmp_path / "profile.csv"
    save_profile(profile, path)
    loaded = load_profile(path)
    for a, b in zip(loaded.threads, profile.threads):
        assert (a.thread_id, a.cta_id, a.icnt, a.group_id, a.provenance) == (
            b.thread_id,
            b.cta_id,
            b.icnt,
            b.group_id,
            b.provenance,
        )
        # rendered as shortest decimals: exact for terminating fractions,
        # float-faithful for the rest
        assert float(a.sdc_pct) == float(b.sdc_pct)
        assert float(a.masked_pct) == float(b.masked_pct)
    assert profile_digest(loaded) == profile_digest(profile)
    # saving what we loaded is byte-identical
    save_profile(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _per_field_csv(profile):
    """The profile file format with every fraction rendered on its own."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_HEADER)
    for t in profile.threads:
        fractions = (t.masked_pct, t.sdc_pct, t.other_pct)
        writer.writerow(
            [profile.kernel, t.cta_id, t.thread_id, t.icnt, t.group_id]
            + [repr(float(x)) for x in fractions]
            + [t.provenance]
        )
    return out.getvalue()


def _sampled_exhaustive_profile():
    """Measured rows of one iCnt group differ: each thread samples its own sites."""
    program, inputs = two_group_kernel()
    profile = profile_kernel(program, inputs, mode="exhaustive", sample_fraction=0.2)
    groups = {}
    for t in profile.threads:
        groups.setdefault(t.group_id, set()).add((t.masked_pct, t.sdc_pct, t.other_pct))
    assert all(len(fractions) > 1 for fractions in groups.values())
    return profile


@pytest.mark.parametrize("name", [*fixture_names(), "sampled-exhaustive"])
def test_profile_file_is_the_per_field_rendering_and_round_trips(name, tmp_path):
    if name == "sampled-exhaustive":
        profile = _sampled_exhaustive_profile()
    else:
        profile = generate_fixture(name).profile
    expected = _per_field_csv(profile).encode()
    assert profile_digest(profile) == hashlib.sha256(expected).hexdigest()
    path = tmp_path / "profile.csv"
    save_profile(profile, path)
    assert path.read_bytes() == expected
    save_profile(load_profile(path), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == expected


def _csv(rows):
    header = "kernel,cta_id,thread_id,icnt,group_id,masked_pct,sdc_pct,other_pct,provenance"
    return "\n".join([header] + rows) + "\n"


def test_load_rejects_fraction_out_of_range():
    text = _csv(["k,0,0,5,0,-0.2,1.2,0.0,measured"])
    with pytest.raises(ValidationError, match="outside"):
        profile_from_csv_text(text)


def test_load_rejects_bad_sum():
    text = _csv(["k,0,0,5,0,0.5,0.4,0.2,measured"])
    with pytest.raises(ValidationError, match="sum"):
        profile_from_csv_text(text)


def test_load_rejects_duplicate_and_missing_threads():
    dup = _csv(["k,0,0,5,0,0.5,0.5,0.0,measured", "k,0,0,5,0,0.5,0.5,0.0,measured"])
    with pytest.raises(ValidationError, match="duplicate"):
        profile_from_csv_text(dup)
    gap = _csv(["k,0,0,5,0,0.5,0.5,0.0,measured", "k,0,2,5,0,0.5,0.5,0.0,measured"])
    with pytest.raises(ValidationError, match="missing"):
        profile_from_csv_text(gap)


def test_load_rejects_group_fraction_conflict():
    text = _csv(
        [
            "k,0,0,5,0,0.5,0.5,0.0,measured",
            "k,0,1,5,0,0.4,0.6,0.0,extrapolated",
        ]
    )
    with pytest.raises(ValidationError, match="conflicting"):
        profile_from_csv_text(text)


def test_load_accepts_measured_rows_that_differ_within_a_group():
    text = _csv(
        [
            "k,0,0,5,0,0.5,0.5,0.0,measured",
            "k,0,1,5,0,0.4,0.6,0.0,measured",
            "k,0,2,5,0,0.5,0.5,0.0,extrapolated",
        ]
    )
    assert [t.sdc_pct for t in profile_from_csv_text(text).threads] == [
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(1, 2),
    ]


def test_load_rejects_extrapolated_group_without_measured_row():
    text = _csv(["k,0,0,5,0,0.5,0.5,0.0,extrapolated"])
    with pytest.raises(ValidationError, match="no measured row"):
        profile_from_csv_text(text)


def test_load_rejects_malformed_row():
    with pytest.raises(ValidationError, match="expected 9 fields"):
        profile_from_csv_text(_csv(["k,0,0,5,0,0.5,0.5,measured"]))


def test_gaussian_fixture_profile_loads_and_reproduces_table_row(tmp_path):
    fixture = generate_fixture("gaussian_k1")
    path = tmp_path / "gaussian.csv"
    save_profile(fixture.profile, path)
    profile = load_profile(path)
    flags = classify_threads(profile, Fraction(1, 20))
    assert sum(flags) == 464
    stats = kernel_stats(classify_warps(flags, fixture.program.warps()), flags)
    assert format_pct(stats.pct_reliable_threads) == "90.62"
    assert format_pct(stats.pct_reliable_warps) == "87.50"


def test_to_fraction_decimal_semantics():
    assert to_fraction("0.036") == Fraction(9, 250)
    assert to_fraction(0.036) == Fraction(9, 250)
    assert to_fraction(0.05) == Fraction(1, 20)
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValidationError):
        to_fraction("not-a-number")


def test_rendered_fractions_parse_back_exactly_for_terminating_decimals():
    fixture = generate_fixture("gaussian_k2")
    text = profile_to_csv_text(fixture.profile)
    reloaded = profile_from_csv_text(text)
    assert reloaded == fixture.profile  # 0.036 and friends survive the file format

import csv
import hashlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from warpshield.classify import classify_threads, classify_warps, format_pct, kernel_stats, scatter_rows
from warpshield.errors import ValidationError
from warpshield.fixtures import generate_fixture, suite_specs
from warpshield.interp import execute
from warpshield.ir import parse_kernel, warps_for
from warpshield.profiling import (
    PROFILE_HEADER,
    ThreadProfile,
    group_by_icnt,
    load_profile,
    parse_fraction,
    profile_digest,
    profile_from_csv_text,
    profile_kernel,
    profile_to_csv_text,
    save_profile,
    text_digest,
    to_fraction,
)
from warpshield.remap import build_plan

import warpshield.faults
from support import (
    FIXTURE_NAMES,
    add_one_inputs,
    add_one_kernel,
    chase_kernel,
    dead_write_kernel,
    named_fixture,
    profile_of_rows,
    profile_per_campaign,
    two_group_kernel,
)


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


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "sampled-exhaustive"])
def test_profile_file_is_the_per_field_rendering_and_round_trips(name, tmp_path):
    if name == "sampled-exhaustive":
        profile = _sampled_exhaustive_profile()
    else:
        profile = named_fixture(name).profile
    expected = _per_field_csv(profile).encode()
    assert profile_digest(profile) == hashlib.sha256(expected).hexdigest()
    path = tmp_path / "profile.csv"
    assert text_digest(save_profile(profile, path)) == profile_digest(profile)
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


_ROW = "5,0,0.5,0.5,0.0,measured"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([f"k,0,0,{_ROW}", f"j,0,1,{_ROW}"], "profile row 3: mixed kernel names"),
        ([f"k,0,0,{_ROW}", f"k,0,1,{_ROW}", f"k,1,2,{_ROW}"], "not a multiple of the CTA count"),
        ([f"k,0,0,{_ROW}", f"k,1,1,{_ROW}", f"k,0,2,{_ROW}", f"k,1,3,{_ROW}"], "not contiguous equal-size blocks"),
        ([f"k,-1,0,{_ROW}"], "not contiguous equal-size blocks"),
    ],
    ids=["mixed-kernels", "ragged-ctas", "interleaved-ctas", "cta-minus-one"],
)
def test_load_rejects_mixed_kernels_and_bad_cta_blocking(rows, message):
    with pytest.raises(ValidationError, match=message):
        profile_from_csv_text(_csv(rows))


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


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e308", Fraction(10**308)),
        ("123.45e306", Fraction(12345 * 10**304)),
        ("0.001e-321", Fraction(1, 10**324)),
        ("1000e-327", Fraction(1, 10**324)),
        ("5E-1", Fraction(1, 2)),
        ("1/3", Fraction(1, 3)),
    ],
)
def test_parse_fraction_keeps_every_value_in_binary64_range(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize(
    "text", ["1e401", "-1e401", "1e-401", "0.001e-322", "0e401", "9e308", "1" + "0" * 309]
)
def test_parse_fraction_refuses_values_beyond_binary64_range(text):
    """Just past the limit: a far larger exponent would take Fraction hours."""
    with pytest.raises(ValueError, match="beyond binary64 range"):
        parse_fraction(text)
    with pytest.raises(ValidationError, match="beyond binary64 range"):
        to_fraction(text)


def test_profile_field_beyond_binary64_range_is_refused():
    with pytest.raises(ValidationError, match="profile row 2: exponent beyond binary64 range"):
        profile_from_csv_text(_csv(["k,0,0,5,0,1e401,0.0,0.0,measured"]))


def test_rendered_fractions_parse_back_exactly_for_terminating_decimals():
    fixture = generate_fixture("gaussian_k2")
    text = profile_to_csv_text(fixture.profile)
    reloaded = profile_from_csv_text(text)
    assert reloaded == fixture.profile  # 0.036 and friends survive the file format


def _rows(kernel="k", **changes):
    """A two-thread profile; the second row takes ``changes``."""
    half = Fraction(1, 2)
    first = ThreadProfile(0, 0, 5, 0, half, half, Fraction(0), "measured")
    second = ThreadProfile(1, 0, 5, 1, half, half, Fraction(0), "measured")._replace(**changes)
    return kernel, (first, second)


@pytest.mark.parametrize("kernel", ['a,"b', "line\nbreak", "", " spaced "])
def test_kernel_name_that_needs_quoting_renders_per_field_and_round_trips(kernel):
    profile = profile_of_rows(*_rows(kernel))
    text = profile_to_csv_text(profile)
    assert text == _per_field_csv(profile)
    assert profile_from_csv_text(text) == profile


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"masked_pct": Fraction(-1, 2), "sdc_pct": Fraction(3, 2)}, "thread 1: masked_pct=-0.5 outside"),
        ({"sdc_pct": Fraction(2, 5)}, "thread 1: outcome fractions sum to 0.9"),
        ({"provenance": "guessed"}, "bad provenance 'guessed'"),
    ],
    ids=["out-of-range", "bad-sum", "bad-provenance"],
)
def test_bad_rows_built_directly_are_refused_with_the_kernel_profile(changes, message):
    """Each outcome-table row is checked once, and the error names the first
    thread that uses the bad row."""
    kernel, threads = _rows(**changes)
    with pytest.raises(ValidationError, match=message):
        profile_of_rows(kernel, threads)


@pytest.mark.parametrize(
    "kernel, mode, fraction",
    [
        (two_group_kernel, "pruned", 1.0),
        (two_group_kernel, "exhaustive", 0.15),
        (dead_write_kernel, "pruned", 1.0),
        (dead_write_kernel, "exhaustive", 1.0),
        (chase_kernel, "pruned", 0.1),
        (chase_kernel, "exhaustive", 0.02),
    ],
)
def test_one_campaign_per_warp_equals_a_campaign_per_group_or_thread(monkeypatch, kernel, mode, fraction):
    """profile_kernel samples each injected thread as before and runs one
    campaign per warp that hosts injected threads; profile.csv is the same
    as with one campaign per iCnt group (pruned) or per thread (exhaustive)."""
    program, inputs = kernel()
    reference = profile_per_campaign(program, inputs, mode, fraction, 4, warpshield.faults.run_campaign)
    calls = []
    run_campaign = warpshield.faults.run_campaign

    def counted(*args, **kwargs):
        calls.append(args[2])
        return run_campaign(*args, **kwargs)

    monkeypatch.setattr(warpshield.faults, "run_campaign", counted)
    profile = profile_kernel(program, inputs, mode, fraction, seed=4)
    assert profile_to_csv_text(profile) == profile_to_csv_text(reference)
    injected = {t.thread_id for t in profile.threads if t.provenance == "measured"}
    hosts = [w for w in program.warps() if injected & set(w.members)]
    assert len(calls) == len(hosts)
    for sites, w in zip(calls, hosts):
        assert {s.thread_id for s in sites} <= set(w.members)
    runs = profile.runs
    assert runs.without_run + runs.lone_thread + runs.full_warp == sum(map(len, calls))


# profile_digest of each suite fixture's declared profile at seed 0: the bytes
# of profile.csv, pinned so that a change to the profile's data format shows.
DECLARED_DIGESTS = {
    "jmeint_k1": "c1832a2b232226f2f18d6289f51e1484435f0c6069aba53ad909c135d84d3c26",
    "laplacian_k1": "860b66db72c7072ca0633ed2da3573015058a272e41c63c59b338534c28966fb",
    "meanfilter_k1": "6bb311f932e5f6674c83cae3de7a14afe26bfc7e829be840d42c347c9d445631",
    "nn_k1": "bd35aac3495aac6fcd0f09ddb945ab668863e6037521c71246f412c823558afd",
    "nn_k2": "835c203fd540a457901e6f5603f9b7dbaafc8c73df9a6886a3421cf9f261d634",
    "nn_k3": "7d030c096308646eda2f7be8d9baaa18e5c6638af4926bbd90a7c972f6b26a5c",
    "nn_k4": "2d2fbb28395041df919db9df9b1c8c9ba49f4d1d4426069fc9641c9aa41b4d62",
    "scp_k1": "5f7ba2853b6c9da9b5714e6a21cad44e52313163c518b72b237e90458d699097",
    "conv2d_k1": "115b04795ef8fdac17fbf73b4653b83a0c36a9fee7be51ec50209eace297521e",
    "mvt_k1": "937eb1b7e273ffa89b15dfca44ae3f0826a4ad7d5f5c753f8800d2f1a398da4c",
    "gaussian_k1": "9386bf16a4c0cc41bf91a65e16f014fcb8bdcb8756bbfa1b24af54d0b7c41bff",
    "gaussian_k2": "080758d6fbe8aeca9cfcb96542bba9d19cc6ae93e53ffb7b88918a4cc508e868",
    "hotspot_k1": "6e4d317ef59c2662ff853727b749133715a42cb468c6237ea84369db7fa6c0ce",
    "nearestneighbor_k1": "05cb44cf65803fa3089f7f909a25f47a93de47c56c09ef55e61f9464b415461f",
    "pathfinder_k1": "38f130a9ee05e89e6c23b5b7f256e40ca81a48b926f5b1e7223c2420a6d72029",
    "srad_k3": "a38668d06eb2e42d921e6ab69b10dfb880238ac834f99ce0413739da7bb6ba1d",
    "srad_k4": "a9ef2fef7b3c282f0ed22c0dbddf0aa2771ef33c367fcd93544eb013c7ead69e",
}


def test_declared_profile_digests_are_pinned():
    assert [spec.name for spec in suite_specs()] == list(DECLARED_DIGESTS)
    for name, digest in DECLARED_DIGESTS.items():
        assert profile_digest(generate_fixture(name, seed=0).profile) == digest, name


_DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 20, 40, 1000)


def _copy(x):
    """An equal Fraction held in a new object."""
    return Fraction(x.numerator * 3, x.denominator * 3)


@st.composite
def _profiles(draw):
    """(kernel, num_ctas, cta_size, rows) with rows of (icnt, group_id,
    (masked, sdc, other), provenance) per thread.  Groups may share an iCnt;
    a group is pruned-style (its first thread measured, the rest
    extrapolated from it) or exhaustive-style (every thread measured, rows
    drawn from a small pool so that they repeat and differ).  Every row
    holds its own Fraction objects."""
    kernel = draw(st.text(alphabet='ab,"\n\r \'', max_size=5))
    num_ctas, cta_size = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    n_groups = draw(st.integers(1, 4))
    icnt_of_group = draw(st.lists(st.integers(1, 3), min_size=n_groups, max_size=n_groups))
    exhaustive = draw(st.lists(st.booleans(), min_size=n_groups, max_size=n_groups))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        den = draw(st.sampled_from(_DENOMINATORS))
        sdc = draw(st.integers(0, den))
        other = draw(st.integers(0, den - sdc))
        pool.append((Fraction(den - sdc - other, den), Fraction(sdc, den), Fraction(other, den)))
    n = num_ctas * cta_size
    rep = {}
    rows = []
    for gid in draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)):
        if gid in rep and not exhaustive[gid]:
            outcome, provenance = rep[gid], "extrapolated"
        else:
            outcome, provenance = draw(st.sampled_from(pool)), "measured"
            rep.setdefault(gid, outcome)
        rows.append((icnt_of_group[gid] * 10, gid, tuple(map(_copy, outcome)), provenance))
    return kernel, num_ctas, cta_size, rows


def _reference_text(kernel, cta_size, rows, order):
    """profile.csv rendered field by field, its rows in ``order``.  Each row
    is written with a ``\\r\\n`` terminator, so that the csv module quotes a
    field holding either line-break character, and then ends in ``\\n``."""

    def line(fields):
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(fields)
        return out.getvalue()[: -len("\r\n")] + "\n"

    text = [line(PROFILE_HEADER)]
    for t in order:
        icnt, gid, outcome, provenance = rows[t]
        text.append(line([kernel, t // cta_size, t, icnt, gid, *(repr(float(x)) for x in outcome), provenance]))
    return "".join(text)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_outcome_table_equals_a_per_thread_reference(data):
    """A profile built from per-thread rows, and the one loaded from its file
    with the rows shuffled, render, hash, classify and scatter exactly as a
    reference computed thread by thread from the rows."""
    kernel, num_ctas, cta_size, rows = data.draw(_profiles())
    n = len(rows)
    text = _reference_text(kernel, cta_size, rows, range(n))
    shuffled = data.draw(st.permutations(range(n)))
    threads = tuple(
        ThreadProfile(t, t // cta_size, icnt, gid, *outcome, p) for t, (icnt, gid, outcome, p) in enumerate(rows)
    )
    built = profile_of_rows(kernel, threads)
    assert built.threads == threads
    loaded = profile_from_csv_text(_reference_text(kernel, cta_size, rows, shuffled))
    # The file holds each fraction as the shortest decimal of its float.
    loaded_sdc = [Fraction(repr(float(outcome[1]))) for _, _, outcome, _ in rows]
    warps = warps_for(num_ctas, cta_size)
    for profile, sdc in ((built, [outcome[1] for _, _, outcome, _ in rows]), (loaded, loaded_sdc)):
        assert profile.geometry == (num_ctas, cta_size)
        assert len(set(profile.outcomes)) == len(profile.outcomes)
        assert profile_to_csv_text(profile) == text
        assert profile_digest(profile) == hashlib.sha256(text.encode()).hexdigest()
        for tau in {Fraction(0), Fraction(1), Fraction(1, 20), *sdc, *(s + Fraction(1, 10**9) for s in sdc)}:
            if tau > 1:
                continue
            flags = [s <= tau for s in sdc]
            assert classify_threads(profile, tau) == flags
            # launch order as loaded, and as regrouped
            for layout in (warps, build_plan(flags, (num_ctas, cta_size), tau=tau).warps()):
                expected, prev_cta = [], None
                for w in layout:
                    for slot, t in enumerate(w.members):
                        cta_start = slot == 0 and w.cta_id != prev_cta
                        expected.append((len(expected), float(sdc[t]), int(slot == 0), int(cta_start), int(flags[t])))
                    prev_cta = w.cta_id
                assert scatter_rows(profile, flags, layout) == expected

"""The package's value types: equality, hashing, ordering, repr, validation
and immutability, pinned field by field."""

from fractions import Fraction

import pytest

from warpshield.classify import classify_threads, classify_warps, kernel_stats
from warpshield.costs import account
from warpshield.errors import ValidationError
from warpshield.faults import CampaignResult, FaultSite, Outcome, RunCounts, run_campaign
from warpshield.fixtures import generate_fixture
from warpshield.interp import CostTable, ExecutionResult, execute
from warpshield.ir import Instruction, KernelProgram
from warpshield.profiling import TAU_DEFAULT, KernelProfile, ThreadProfile
from warpshield.protect import ProtectedRunResult, WarpIncident, build_protection_plan, run_protected
from warpshield.remap import build_plan

from support import add_one_inputs, add_one_kernel


def test_record_fields_in_order_and_repr():
    expected = {
        Instruction: ("opcode", "dest", "srcs", "imm", "buffer", "addr_reg", "cond", "target"),
        ExecutionResult: (
            "outputs",
            "per_thread_icnt",
            "cycles",
            "termination",
            "fault_applied",
            "per_warp_cycles",
            "per_warp_stores",
            "register_writes",
            "store_streams",
            "error",
        ),
        CampaignResult: ("per_site", "per_thread_counts", "seed", "runs"),
        ProtectedRunResult: ("mode", "final_outputs", "detections", "corrections", "cycles", "warp_terminations"),
    }
    for cls, fields in expected.items():
        assert issubclass(cls, tuple) and cls._fields == fields, cls.__name__
    a = Instruction("bra", srcs=(3,), target=2)
    assert a == Instruction("bra", srcs=(3,), target=2) and hash(a) == hash(Instruction("bra", None, (3,), target=2))
    assert a != Instruction("bra", srcs=(3,), target=1)
    assert repr(a) == (
        "Instruction(opcode='bra', dest=None, srcs=(3,), imm=None, buffer=None, addr_reg=None, cond=None, target=2)"
    )
    assert repr(CampaignResult({}, {}, 7, RunCounts())) == (
        "CampaignResult(per_site={}, per_thread_counts={}, seed=7, "
        "runs=RunCounts(without_run=0, lone_thread=0, full_warp=0, crashed=0, hung=0))"
    )
    assert repr(ProtectedRunResult("detect", {"out": [1]}, [], [WarpIncident(0, 1, (("out", 0),))], 9, {})) == (
        "ProtectedRunResult(mode='detect', final_outputs={'out': [1]}, detections=[], "
        "corrections=[WarpIncident(cta_id=0, warp_id=1, locations=(('out', 0),))], cycles=9, warp_terminations={})"
    )
    assert repr(ExecutionResult({"out": [2]}, [3], 4, "completed", False, {(0, 0): 4}, {(0, 0): 1})) == (
        "ExecutionResult(outputs={'out': [2]}, per_thread_icnt=[3], cycles=4, termination='completed', "
        "fault_applied=False, per_warp_cycles={(0, 0): 4}, per_warp_stores={(0, 0): 1}, "
        "register_writes=None, store_streams=None, error=None)"
    )


def _profile(outcome_of, **kwargs):
    outcomes = ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    return KernelProfile("k", (2, 2), (5, 5, 7, 7), (0, 0, 1, 1), ("measured",) * 4, outcome_of, outcomes, **kwargs)


def test_profile_equality_ignores_tau_and_runs_and_threads_shows_each_row():
    a = _profile((0, 1, 0, 1))
    b = _profile((0, 1, 0, 1), runs=RunCounts(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a.tau == KernelProfile.tau == TAU_DEFAULT == Fraction(1, 20)
    assert a != _profile((0, 1, 1, 0))
    assert a.threads is a.threads
    assert b.threads[3] == ThreadProfile(3, 1, 7, 1, Fraction(1, 2), Fraction(1, 2), Fraction(0), "measured")
    assert [t.sdc_pct for t in b.threads] == [0, Fraction(1, 2), 0, Fraction(1, 2)]


def test_fault_sites_sort_by_thread_then_dyn_instr_then_bit():
    sites = [FaultSite(1, 1, 0), FaultSite(0, 2, 0), FaultSite(0, 1, 31), FaultSite(0, 1, 5)]
    assert sorted(sites) == [FaultSite(0, 1, 5), FaultSite(0, 1, 31), FaultSite(0, 2, 0), FaultSite(1, 1, 0)]
    assert repr(FaultSite(4, 2, 13)) == "FaultSite(thread_id=4, dyn_instr=2, bit=13)"
    assert FaultSite(thread_id=4, dyn_instr=2, bit=13) == FaultSite(4, 2, 13)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 1, 32), "bit 32 outside [0, 31]"),
        ((0, 1, -1), "bit -1 outside [0, 31]"),
        ((0, 0, 3), "dyn_instr is 1-based"),
        ((-1, 1, 3), "thread_id must be non-negative"),
    ],
)
def test_fault_site_validation_messages(args, message):
    with pytest.raises(ValidationError) as err:
        FaultSite(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: FaultSite(0, 1, 0)._replace(bit=99),
        lambda: add_one_kernel(1, 32)._replace(layout=((5,),)),
        lambda: Outcome._make(("bogus", None)),
        lambda: CostTable()._replace(vote_per_store=-1),
    ],
    ids=["fault-site", "kernel-program", "outcome", "cost-table"],
)
def test_make_and_replace_validate(make):
    """``_replace`` builds through ``_make``, and both check what the
    constructor checks."""
    with pytest.raises(ValidationError):
        make()


def test_a_valid_replace_keeps_the_subclass():
    site = FaultSite(0, 1, 0)._replace(bit=7)
    assert type(site) is FaultSite and site == FaultSite(0, 1, 7)
    program = add_one_kernel(1, 32)._replace(name="renamed")
    assert type(program) is KernelProgram and program.name == "renamed"
    assert type(Outcome._make(("sdc", None))) is Outcome
    assert type(CostTable()._replace(vote_per_store=3)) is CostTable


def test_outcome_repr_and_validation():
    assert repr(Outcome("masked", "not-executed")) == "Outcome(kind='masked', detail='not-executed')"
    assert Outcome("sdc") == Outcome("sdc", None)
    with pytest.raises(ValidationError, match=r"bad outcome 'sdc'/'late'"):
        Outcome("sdc", "late")


def test_mutable_results_compare_field_wise_and_are_unhashable():
    runs = RunCounts(1, 2)
    runs += RunCounts(hung=3)
    assert runs == RunCounts(without_run=1, lone_thread=2, full_warp=0, crashed=0, hung=3)
    assert runs != RunCounts(1, 2)
    assert repr(runs) == "RunCounts(without_run=1, lone_thread=2, full_warp=0, crashed=0, hung=3)"
    with pytest.raises(TypeError):
        hash(runs)


def test_cost_tables_default_to_a_fresh_copy_of_the_default_cycles():
    a, b = CostTable(), CostTable()
    assert a == b and a.op_cycles is not b.op_cycles
    assert (a.compare_per_store, a.vote_per_store) == (1, 2)
    with pytest.raises(ValidationError, match="per-store costs must not be negative"):
        CostTable(vote_per_store=-1)


def test_a_bad_layout_is_refused_by_the_program_constructor():
    program = add_one_kernel(num_ctas=2, cta_size=32)
    fields = (program.name, program.instructions, 2, 32, program.input_buffers, program.output_buffers)
    swapped = (tuple(range(32, 64)), tuple(range(32)))
    with pytest.raises(ValidationError, match="layout for CTA 0 is not a permutation"):
        KernelProgram(*fields, layout=swapped)
    with pytest.raises(ValidationError, match="layout covers 1 CTAs, expected 2"):
        KernelProgram(*fields, layout=(tuple(range(32)),))
    relaid = KernelProgram(*fields, layout=(tuple(range(31, -1, -1)), tuple(range(32, 64))))
    assert relaid.warps()[0].members[0] == 31 and relaid != program


def _frozen_values():
    """One value of each immutable type, with the name of its first field."""
    fixture = generate_fixture("nn_k4")
    flags = classify_threads(fixture.profile)
    warps = classify_warps(flags, fixture.program.warps())
    program = add_one_kernel(num_ctas=1, cta_size=32)
    inputs = add_one_inputs(program)
    add_one_warps = classify_warps([False] * 32, program.warps())
    return [
        (program.instructions[0], "opcode"),
        (program.warps()[0], "cta_id"),
        (program, "name"),
        (warps[0], "cta_id"),
        (kernel_stats(warps, flags, Fraction(1, 20)), "tau"),
        (fixture.profile, "kernel"),
        (build_plan(flags, fixture.program.geometry), "new_orders"),
        (CostTable(), "op_cycles"),
        (FaultSite(0, 1, 0), "thread_id"),
        (Outcome("sdc"), "kind"),
        (build_protection_plan(warps, "detect"), "mode"),
        (WarpIncident(0, 0, ()), "cta_id"),
        (account(program, inputs, [True] * 32), "kernel"),
        (fixture.spec, "name"),
        (fixture, "spec"),
        (execute(program, inputs), "outputs"),
        (run_campaign(program, inputs, [FaultSite(0, 1, 0)]), "per_site"),
        (run_protected(program, inputs, build_protection_plan(add_one_warps, "detect")), "mode"),
    ]


def test_every_frozen_value_type_refuses_assignment():
    values = _frozen_values()
    assert len({type(value) for value, _ in values}) == 18
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
        assert getattr(value, field) is not None, type(value).__name__

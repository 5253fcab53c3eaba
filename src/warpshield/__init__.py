"""Desk-scale SIMT fault-injection simulator and warp-level resilience toolkit."""

from .classify import (
    KernelReliabilityStats,
    WarpClassification,
    classify_threads,
    classify_warps,
    format_pct,
    kernel_stats,
)
from .costs import CostReport, REFERENCE_FIGURES, account
from .errors import (
    ArtifactError,
    CampaignRefused,
    ExecutionError,
    FixtureError,
    ParseError,
    ProtectionError,
    ValidationError,
    WarpshieldError,
)
from .faults import (
    CampaignResult,
    FaultSite,
    Outcome,
    classify_outcome,
    enumerate_fault_space,
    golden_run,
    run_campaign,
    sample_sites,
)
from .fixtures import Fixture, FixtureSpec, fixture_suite, generate_fixture
from .interp import CostTable, DEFAULT_COST_TABLE, ExecutionResult, execute, seeded_inputs
from .ir import Instruction, KernelProgram, Warp, parse_kernel, program_to_source, warps_for
from .profiling import (
    KernelProfile,
    TAU_DEFAULT,
    ThreadProfile,
    group_by_icnt,
    load_profile,
    profile_digest,
    profile_kernel,
    save_profile,
    to_fraction,
)
from .protect import ProtectionPlan, ProtectedRunResult, build_protection_plan, run_protected
from .remap import RemapPlan, apply_plan, build_plan, remapped_stats

__version__ = "0.1.0"

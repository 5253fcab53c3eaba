"""Desk-scale SIMT fault-injection simulator and warp-level resilience toolkit.

Import the submodules (``warpshield.profiling``, ``warpshield.protect``, ...)
directly; the package itself imports nothing, so each CLI command loads only
the modules it uses.
"""

__version__ = "0.1.0"

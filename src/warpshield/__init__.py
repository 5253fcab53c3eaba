"""Desk-scale SIMT fault-injection simulator and warp-level resilience toolkit.

Import the submodules (``warpshield.profiling``, ``warpshield.protect``, ...)
directly; the package itself imports nothing, so each CLI command loads only
the modules it uses.

The package defines no data classes.  Each step of the pipeline is its own
command and pays its own start-up, and there the standard library's
data-class module is dear: importing it pulls in ``inspect``, ``ast``,
``dis`` and ``tokenize``, about 15 ms, and compiling the methods it
generates for the 6-10 types a command loads takes another 6-11 ms (raw,
Python 3.11 on a shared 2-core Xeon).  A record is a ``typing.NamedTuple``,
subclassed with a checking ``__new__`` where it validates.  Two types are
the exceptions, ``__slots__`` classes with their own ``__init__``, ``__eq__``
and ``__repr__``: ``faults.RunCounts`` is mutable, as campaigns and
profiles add into it, and ``profiling.KernelProfile`` leaves its ``runs``
and its cached ``threads`` view out of equality.  The footprint test in
``tests/test_cli.py`` fails if any command imports that module or
``inspect``.
"""

__version__ = "0.1.0"

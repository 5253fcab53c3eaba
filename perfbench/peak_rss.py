"""Run a Python module or script in this process as ``python3`` would, then
write this process's peak resident set size, in kB, to a file descriptor.

    python3 perfbench/peak_rss.py <fd> -m <module> [args...]
    python3 perfbench/peak_rss.py <fd> <script> [args...]

The peak RSS a parent reads from a child's rusage also holds the peak of the
process that started the child, which the kernel carries across ``exec``; a
benchmark that holds more memory than the command would report its own.
``VmHWM`` in ``/proc/self/status`` counts only the memory mapped since this
program started.
"""

import atexit
import os
import runpy
import sys


def write_peak(fd: int) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    os.write(fd, kb.encode())
    os.close(fd)


def main() -> None:
    fd = int(sys.argv[1])
    atexit.register(write_peak, fd)
    if sys.argv[2] == "-m":
        sys.argv = [sys.argv[3], *sys.argv[4:]]
        sys.path[0] = os.getcwd()  # as ``python3 -m`` does
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    else:
        sys.argv = sys.argv[2:]
        sys.path[0] = os.path.dirname(os.path.abspath(sys.argv[0]))  # as ``python3 <script>`` does
        runpy.run_path(sys.argv[0], run_name="__main__")


if __name__ == "__main__":
    main()

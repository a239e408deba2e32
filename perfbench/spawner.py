"""Start, wait for and time the benchmark's child processes.

Usage: python3 -S perfbench/spawner.py   (driven by run.py over a pipe)

Each input line holds NUL-separated fields: stdout path, stderr path, then
the argv of one command.  The command runs to completion in a forked child
and one reply line follows: start and end (monotonic clock), exit code, and
the child's peak resident size in KiB from wait4.

A forked and exec'd child reports the peak resident size of the process
that forked it when that is larger than its own.  This process stays small
(no site packages, no imports beyond built-ins), so the figure it reports is
the child's own; run.py, which parses large outputs, cannot fork them itself.
"""

import os
import resource
import sys
import time

CPU_LIMIT_S = 150


def run(out_path: str, err_path: str, argv: list[str]) -> str:
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
            os.dup2(os.open(out_path, flags, 0o644), 1)
            os.dup2(os.open(err_path, flags, 0o644), 2)
            resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    return f"{start!r} {end!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n"


def main() -> None:
    for line in sys.stdin:
        out_path, err_path, *argv = line.rstrip("\n").split("\0")
        sys.stdout.write(run(out_path, err_path, argv))
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Run a command and report the peak resident set size of its process.

    python tools/peak_rss.py [--limit BYTES] -- COMMAND [ARG ...]

Waits for the command with ``os.wait4`` and prints ``peak_rss_bytes N`` and
``seconds S`` to stderr, N being the command's ``ru_maxrss`` (the largest of
its own and any child's it waited for).  Exits with the command's status,
or 1 when the command succeeded but its peak exceeded ``--limit``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, help="largest peak allowed, bytes")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    peak = usage.ru_maxrss * 1024  # KiB on Linux
    print(f"peak_rss_bytes {peak}", file=sys.stderr)
    print(f"seconds {time.perf_counter() - start:.2f}", file=sys.stderr)
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and args.limit is not None and peak > args.limit:
        print(f"peak RSS {peak} exceeds the limit {args.limit}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

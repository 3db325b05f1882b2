"""Spawner of the benchmark's request processes.

The max-RSS that wait4 reports for a child is never below the resident size
of the process that forked it. The benchmark process holds its modules and
the responses it has read, so it starts children through this small process
instead, which stays smaller than any carrychain process.

One request at a time: a JSON line ``[timeout_s, program, arg, ...]`` on
stdin; on stdout a JSON line ``[code, wall_s, cpu_s, maxrss_kb, out_bytes,
err_bytes, timed_out]`` followed by the child's stdout and stderr bytes. Wall
time runs from spawn to exit with all output read; CPU time and max-RSS come
from wait4.
"""

import json
import os
import selectors
import subprocess
import sys
import time


def run(args: list[str], timeout: float):
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out = b"".join(chunks[proc.stdout])
    err = b"".join(chunks[proc.stderr])
    header = [proc.returncode, wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss, len(out), len(err), timed_out]
    return header, out, err


def main() -> None:
    reply = sys.stdout.buffer
    for line in sys.stdin.buffer:
        timeout, *args = json.loads(line)
        header, out, err = run(args, timeout)
        reply.write(json.dumps(header).encode() + b"\n")
        reply.write(out)
        reply.write(err)
        reply.flush()


if __name__ == "__main__":
    main()

"""fork_map: run a list of jobs on several cores with os.fork.

The library's one fork discipline, behind the table writer of the OBJ
and CSV exports (`structio`) and the sampling of the RK4 lattice
(`reconstruct`).  The caller states how much work its jobs hold, in its
own unit (values formatted, points sampled); from PARALLEL_WORK units
on, with k >= 2 usable cores (os.sched_getaffinity) and os.fork, job i
belongs to worker i mod k, where worker 0 is the calling process and
workers 1 .. k-1 are children forked on first use.  Less work, one core
or no os.fork runs every job in the calling process.

A job's result is a sequence of bytes-like parts.  A child runs its
jobs in order and sends each result over its own pipe as raw bytes: the
part count, then each part's 8-byte length and bytes, so a child is at
most one result ahead of the caller; nothing is pickled.  fork_map runs
the caller's own jobs itself, as it reaches them, and yields every
job's result in job order, whoever computed it.

The rules, which every caller inherits:
- a fork or pipe that fails, a child that stops before sending a whole
  result (it raised, warned, was killed, or wrote less than it
  announced), or a child that exits non-zero after its last result,
  hands the jobs the child did not deliver back to the caller, so such
  a fault never surfaces as an error of its own; a job that raises in a
  child raises again when the caller runs it, with the same type and
  message, at the same job;
- a job that warns in a child is handed back the same way, so every
  warning is issued by the caller, in job order, as in one process;
- children leave through os._exit: no cleanup handler, buffered file or
  traceback of the parent runs or prints in them;
- every child is reaped before the map ends or unwinds, and killed first
  when the caller unwinds before reading all it sent.
"""

from __future__ import annotations

import contextlib
import os
import signal
import warnings

# Jobs that hold at least this much work, in the caller's unit, run on
# every usable core; below it, a fork costs more than it saves.
PARALLEL_WORK = 1 << 15


def usable_cores():
    """The cores this process may run on; 1 where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_worker(fn, jobs, inherited):
    """Fork a child that sends fn(job), for each of `jobs` in order, as
    the part count and then each part's 8-byte length and bytes, over a
    pipe; return (pid, read end).  The child first closes `inherited`,
    the read ends of the children forked before it, and stops at the
    first job that raises or warns.  Raises OSError if the pipe or fork
    fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            with open(w, "wb") as pipe:
                for job in jobs:
                    with warnings.catch_warnings(record=True) as warned:
                        parts = [memoryview(p).cast("B") for p in fn(job)]
                    if warned:
                        break
                    pipe.write(len(parts).to_bytes(8, "little"))
                    for part in parts:
                        pipe.write(part.nbytes.to_bytes(8, "little"))
                        pipe.write(part)
                    pipe.flush()
                else:
                    status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _read_exactly(reader, n):
    """n bytes from `reader`, or None if it ends or fails first."""
    data = bytearray(n)
    try:
        got = reader.readinto(data)
    except OSError:
        return None
    return data if got == n else None


def _count(reader):
    """The 8-byte count next on `reader`, or None if it is cut short."""
    head = _read_exactly(reader, 8)
    return None if head is None else int.from_bytes(head, "little")


def _receive(reader):
    """The parts of the next result a child sent on `reader`, or None if
    it is cut short."""
    count = _count(reader)
    if count is None:
        return None
    parts = []
    for _ in range(count):
        n = _count(reader)
        part = None if n is None else _read_exactly(reader, n)
        if part is None:
            return None
        parts.append(part)
    return parts


def _end(pid, reader, kill):
    """Close `reader`, the pipe of child `pid`, kill the child first if
    `kill`, and reap it; its wait status, or -1 if it was reaped
    elsewhere."""
    if kill:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    reader.close()
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def fork_map(fn, jobs, work):
    """Yield fn(job), a sequence of bytes-like parts, for each job of the
    sequence `jobs` in order: parts a child sent, or fn(job) run here for
    the caller's own share and every job a child did not deliver.

    Each part is C-contiguous, such as a bytes or a float array.  `work`
    is how much the jobs hold in all; they fork from PARALLEL_WORK on.
    Close the generator (contextlib.closing) so that an early exit reaps
    at once; the module docstring gives the rules."""
    n = len(jobs)
    k = 1
    if work >= PARALLEL_WORK and hasattr(os, "fork"):
        k = min(usable_cores(), n)
    children = {}       # worker -> (pid, reader), until reaped
    try:
        for w in range(1, k):
            try:
                pid, fd = _fork_worker(fn, jobs[w::k],
                                       [r.fileno() for _, r in
                                        children.values()])
            except OSError:
                continue        # the caller runs this worker's jobs
            children[w] = pid, open(fd, "rb")
        for i, job in enumerate(jobs):
            w = i % k
            parts = None
            if w in children:
                pid, reader = children[w]
                parts = _receive(reader)
                if parts is None or i + k >= n:
                    # cut short, or the child's last job: it is done
                    del children[w]
                    if _end(pid, reader, kill=parts is None) != 0:
                        parts = None
            yield fn(job) if parts is None else parts
    finally:
        for pid, reader in children.values():
            _end(pid, reader, kill=True)

"""fork_map: run a list of jobs on several cores with os.fork.

The library's one fork discipline, behind the lane blocks of
frame.in_lane_blocks (every grid a command evaluates) and the sampling
calls of an RK4 march (`reconstruct`).  The caller states how much work
its jobs hold, in its own unit (points evaluated); from PARALLEL_WORK
units on, with k >= 2 usable cores (os.sched_getaffinity) and os.fork,
the calling process and k - 1 children forked for the map share the
jobs.  Less work, one core or no os.fork runs every job in the calling
process, and so does a map called inside a job of another map, in the
caller or in a child: maps never nest their forks.

The jobs are dealt on demand, from one token pipe: before forking, the
caller writes each job index but the first into it, in order, as a
TOKEN-byte token, and every worker, the caller included, claims its
next job by reading one token.  Job 0 is never dealt: the caller runs
it while the children start on jobs 1, 2 and so on, as it would wait
for its result anyway.  A list with more tokens than the pipe holds is
topped up as the caller claims.  A job returns one C-contiguous
bytes-like result, and a child sends each one over a pipe of its own as
raw bytes: the job's index and the result's length, 8 bytes each, then
the result; nothing is pickled.  Every pipe is widened to PIPE_BYTES
where the platform allows (fcntl.F_SETPIPE_SZ), so a child runs well
ahead of the caller.

fork_map yields every job's result in job order, whoever computed it.
When the result it needs next is missing, the caller first takes
whatever the children have sent, then claims a token and runs that job
itself, ahead of its turn if need be; it waits on the children only once
no token is left, and runs the missing job itself only once no child is
left.  So the caller computes only while it would otherwise wait.

The rules, which every caller inherits:
- a job that raises or warns, in a child or run ahead by the caller, is
  handed back and run again by the caller at its turn, so its error
  (the same type and message) or its warning surfaces in job order, as
  in one process; the caller runs a job ahead under
  warnings.catch_warnings, which holds for the whole process;
- a fork or pipe that fails, or a child that stops before sending a
  whole result (it was killed, or wrote less than it announced), leaves
  its jobs to the other workers, so such a fault never surfaces as an
  error of its own;
- children leave through os._exit: no cleanup handler, buffered file or
  traceback of the parent runs or prints in them;
- every child is killed and reaped before the map ends or unwinds.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import struct
import warnings

# Jobs that hold at least this much work, in the caller's unit, run on
# every usable core; below it, a fork costs more than it saves.  In
# points, 8,192 is two full lane blocks (frame.SWEEP_LANES); a fork_map of
# two trivial jobs costs about 2 ms in a 51 MB process.  The spines of a
# 21x21 RK4 march on [-1, 1]^2 (7,720 points) stay below it.
PARALLEL_WORK = 1 << 13
# The bytes of one job index on the token pipe, and the size every pipe
# of a map is widened to.
TOKEN = 4
PIPE_BYTES = 1 << 20
# The length that marks a job a child hands back.
HANDED_BACK = (1 << 64) - 1
# Whether this process is running a job of a map; a map called then runs
# its jobs in this process.
_in_job = False


def usable_cores():
    """The cores this process may run on; 1 where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _widen(fd):
    """Widen the pipe of `fd` to PIPE_BYTES where the platform allows."""
    import fcntl        # POSIX, as os.fork is
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)


def _wait_readable(fd):
    """Wait until `fd` has bytes to read or its last write end closes."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    poller.poll()


def _claim(tokens, top_up=lambda: False):
    """The job index of the next token on the non-blocking token pipe
    `tokens`, or None once every token is claimed.  `top_up()` writes
    more tokens where they fit and says whether more are still to come
    from it; without that, an empty pipe is waited on."""
    while True:
        try:
            token = os.read(tokens, TOKEN)
        except BlockingIOError:
            if not top_up():
                _wait_readable(tokens)
            continue
        return int.from_bytes(token, "little") if token else None


def _call(fn, job):
    """fn(job) as a job of a map: a fork_map it calls forks nothing."""
    global _in_job
    outer, _in_job = _in_job, True
    try:
        return fn(job)
    finally:
        _in_job = outer


def _run(fn, job):
    """fn(job), or None if it raises or warns."""
    with warnings.catch_warnings(record=True) as warned:
        try:
            result = _call(fn, job)
        except Exception:
            return None
    return None if warned else result


def _fork_worker(fn, jobs, tokens, inherited):
    """Fork a child that claims jobs from the token pipe `tokens` until
    none is left and sends, for each, its index, length and bytes of
    fn(job) over a pipe of its own, or its index and HANDED_BACK if it
    raises or warns; return (pid, unbuffered read end).  The child
    first closes `inherited`, the descriptors of the map it does not
    use.  Raises OSError if the pipe or fork fails."""
    r, w = os.pipe()
    try:
        _widen(r)
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            for fd in (r, *inherited):
                os.close(fd)
            with open(w, "wb") as pipe:
                while (i := _claim(tokens)) is not None:
                    result = _run(fn, jobs[i])
                    if result is None:
                        pipe.write(struct.pack("<2Q", i, HANDED_BACK))
                    else:
                        result = memoryview(result).cast("B")
                        pipe.write(struct.pack("<2Q", i, result.nbytes))
                        pipe.write(result)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb", buffering=0)


def _read_exactly(reader, n):
    """n bytes from the unbuffered `reader`, or None if it ends or fails
    first."""
    data = bytearray(n)
    with memoryview(data) as view:
        got = 0
        while got < n:
            try:
                more = reader.readinto(view[got:])
            except OSError:
                return None
            if not more:
                return None
            got += more
    return data


def _receive(reader):
    """(index, result) of the next job a child sent on `reader`, result
    None for a job it handed back; None if the pipe ends or is cut
    short."""
    head = _read_exactly(reader, 16)
    if head is None:
        return None
    index, size = struct.unpack("<2Q", head)
    if size == HANDED_BACK:
        return index, None
    result = _read_exactly(reader, size)
    return None if result is None else (index, result)


def _end(pid, reader):
    """Close `reader`, the pipe of child `pid`, kill the child and reap
    it."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    reader.close()
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def fork_map(fn, jobs, work):
    """Yield fn(job), a C-contiguous bytes-like result such as a bytes
    or a float array, for each job of the sequence `jobs` in order: the
    bytes a child sent, or fn(job) run here.

    `work` is how much the jobs hold in all; they fork from
    PARALLEL_WORK on.  Close the generator (contextlib.closing) so that
    an early exit reaps at once; the module docstring gives the rules."""
    n = len(jobs)
    k = 1
    if work >= PARALLEL_WORK and hasattr(os, "fork") and not _in_job:
        k = min(usable_cores(), n)
    if k > 1:
        try:
            tokens, feed = os.pipe()
        except OSError:
            k = 1
    if k < 2:
        for job in jobs:
            yield _call(fn, job)
        return
    unsent = memoryview(b"".join(i.to_bytes(TOKEN, "little")
                                 for i in range(1, n)))
    chunk = select.PIPE_BUF // TOKEN * TOKEN    # written whole, or not
    children = {}       # read end's descriptor -> (pid, read end)
    done = {0: None}    # job index -> result, or None: run at its turn
    poller = select.poll()

    def top_up():
        """Write the unsent tokens while they fit; whether some are
        still to come."""
        nonlocal unsent, feed
        if feed is None:
            return False
        with contextlib.suppress(BlockingIOError):
            while unsent:
                unsent = unsent[os.write(feed, unsent[:chunk]):]
        if unsent:
            return True
        os.close(feed)
        feed = None
        return False

    def collect(timeout):
        """Take every result the children have sent, first waiting up to
        `timeout` ms (None: until a child sends or ends)."""
        events = poller.poll(timeout)
        while events:
            for fd, _ in events:
                got = _receive(children[fd][1])
                if got is None:
                    poller.unregister(fd)
                    _end(*children.pop(fd))
                else:
                    done[got[0]] = got[1]
            events = poller.poll(0)

    try:
        _widen(tokens)
        os.set_blocking(tokens, False)
        os.set_blocking(feed, False)
        top_up()
        for _ in range(1, k):
            inherited = [fd for fd in (*children, feed) if fd is not None]
            try:
                pid, reader = _fork_worker(fn, jobs, tokens, inherited)
            except OSError:
                continue        # the other workers take its jobs
            children[reader.fileno()] = pid, reader
            poller.register(reader, select.POLLIN)
        for i, job in enumerate(jobs):
            while i not in done:
                collect(0)
                if i in done:
                    break
                t = _claim(tokens, top_up)
                if t is not None and t != i:
                    done[t] = _run(fn, jobs[t])     # ahead of its turn
                elif t == i or not children:
                    done[i] = None                  # run at its turn
                else:
                    collect(None)                   # no token is left
            result = done.pop(i)
            yield _call(fn, job) if result is None else result
    finally:
        for pid, reader in children.values():
            _end(pid, reader)
        os.close(tokens)
        if feed is not None:
            os.close(feed)

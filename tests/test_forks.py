"""The contract of forks.fork_map: every job's result in job order, from a
child or from the caller, forking only from PARALLEL_WORK on, each job
claimed once from the token pipe, every fault of a job or a child
handed back to the caller at its turn, and no child left behind."""

import builtins
import contextlib
import io
import os
import signal
import time
import warnings

import numpy as np
import pytest

from conftest import fork_log
from frontal_lab import forks
from frontal_lab.forks import fork_map

pytestmark = [pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="fork_map forks only with os.fork"),
              pytest.mark.usefixtures("no_child_left")]

JOBS = list(range(7))


@pytest.fixture
def no_hang():
    """Fail a test that has not finished within a minute."""
    def expire(signum, frame):
        raise TimeoutError("fork_map hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def floats(job):
    """A float array of `job` values, empty for job 0."""
    return np.arange(job, dtype=float) / 3.0


def logged(fn, path):
    """fn, appending its process and job to the file `path` at every
    call, whichever process makes it."""
    def call(job):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {job}\n".encode())
        finally:
            os.close(fd)
        return fn(job)

    return call


def runs(path):
    """The (process, job) of every call `logged` wrote to `path`."""
    return [tuple(map(int, line.split()))
            for line in path.read_text().splitlines()]


def held(fn, target, flag, monkeypatch, pause=0.0):
    """fn, with the caller's claims held until a child has begun job
    `target` (it touches `flag`, then sleeps `pause` seconds).  Children
    claim jobs in order, so one reaches `target` whatever its place."""
    parent, claim = os.getpid(), forks._claim

    def held_claim(tokens, *top_up):
        deadline = time.monotonic() + 30.0
        while os.getpid() == parent and not flag.exists():
            assert time.monotonic() < deadline, "no child began"
            time.sleep(1e-3)
        return claim(tokens, *top_up)

    def call(job):
        if os.getpid() != parent and job == target:
            flag.touch()
            time.sleep(pause)
        return fn(job)

    monkeypatch.setattr(forks, "_claim", held_claim)
    return call


def run(fn, cores, monkeypatch, jobs=JOBS):
    """fork_map(fn, jobs, PARALLEL_WORK) on `cores` usable cores, as a
    list of results, each as bytes, and the number of forks."""
    real_fork, forked = os.fork, []

    def fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(forks, "usable_cores", lambda: cores)
    monkeypatch.setattr(os, "fork", fork)
    with contextlib.closing(fork_map(fn, jobs,
                                     forks.PARALLEL_WORK)) as results:
        got = [bytes(result) for result in results]
    return got, len(forked)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_parts_arrive_in_job_order(cores, monkeypatch):
    got, forked = run(floats, cores, monkeypatch)
    assert got == [bytes(floats(job)) for job in JOBS]
    assert forked == cores - 1


@pytest.mark.parametrize("cores", [2, 3])
def test_each_job_runs_once(cores, monkeypatch, tmp_path):
    jobs = list(range(200))
    log = tmp_path / "runs"
    got, forked = run(logged(floats, log), cores, monkeypatch, jobs)
    assert got == [bytes(floats(job)) for job in jobs]
    assert sorted(job for _, job in runs(log)) == jobs
    assert len({pid for pid, _ in runs(log)}) <= 1 + forked


def test_work_below_the_threshold_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked below PARALLEL_WORK")

    monkeypatch.setattr(forks, "usable_cores", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    got = list(fork_map(floats, JOBS, forks.PARALLEL_WORK - 1))
    assert [bytes(r) for r in got] == [bytes(floats(j)) for j in JOBS]


def test_more_tokens_than_a_default_pipe_holds(monkeypatch, no_hang):
    # unwidened pipes hold 64 KB: the caller tops the token pipe up
    jobs = list(range(20_000))
    assert len(jobs) * forks.TOKEN > 1 << 16
    monkeypatch.setattr(forks, "_widen", lambda fd: None)
    got, forked = run(lambda job: job.to_bytes(4, "little"), 3,
                      monkeypatch, jobs)
    assert got == [job.to_bytes(4, "little") for job in jobs]
    assert forked == 2


def test_child_dying_inside_a_result_hands_the_job_back(monkeypatch,
                                                        tmp_path, no_hang):
    # a child sends job 3's index and length and half of its result,
    # then is killed; the caller runs job 3 itself
    whole = floats(3).tobytes()

    class DyingPipe(io.BufferedWriter):
        def write(self, data):
            if bytes(data) == whole:
                super().write(whole[:len(whole) // 2])
                self.flush()
                (tmp_path / "died").touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return super().write(data)

    def opened(fd, mode, **kwargs):
        if mode == "wb":
            return DyingPipe(io.FileIO(fd, "w"))
        return builtins.open(fd, mode, **kwargs)

    log = tmp_path / "runs"
    monkeypatch.setattr(forks, "open", opened, raising=False)
    fn = held(logged(floats, log), 3, tmp_path / "began", monkeypatch)
    got, _ = run(fn, 2, monkeypatch)
    assert (tmp_path / "died").exists()
    assert got == [bytes(floats(job)) for job in JOBS]
    assert [pid for pid, job in runs(log) if job == 3][-1] == os.getpid()


def fault_at_its_turn(fault, where, monkeypatch, tmp_path):
    """Check that a job that raises or warns, run in a child (job 3) or
    ahead of its turn by the caller (job 5, while a child holds job 2),
    runs again in the caller at its turn, where its fault surfaces."""
    target = 3 if where == "child" else 5

    def faulty(job):
        if job == target and fault == "raises":
            raise ValueError(f"a fault at job {job}")
        if job == target:
            warnings.warn(f"a warning at job {job}", RuntimeWarning)
        return floats(job)

    log = tmp_path / "runs"
    if where == "child":
        fn = held(logged(faulty, log), 3, tmp_path / "began", monkeypatch)
    else:
        fn = held(logged(faulty, log), 2, tmp_path / "began", monkeypatch,
                  pause=0.5)
    monkeypatch.setattr(forks, "usable_cores", lambda: 2)
    raised = contextlib.nullcontext()
    if fault == "raises":
        raised = pytest.raises(ValueError, match=f"^a fault at job {target}$")
    got, issued = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with raised, contextlib.closing(fork_map(
                fn, JOBS, forks.PARALLEL_WORK)) as results:
            for result in results:
                got.append(bytes(result))
                issued.append(len(caught))
    # the faulty job ran where it was meant to, then again in the caller,
    # last, at its turn
    caller = [pid == os.getpid() for pid, job in runs(log) if job == target]
    assert caller == ([False, True] if where == "child" else [True, True])
    if fault == "raises":
        assert got == [bytes(floats(job)) for job in JOBS[:target]]
        assert not caught
    else:
        assert got == [bytes(floats(job)) for job in JOBS]
        assert [str(w.message) for w in caught] == [
            f"a warning at job {target}"]
        assert issued == [0] * target + [1] * (len(JOBS) - target)


def test_child_error_is_raised_again_by_the_caller(monkeypatch, tmp_path,
                                                   no_hang):
    fault_at_its_turn("raises", "child", monkeypatch, tmp_path)


def test_child_warning_is_issued_once_by_the_caller(monkeypatch, tmp_path,
                                                    no_hang):
    fault_at_its_turn("warns", "child", monkeypatch, tmp_path)


@pytest.mark.parametrize("fault", ["raises", "warns"])
def test_a_fault_run_ahead_surfaces_at_its_turn(fault, monkeypatch, tmp_path,
                                               no_hang):
    fault_at_its_turn(fault, "ahead", monkeypatch, tmp_path)


def test_job_0_runs_in_the_caller(monkeypatch, tmp_path):
    log = tmp_path / "runs"
    got, forked = run(logged(floats, log), 3, monkeypatch)
    assert got == [bytes(floats(job)) for job in JOBS] and forked == 2
    assert (os.getpid(), 0) in runs(log)


def test_a_map_inside_a_job_forks_nothing(monkeypatch, tmp_path):
    # every job, in a child or in the caller, maps three jobs of its own
    # with work enough to fork; only the outer map forks, from the caller
    log = tmp_path / "forks"

    def nested(job):
        with contextlib.closing(fork_map(floats, [job, job + 1, job + 2],
                                         forks.PARALLEL_WORK)) as inner:
            return b"".join(bytes(part) for part in inner)

    monkeypatch.setattr(forks, "usable_cores", lambda: 3)
    fork_log(monkeypatch, log)
    with contextlib.closing(fork_map(nested, JOBS,
                                     forks.PARALLEL_WORK)) as results:
        got = [bytes(result) for result in results]
    assert got == [b"".join(bytes(floats(j)) for j in (job, job + 1, job + 2))
                   for job in JOBS]
    assert log.read_text().split() == [str(os.getpid())] * 2
    # a map after the outer one forks again
    assert len(list(fork_map(floats, JOBS, forks.PARALLEL_WORK))) == len(JOBS)
    assert log.read_text().split() == [str(os.getpid())] * 4


def test_early_close_reaps_every_child(monkeypatch):
    monkeypatch.setattr(forks, "usable_cores", lambda: 3)
    with contextlib.closing(fork_map(floats, JOBS,
                                     forks.PARALLEL_WORK)) as results:
        assert bytes(next(results)) == bytes(floats(0))

"""The contract of forks.fork_map: every job's parts in job order, from a
child or from the caller, forking only from PARALLEL_WORK on, with every
fault of a child handed back to the caller and no child left behind."""

import builtins
import contextlib
import io
import os
import signal
import warnings

import numpy as np
import pytest

from frontal_lab import forks
from frontal_lab.forks import fork_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="fork_map forks only with os.fork")

JOBS = list(range(7))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def parts(job):
    """Three parts of different kinds, the second always empty."""
    return [f"job {job}".encode(), b"", np.arange(job, dtype=float) / 3.0]


def as_bytes(result):
    return [bytes(p) for p in result]


def in_caller(fn):
    """fn, and the list of the jobs it runs in the calling process."""
    parent, ran = os.getpid(), []

    def counted(job):
        if os.getpid() == parent:
            ran.append(job)
        return fn(job)

    return counted, ran


def run(fn, cores, monkeypatch):
    """fork_map(fn, JOBS, PARALLEL_WORK) on `cores` usable cores, as a
    list of results, each as bytes; the jobs the caller ran, in order;
    and the number of forks."""
    counted, ran = in_caller(fn)
    real_fork, forked = os.fork, []

    def fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(forks, "usable_cores", lambda: cores)
    monkeypatch.setattr(os, "fork", fork)
    with contextlib.closing(fork_map(counted, JOBS,
                                     forks.PARALLEL_WORK)) as results:
        got = [as_bytes(result) for result in results]
    return got, ran, len(forked)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_parts_arrive_in_job_order(cores, monkeypatch):
    got, ran, forked = run(parts, cores, monkeypatch)
    assert got == [as_bytes(parts(job)) for job in JOBS]
    # the children delivered every job but the caller's own share
    assert ran == JOBS[::cores]
    assert forked == cores - 1


def test_work_below_the_threshold_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked below PARALLEL_WORK")

    monkeypatch.setattr(forks, "usable_cores", lambda: 3)
    monkeypatch.setattr(os, "fork", fork)
    got = list(fork_map(parts, JOBS, forks.PARALLEL_WORK - 1))
    assert [as_bytes(r) for r in got] == [as_bytes(parts(j)) for j in JOBS]


def test_child_dying_between_two_parts_hands_the_job_back(monkeypatch,
                                                          tmp_path):
    # the child of two cores sends job 3's count and first part, then is
    # killed as it writes the second
    last = b"the last part of job 3"

    class DyingPipe(io.BufferedWriter):
        def write(self, data):
            if bytes(data) == last:
                self.flush()
                (tmp_path / "died").touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return super().write(data)

    def opened(fd, mode):
        if mode == "wb":
            return DyingPipe(io.FileIO(fd, "w"))
        return builtins.open(fd, mode)

    def two_parts(job):
        return [f"job {job}".encode(),
                f"the last part of job {job}".encode()]

    monkeypatch.setattr(forks, "open", opened, raising=False)
    got, ran, _ = run(two_parts, 2, monkeypatch)
    assert (tmp_path / "died").exists()
    assert got == [as_bytes(two_parts(job)) for job in JOBS]
    assert ran == [0, 2, 3, 4, 5, 6]


def test_child_warning_is_issued_once_by_the_caller(monkeypatch):
    def warn(job):
        if job == 3:
            warnings.warn("a warning at job 3", RuntimeWarning)
        return parts(job)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, ran, forked = run(warn, 2, monkeypatch)
    assert [str(w.message) for w in caught] == ["a warning at job 3"]
    assert got == [as_bytes(parts(job)) for job in JOBS]
    assert 3 in ran and forked == 1


def test_child_error_is_raised_again_by_the_caller(monkeypatch):
    def fail(job):
        if job == 3:
            raise ValueError("a fault at job 3")
        return parts(job)

    counted, ran = in_caller(fail)
    monkeypatch.setattr(forks, "usable_cores", lambda: 2)
    got = []
    with pytest.raises(ValueError, match="^a fault at job 3$"):
        with contextlib.closing(fork_map(counted, JOBS,
                                         forks.PARALLEL_WORK)) as results:
            got.extend(as_bytes(result) for result in results)
    assert got == [as_bytes(parts(job)) for job in JOBS[:3]]
    assert ran == [0, 2, 3]


def test_early_close_reaps_every_child(monkeypatch):
    monkeypatch.setattr(forks, "usable_cores", lambda: 3)
    with contextlib.closing(fork_map(parts, JOBS,
                                     forks.PARALLEL_WORK)) as results:
        assert as_bytes(next(results)) == as_bytes(parts(0))

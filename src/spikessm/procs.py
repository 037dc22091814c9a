"""A second process beside the caller: the one fork primitive of the
package (:func:`child`), the rule for when it forks, and the shared
memory and pipe ends its work goes through.

A child computes only what its parent could compute itself, so the
parent never needs to know why one is missing. It reads the child's
answers from a pipe; where no child forked, or it ended before an
answer, the read returns None and the parent does that work itself.
This module imports no model code.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# OpenBLAS reads its thread count from the first of these that is set,
# once, when numpy loads it; unset, it takes every CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int:
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


def _second_process_fits() -> bool:
    """Whether this process may fork a second one to work beside it, the
    one rule of :func:`child`.

    Each process needs CPUs for all its BLAS threads: where BLAS already
    takes every CPU, a split teacher pass read 2.2-2.8x one process.
    A fork copies only the calling thread, so a process running other
    Python threads never forks."""
    return threading.active_count() == 1 and usable_cpus() >= 2 * _blas_threads()


def shared(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, shared with forked children."""
    n, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(n * itemsize, 1)), dtype, n).reshape(shape)


# the two ends of a pipe between a parent and its child
Receive = Callable[[int], bytes | None]
Send = Callable[[bytes], None]


def _receiver(fd: int) -> Receive:
    """``receive(n)``: the next ``n`` bytes of pipe ``fd``. None at EOF or
    a short read (the writer raised, was killed or exited early), and at
    every call after it: the reader then computes what it waited for
    itself."""
    live = True

    def receive(n: int) -> bytes | None:
        nonlocal live
        got = b""
        while live and len(got) < n:
            part = os.read(fd, n - len(got))
            live = bool(part)
            got += part
        return got if live else None

    return receive


def _sender(fd: int) -> Send:
    """``send(data)``: all of ``data`` into pipe ``fd``; nothing once its
    reader has gone, which the other end learns from its own reads."""
    def send(data: bytes) -> None:
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(fd, view):]
        except BrokenPipeError:
            pass

    return send


def keep_off(pid: int, cpus: set[int]) -> None:
    """Run this process on ``cpus`` but the one process ``pid`` last ran
    on (read from ``/proc``), where that leaves a CPU.

    A child that sleeps between short pieces of work for its parent was
    often woken on the parent's CPU, where it preempted the parent. On a
    two-vCPU Xeon guest at one BLAS thread, a one-byte hand-off to the
    alignment child then read 1.7-2.6 ms, and distillation steps with
    the child read 0.65-1.9x the one-process step, median 1.10, over 8
    pairs; kept off the parent's CPU, 0.67-0.99x, median 0.86."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
        if cpus - {cpu}:
            os.sched_setaffinity(0, cpus - {cpu})
    except (OSError, ValueError, IndexError):
        pass


@contextmanager
def child(work: Callable[[Receive, Send], None] | None
          ) -> Iterator[tuple[Send, Receive, bool]]:
    """Run ``work(receive, send)`` in a forked child, a pipe each way;
    the block gets this end of both and whether a child runs, ``(send,
    receive, forked)`` (see :func:`_receiver` and :func:`_sender`).

    It forks only where ``work`` is given and :func:`_second_process_fits`.
    Opening the pipes and forking share one failure path: where either
    raises ``OSError`` (EMFILE at the descriptor limit, EAGAIN at the
    process limit), or the platform cannot fork, no child runs, ``send``
    does nothing and ``receive`` returns None at once. The pipes' buffers
    bound how far ahead the child runs. It leaves through ``os._exit``:
    it never unwinds into the caller's stack or flushes the buffers it
    inherited. However the block ends, the child is killed and reaped."""
    pid, fds = None, []  # the read and write ends of the pipe down, then up's
    if work is not None and hasattr(os, "fork") and _second_process_fits():
        try:
            for _ in range(2):
                fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        yield (lambda data: None), (lambda n: None), False
        return
    down_r, down_w, up_r, up_w = fds
    if pid == 0:
        status = 1
        try:
            os.close(down_w)
            os.close(up_r)
            work(_receiver(down_r), _sender(up_w))
            status = 0
        finally:
            os._exit(status)
    os.close(down_r)
    os.close(up_w)
    try:
        yield _sender(down_w), _receiver(up_r), True
    finally:
        os.close(down_w)
        os.close(up_r)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

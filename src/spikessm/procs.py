"""A second process beside the caller: the one child type of the package
(:class:`Child`), the rule for when it forks, and the shared memory and
pipe ends its work goes through.

A child computes only what its parent could compute itself, so the
parent never needs to know why one is missing. It reads the child's
answers from a pipe; where no child forked, or it ended before an
answer, the read returns None, the child is closed, and the parent does
that work itself.

Most children live for one call, the ``with`` block that forks them;
one that serves many short requests stays open until it is closed (its
owner's finalizer, or :func:`close_all`). Only the thread that forked
a child talks to it, only the process that forked it kills it, and a
forked child never forks. This module imports no model code.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from typing import Callable

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


_in_child = False  # set in a forked Child: a child never forks


def _second_process_fits() -> bool:
    """Whether this process may fork a second one to work beside it, the
    one rule of :class:`Child`.

    Each process needs CPUs for all its BLAS threads: where BLAS already
    takes every CPU, a split teacher pass read 2.2-2.8x one process.
    A fork copies only the calling thread, so a process running other
    Python threads never forks, and a forked child never forks: it
    shares its parent's CPUs."""
    return (not _in_child and threading.active_count() == 1
            and usable_cpus() >= 2 * _blas_threads())


def shared(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, shared with forked children."""
    n, itemsize = math.prod(shape), np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, max(n * itemsize, 1)), dtype, n).reshape(shape)


# the two ends of a pipe between a parent and its child
Receive = Callable[[int], bytes | None]
Send = Callable[[bytes], None]


def _receiver(fd: int) -> Receive:
    """``receive(n)``: the next ``n`` bytes of pipe ``fd``; None at EOF or
    a short read (the writer raised, was killed or exited early)."""
    def receive(n: int) -> bytes | None:
        got = b""
        while len(got) < n:
            part = os.read(fd, n - len(got))
            if not part:
                return None
            got += part
        return got

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


def _requests(fd: int, parent: int) -> Receive:
    """The child's ``receive``: :func:`_receiver`'s, and after each
    request it reads, :func:`keep_off` the parent, on the CPUs the child
    started with."""
    receive = _receiver(fd)
    cpus = set(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else set()

    def kept(n: int) -> bytes | None:
        got = receive(n)
        if got is not None:
            keep_off(parent, cpus)
        return got

    return kept


Work = Callable[[Receive, Send], None]

_open: set["Child"] = set()  # the open children this process forked, and so its pipe ends


class Child:
    """``make()(receive, send)`` run in a forked child, a pipe each way;
    this end's :meth:`send` and :meth:`receive` talk to it while it is
    :attr:`live`. Use it as a context manager (or :meth:`close` it).

    It forks only where ``make`` is given and :func:`_second_process_fits`.
    ``make`` builds the child's state (its shared mappings) and returns
    its work; it is called only there, once the pipes are open, right
    before the fork. Opening the pipes, ``make`` and forking share one
    failure path: where one raises ``OSError`` (EMFILE at the descriptor
    limit, ENOMEM, EAGAIN at the process limit), or the platform cannot
    fork, no child runs. The pipes' buffers bound how far ahead the child
    runs. The child closes its parent's ends of the pipes to its other
    children, so each of them still reads EOF when the parent goes, and
    moves off its parent's CPU after each request it reads
    (:func:`keep_off`). It leaves through ``os._exit``: it never unwinds
    into the caller's stack or flushes the buffers it inherited.

    One failure rule: the first :meth:`receive` that returns None (the
    child raised, was killed or exited before its answer) closes the
    child. Closing kills and reaps it; from then on, as where none
    forked, ``live`` is False, ``send`` does nothing and ``receive``
    returns None at once. Only the thread and process that forked a
    child talk to it: in another thread, which would share its pipe and
    mappings, it is not ``live`` and ``receive`` returns None without
    closing it. Only the process that forked it closes it, from any
    thread (its owner's finalizer, :func:`close_all`); elsewhere (in a
    later child, which inherits this object) ``close`` leaves it alone.
    :func:`close_all` closes every open one."""

    def __init__(self, make: Callable[[], Work] | None):
        global _in_child
        self._parent, self._thread = os.getpid(), threading.get_ident()
        self._pid = None  # the child's, while it is open
        pid, fds = None, []  # the read and write ends of the pipe down, then up's
        if make is not None and hasattr(os, "fork") and _second_process_fits():
            try:
                for _ in range(2):
                    fds += os.pipe()
                work = make()
                pid = os.fork()
            except OSError:
                pass
            finally:
                if pid is None:
                    for fd in fds:
                        os.close(fd)
        if pid is None:
            return
        down_r, down_w, up_r, up_w = fds
        if pid == 0:
            status = 1
            try:
                _in_child = True
                for fd in {fd for c in _open for fd in c._fds} | {down_w, up_r}:
                    os.close(fd)
                work(_requests(down_r, self._parent), _sender(up_w))
                status = 0
            finally:
                os._exit(status)
        os.close(down_r)
        os.close(up_w)
        self._pid, self._fds = pid, (down_w, up_r)
        self._send, self._receive = _sender(down_w), _receiver(up_r)
        _open.add(self)

    @property
    def live(self) -> bool:
        """Whether this thread forked the child and it is open: no read
        has found it gone, and no one closed it."""
        return self._ours() and threading.get_ident() == self._thread

    def _ours(self) -> bool:
        """Whether the child is open and this process forked it."""
        return self._pid is not None and os.getpid() == self._parent

    def send(self, data: bytes) -> None:
        if self.live:
            self._send(data)

    def receive(self, n: int) -> bytes | None:
        """The child's next ``n`` bytes; None, closing it, where they do
        not come."""
        if not self.live:
            return None
        got = self._receive(n)
        if got is None:
            self.close()
        return got

    def close(self) -> None:
        """Kill and reap the child, in the process that forked it."""
        if self._ours():
            pid, self._pid = self._pid, None
            _open.discard(self)
            for fd in self._fds:
                os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def close_all() -> None:
    """Close every :class:`Child` this process forked and still holds open."""
    for child in list(_open):
        child.close()

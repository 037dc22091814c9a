"""The fork primitive ``procs.child`` with trivial work and no model."""

import ast
import os
import signal
import time
from pathlib import Path

import pytest

from spikessm import procs, training

ENDS = {"exit 0": 0, "exit 3": 3, "sigkill": -signal.SIGKILL}  # and the exit code of each


def end(how: str) -> None:
    """End this process as ``how`` says, one of :data:`ENDS`."""
    if how == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(ENDS[how])


def _open_fds() -> set[int]:
    fds = set()
    for fd in range(256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.add(fd)
    return fds


def _reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_the_childs_sends_are_read_in_order(forks):
    """Sends of 1 to 5 bytes, then one larger than a pipe's buffer, which
    reaches this end in several reads: each ``receive`` returns one
    send, in order, then None at EOF."""
    big = bytes(range(256)) * 1024

    def work(receive, send):
        for i in range(5):
            send(bytes([i]) * (i + 1))
        send(big)

    with procs.child(work) as (_, receive, forked):
        got = [receive(i + 1) for i in range(5)] + [receive(len(big)), receive(1)]
    assert forked and len(forks) == 1
    assert got == [bytes([i]) * (i + 1) for i in range(5)] + [big, None]
    _reaped(forks)


def test_what_this_end_sends_reaches_the_child(forks):
    def echo(receive, send):
        while (got := receive(3)) is not None:
            send(got[::-1])

    with procs.child(echo) as (send, receive, _):
        for word in (b"abc", b"xyz"):
            send(word)
            assert receive(3) == word[::-1]
    _reaped(forks)


@pytest.mark.parametrize("how", ENDS)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_child_that_ends_before_its_kth_send_reads_none_from_there_on(
        k, how, forks, exit_codes):
    """The child ends before its k-th of four sends: ``receive`` returns
    the k - 1 sends before it, then None at the k-th and every later
    call; the child is reaped with the status it ended with."""
    def work(receive, send):
        for i in range(1, 5):
            if i == k:
                end(how)
            send(bytes([i]))

    with procs.child(work) as (_, receive, forked):
        got = [receive(1) for _ in range(6)]
    assert forked and got == [bytes([i]) for i in range(1, k)] + [None] * (7 - k)
    assert exit_codes == [ENDS[how]]
    _reaped(forks)


def test_a_block_that_raises_kills_and_reaps_the_child(forks, exit_codes):
    def sleeps(receive, send):
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="here"):
        with procs.child(sleeps) as (_, _, forked):
            assert forked
            raise RuntimeError("here")
    assert time.monotonic() - start < 30
    assert exit_codes == [-signal.SIGKILL]
    _reaped(forks)


def test_a_child_that_raises_exits_1(forks, exit_codes):
    def raises(receive, send):
        send(b"a")
        raise ValueError("there")

    with procs.child(raises) as (_, receive, _):
        assert receive(1) == b"a" and receive(1) is None
    assert exit_codes == [1]


def test_no_work_forks_no_child(forks):
    with procs.child(None) as (send, receive, forked):
        assert send(b"x") is None and receive(1) is None and not forked
    assert not forks


def test_where_no_child_forks_receive_returns_none_at_once(no_child, forks):
    """Where the fork rule does not hold, or the fork or its pipes fail: no
    child, ``send`` does nothing, ``receive`` returns None at once, and no
    descriptor is left open."""
    def work(receive, send):
        pytest.fail("a child ran")

    open_before = _open_fds()
    with no_child():
        with procs.child(work) as (send, receive, forked):
            assert send(b"x") is None and receive(1) is None and not forked
    assert not forks and _open_fds() == open_before


def test_a_second_pipe_that_fails_closes_the_first(forks):
    """Three descriptors left: the first pipe opens and the second raises
    ``EMFILE``; no child forks and the first pipe's two ends are closed."""
    resource = pytest.importorskip("resource")
    open_before = _open_fds()
    lowest = min(set(range(258)) - open_before)
    if not {lowest, lowest + 1, lowest + 2}.isdisjoint(open_before):
        pytest.skip("the three lowest free descriptors are not consecutive")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (lowest + 3, hard))
    try:
        with procs.child(lambda receive, send: None) as (_, receive, forked):
            assert receive(1) is None and not forked
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert not forks and _open_fds() == open_before


def _imports(module) -> set[str]:
    """The modules ``module``'s source imports, relative ones with their dots."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_procs_is_the_one_module_that_forks():
    """``procs`` imports no module of the package; ``training`` leaves the
    mappings, signals and threads to it; and ``procs`` forks, kills,
    opens a pipe and reaps in one place each, no other source file at all."""
    assert not {m for m in _imports(procs) if m.startswith((".", "spikessm"))}
    assert not {"mmap", "signal", "threading"} & _imports(training)
    for path in Path(procs.__file__).parent.glob("*.py"):
        counts = [path.read_text().count(call + "(")
                  for call in ("os.fork", "os.kill", "os.pipe", "os.waitpid")]
        assert counts == [int(path.name == "procs.py")] * 4, path.name

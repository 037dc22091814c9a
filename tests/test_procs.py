"""The fork primitive ``procs.child`` and its long-lived form ``procs.Lasting``,
with trivial work and no model."""

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

    with procs.child(lambda: work) as (_, receive, forked):
        got = [receive(i + 1) for i in range(5)] + [receive(len(big)), receive(1)]
    assert forked and len(forks) == 1
    assert got == [bytes([i]) * (i + 1) for i in range(5)] + [big, None]
    _reaped(forks)


def test_what_this_end_sends_reaches_the_child(forks):
    def echo(receive, send):
        while (got := receive(3)) is not None:
            send(got[::-1])

    with procs.child(lambda: echo) as (send, receive, _):
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

    with procs.child(lambda: work) as (_, receive, forked):
        got = [receive(1) for _ in range(6)]
    assert forked and got == [bytes([i]) for i in range(1, k)] + [None] * (7 - k)
    assert exit_codes == [ENDS[how]]
    _reaped(forks)


def test_a_block_that_raises_kills_and_reaps_the_child(forks, exit_codes):
    def sleeps(receive, send):
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="here"):
        with procs.child(lambda: sleeps) as (_, _, forked):
            assert forked
            raise RuntimeError("here")
    assert time.monotonic() - start < 30
    assert exit_codes == [-signal.SIGKILL]
    _reaped(forks)


def test_a_child_that_raises_exits_1(forks, exit_codes):
    def raises(receive, send):
        send(b"a")
        raise ValueError("there")

    with procs.child(lambda: raises) as (_, receive, _):
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
        with procs.child(lambda: work) as (send, receive, forked):
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
        with procs.child(lambda: lambda receive, send: None) as (_, receive, forked):
            assert receive(1) is None and not forked
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert not forks and _open_fds() == open_before


def test_make_runs_once_right_before_the_fork(forks):
    """``make`` builds the child's state only where a child forks, once,
    after the fork rule held and before ``os.fork``; the child runs the
    work it returned."""
    made = []

    def make():
        made.append(len(forks))
        return lambda receive, send: send(b"w")

    with procs.child(make) as (_, receive, forked):
        assert forked and receive(1) == b"w"
    assert made == [0] and len(forks) == 1


def test_where_no_child_forks_make_runs_only_if_the_fork_fails(no_child, request, forks):
    """No ``make`` where the rule does not hold, ``os.fork`` is missing or
    the pipes cannot open; where the fork itself raises, ``make`` ran
    once before it."""
    made = []

    def make():
        made.append(1)
        return lambda receive, send: None

    with no_child():
        with procs.child(make) as (_, _, forked):
            assert not forked
    assert made == [1] * (request.node.callspec.params["no_child"] == "fork fails")


def test_a_forked_child_never_forks(forks):
    """In a child's work, ``child`` forks nothing: the rule does not hold
    there, and ``make`` is not called."""
    def work(receive, send):
        with procs.child(lambda: pytest.fail("a child's child ran")) as (_, _, forked):
            send(bytes([forked, procs._second_process_fits()]))

    with procs.child(lambda: work) as (_, receive, _):
        assert receive(2) == bytes([False, False])
    assert len(forks) == 1 and procs._second_process_fits()
    _reaped(forks)


def test_a_child_holds_no_end_of_another_childs_pipes(forks):
    """A child forked while another runs closes this process's ends of
    the other's pipes, so the other still reads EOF once this process
    closes them."""
    def echo(receive, send):
        while (got := receive(1)) is not None:
            send(got)

    with procs.child(lambda: echo) as (send, receive, _):
        ends = set(procs._ends)

        def probe(_, send_up):
            closed = []
            for fd in ends:
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            send_up(bytes([len(closed)]))

        with procs.child(lambda: probe) as (_, probed, _):
            assert probed(1) == bytes([len(ends)]) and len(ends) == 2
        send(b"e")
        assert receive(1) == b"e"
    assert len(forks) == 2
    _reaped(forks)


def echo_then_sleep(receive, send):
    """Echo each byte; at EOF sleep, so only a kill ends the child."""
    while (got := receive(1)) is not None:
        send(got)
    time.sleep(60)


def test_a_lasting_child_serves_until_it_is_closed(forks, exit_codes):
    """A :class:`procs.Lasting` child answers across calls until
    ``close`` kills and reaps it; a second ``close`` does nothing, and
    from then on ``send`` does nothing and ``receive`` returns None."""
    lasting = procs.Lasting(lambda: echo_then_sleep)
    for word in (b"a", b"b"):
        lasting.send(word)
        assert lasting.receive(1) == word
    assert lasting.live and len(forks) == 1 and not exit_codes
    lasting.close()
    lasting.close()
    assert not lasting.live and exit_codes == [-signal.SIGKILL]
    assert lasting.send(b"c") is None and lasting.receive(1) is None
    _reaped(forks)


def test_a_lasting_child_serves_only_the_process_that_made_it(forks, exit_codes):
    """In another process (a child forked later, holding a copy of the
    object), the lasting child is not used: it is not ``live``,
    ``receive`` returns None and ``close`` does not kill it."""
    lasting = procs.Lasting(lambda: echo_then_sleep)

    def elsewhere(_, send):
        lasting.send(b"x")
        got = lasting.receive(1)
        lasting.close()
        send(bytes([lasting.live, got is None]))
        time.sleep(60)

    with procs.child(lambda: elsewhere) as (_, receive, _):
        assert receive(2) == bytes([False, True])
    assert lasting.live and len(forks) == 2 and exit_codes == [-signal.SIGKILL]
    lasting.send(b"y")
    assert lasting.receive(1) == b"y"
    procs.close_all()
    assert not lasting.live and exit_codes == [-signal.SIGKILL] * 2
    _reaped(forks)


def test_a_lasting_child_where_none_forks_is_not_live(no_child, forks):
    with no_child():
        lasting = procs.Lasting(lambda: lambda receive, send: None)
    assert not lasting.live and lasting.receive(1) is None and not forks
    lasting.close()


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

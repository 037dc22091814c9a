"""The one child type ``procs.Child``, with trivial work and no model."""

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

    with procs.Child(lambda: work) as child:
        assert child.live
        got = [child.receive(i + 1) for i in range(5)] + [child.receive(len(big)),
                                                          child.receive(1)]
    assert len(forks) == 1
    assert got == [bytes([i]) * (i + 1) for i in range(5)] + [big, None]
    _reaped(forks)


def test_what_this_end_sends_reaches_the_child(forks):
    def echo(receive, send):
        while (got := receive(3)) is not None:
            send(got[::-1])

    with procs.Child(lambda: echo) as child:
        for word in (b"abc", b"xyz"):
            child.send(word)
            assert child.receive(3) == word[::-1]
    _reaped(forks)


@pytest.mark.parametrize("how", ENDS)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_child_that_ends_before_its_kth_send_reads_none_from_there_on(
        k, how, forks, exit_codes):
    """The child ends before its k-th of four sends: ``receive`` returns
    the k - 1 sends before it, then None at the k-th, which closes the
    child, and at every later call; the child is reaped with the status
    it ended with."""
    def work(receive, send):
        for i in range(1, 5):
            if i == k:
                end(how)
            send(bytes([i]))

    with procs.Child(lambda: work) as child:
        assert child.live
        got = [child.receive(1) for _ in range(6)]
        assert not child.live and exit_codes == [ENDS[how]]
    assert got == [bytes([i]) for i in range(1, k)] + [None] * (7 - k)
    assert exit_codes == [ENDS[how]]
    _reaped(forks)


def test_a_block_that_raises_kills_and_reaps_the_child(forks, exit_codes):
    def sleeps(receive, send):
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="here"):
        with procs.Child(lambda: sleeps) as child:
            assert child.live
            raise RuntimeError("here")
    assert time.monotonic() - start < 30
    assert exit_codes == [-signal.SIGKILL]
    _reaped(forks)


def test_a_child_that_raises_exits_1(forks, exit_codes):
    def raises(receive, send):
        send(b"a")
        raise ValueError("there")

    with procs.Child(lambda: raises) as child:
        assert child.receive(1) == b"a" and child.receive(1) is None
    assert exit_codes == [1]


def test_no_work_forks_no_child(forks):
    with procs.Child(None) as child:
        assert child.send(b"x") is None and child.receive(1) is None and not child.live
    assert not forks


def test_where_no_child_forks_receive_returns_none_at_once(no_child, forks):
    """Where the fork rule does not hold, or the fork or its pipes fail: no
    child, it is not ``live``, ``send`` does nothing, ``receive`` returns
    None at once, ``close`` does nothing, and no descriptor is left open."""
    def work(receive, send):
        pytest.fail("a child ran")

    open_before = _open_fds()
    with no_child():
        with procs.Child(lambda: work) as child:
            assert child.send(b"x") is None and child.receive(1) is None
            assert not child.live
            child.close()
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
        with procs.Child(lambda: lambda receive, send: None) as child:
            assert child.receive(1) is None and not child.live
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

    with procs.Child(make) as child:
        assert child.live and child.receive(1) == b"w"
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
        with procs.Child(make) as child:
            assert not child.live
    assert made == [1] * (request.node.callspec.params["no_child"] == "fork fails")


def test_a_forked_child_never_forks(forks):
    """In a child's work, ``Child`` forks nothing: the rule does not hold
    there, and ``make`` is not called."""
    def work(receive, send):
        with procs.Child(lambda: pytest.fail("a child's child ran")) as grandchild:
            send(bytes([grandchild.live, procs._second_process_fits()]))

    with procs.Child(lambda: work) as child:
        assert child.receive(2) == bytes([False, False])
    assert len(forks) == 1 and procs._second_process_fits()
    _reaped(forks)


def test_a_child_holds_no_end_of_another_childs_pipes(forks):
    """A child forked while another runs closes this process's ends of
    the other's pipes, so the other still reads EOF once this process
    closes them."""
    def echo(receive, send):
        while (got := receive(1)) is not None:
            send(got)

    with procs.Child(lambda: echo) as child:
        ends = set(procs._ends)

        def probe(_, send_up):
            closed = []
            for fd in ends:
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            send_up(bytes([len(closed)]))

        with procs.Child(lambda: probe) as prober:
            assert prober.receive(1) == bytes([len(ends)]) and len(ends) == 2
        child.send(b"e")
        assert child.receive(1) == b"e"
    assert len(forks) == 2
    _reaped(forks)


def echo_then_sleep(receive, send):
    """Echo each byte; at EOF sleep, so only a kill ends the child."""
    while (got := receive(1)) is not None:
        send(got)
    time.sleep(60)


def test_a_lasting_child_serves_until_it_is_closed(forks, exit_codes):
    """A child held outside a ``with`` block answers across calls until
    ``close`` kills and reaps it; a second ``close`` does nothing, and
    from then on ``send`` does nothing and ``receive`` returns None."""
    child = procs.Child(lambda: echo_then_sleep)
    for word in (b"a", b"b"):
        child.send(word)
        assert child.receive(1) == word
    assert child.live and len(forks) == 1 and not exit_codes
    child.close()
    child.close()
    assert not child.live and exit_codes == [-signal.SIGKILL]
    assert child.send(b"c") is None and child.receive(1) is None
    _reaped(forks)


def test_a_lasting_child_serves_only_the_process_that_made_it(forks, exit_codes):
    """In another process (a child forked later, holding a copy of the
    object), a child is not used: it is not ``live``, ``receive``
    returns None and ``close`` does not kill it."""
    lasting = procs.Child(lambda: echo_then_sleep)

    def elsewhere(_, send):
        lasting.send(b"x")
        got = lasting.receive(1)
        lasting.close()
        send(bytes([lasting.live, got is None]))
        time.sleep(60)

    with procs.Child(lambda: elsewhere) as child:
        assert child.receive(2) == bytes([False, True])
    assert lasting.live and len(forks) == 2 and exit_codes == [-signal.SIGKILL]
    lasting.send(b"y")
    assert lasting.receive(1) == b"y"
    procs.close_all()
    assert not lasting.live and exit_codes == [-signal.SIGKILL] * 2
    _reaped(forks)


def test_a_lasting_child_where_none_forks_is_not_live(no_child, forks):
    with no_child():
        child = procs.Child(lambda: lambda receive, send: None)
    assert not child.live and child.receive(1) is None and not forks
    child.close()


def test_a_missed_answer_closes_and_reaps_the_child_at_once(forks, exit_codes):
    """The first ``receive`` that returns None kills and reaps the child
    before the block ends; later reads return None without reading."""
    def quits(receive, send):
        send(b"a")
        time.sleep(60)

    with procs.Child(lambda: lambda receive, send: None) as child:
        assert child.receive(1) is None and not child.live
        _reaped(forks)
        assert exit_codes == [0] and procs._ends == set()
    with procs.Child(lambda: quits) as child:
        assert child.receive(1) == b"a" and child.live
        child.close()
        assert child.receive(1) is None and exit_codes == [0, -signal.SIGKILL]
    _reaped(forks)


def test_close_all_closes_a_child_held_by_a_with_block(forks, exit_codes):
    with procs.Child(lambda: echo_then_sleep) as child:
        assert child.live
        procs.close_all()
        assert not child.live and exit_codes == [-signal.SIGKILL]
        _reaped(forks)
        assert child.receive(1) is None
    assert exit_codes == [-signal.SIGKILL]


def test_the_child_keeps_off_its_parent_once_per_request(forks, monkeypatch):
    """The child calls ``keep_off(parent, cpus)`` once per request it
    reads, right after the read, with the CPUs it started on; a child
    that reads nothing never calls it."""
    calls = []
    monkeypatch.setattr(procs, "keep_off", lambda pid, cpus: calls.append((pid, cpus)))
    parent = os.getpid()

    def counts(receive, send):
        while (got := receive(1)) is not None:
            send(bytes([len(calls), calls == [(parent, {0, 1})] * len(calls)]))

    with procs.Child(lambda: counts) as child:
        for i in range(1, 4):
            child.send(b"r")
            assert child.receive(2) == bytes([i, True])

    def silent(receive, send):
        send(bytes([len(calls)]))

    with procs.Child(lambda: silent) as child:
        assert child.receive(1) == bytes([0])
    assert not calls and len(forks) == 2


def _imports(module) -> dict[str, set[str]]:
    """The modules ``module``'s source imports, relative ones with their
    dots, each with the names it takes from them."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names.setdefault(a.name, set())
        elif isinstance(node, ast.ImportFrom):
            names.setdefault("." * node.level + (node.module or ""), set()).update(
                a.name for a in node.names)
    return names


def test_procs_is_the_one_module_that_forks():
    """``procs`` imports no module of the package; ``training`` leaves the
    mappings, signals, threads and CPU placement to it and takes from it
    only the child type, the mappings and the pipe-end types; and
    ``procs`` forks, kills, opens a pipe and reaps in one place each, and
    no other source file forks, kills, opens a pipe, reaps or places a
    process on CPUs at all."""
    assert not {m for m in _imports(procs) if m.startswith((".", "spikessm"))}
    assert not {"mmap", "signal", "threading"} & set(_imports(training))
    assert _imports(training)[".procs"] == {"Child", "Receive", "Send", "shared"}
    assert not {"Lasting", "child", "keeper"} & set(vars(procs))
    for path in Path(procs.__file__).parent.glob("*.py"):
        counts = [path.read_text().count(call + "(")
                  for call in ("os.fork", "os.kill", "os.pipe", "os.waitpid")]
        assert counts == [int(path.name == "procs.py")] * 4, path.name
        placed = "os.sched_setaffinity" in path.read_text()
        assert placed == (path.name == "procs.py"), path.name

"""Forked helper processes for run_corpus.

harness.run_corpus checks a stream of more than two chunks here, on a
platform with fork and from a process that runs no other thread.  Each
helper is a forked process, with its own memory and caches, that reads
chunks of tables from a pipe, runs each through harness._run_chunk, and
sends back one message per chunk: the chunk's lines, its tally, and the
exception that cut it short with its traceback, if one did.  The parent
writes the lines to the report in stream order, so the report is the
bytes of a run in one process.  Helpers ignore SIGINT; the parent stops
them on every exit path.

The helpers are plain os.fork children, not multiprocessing processes:
over 50 passes of the 3,492 binary size-4 tables, multiprocessing (its
imports and whole-message reads) left the parent's peak RSS 2.2 MB above
a serial run's, and raw forks reading whole messages 0.6 MB.
"""

from __future__ import annotations

import collections
import dataclasses
import marshal
import os
import signal
import traceback
from typing import BinaryIO, Iterator, NoReturn

from .core import NaryTable
from .harness import CorpusReport, _run_chunk
from .oracle import OracleBounds


def helper_results(
    chunks: Iterator[tuple[list[NaryTable], Exception | None]],
    bounds: OracleBounds,
    count: int,
    out: BinaryIO,
) -> Iterator[tuple[CorpusReport, Exception | None]]:
    """Run each chunk in one of count forked helpers, write its lines to out
    in stream order, and yield its tally and its stream exception, or raise
    the exception that cut it short in its helper; the helpers are stopped
    when the generator ends or is closed.

    Each helper holds one chunk at a time, and the parent reads the helper
    whose chunk is next in the stream, then sends that helper the next
    chunk, so a send never waits on a helper that waits to send.
    """
    helpers = []  # (pid, pipe to it, pipe from it)
    try:
        # Blocked while forking, so a helper ignores SIGINT from its start.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(count):
                down_r, down_w = os.pipe()
                up_r, up_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    ours = [down_w, up_r] + [f.fileno() for _, *pipes in helpers for f in pipes]
                    _serve(down_r, up_w, bounds, ours)
                os.close(down_r)
                os.close(up_w)
                helpers.append((pid, open(down_w, "wb"), open(up_r, "rb")))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        turns: collections.deque = collections.deque()  # (pipes, stream error) per chunk sent

        def send_next(down: BinaryIO, up: BinaryIO) -> None:
            chunk = next(chunks, None)
            if chunk is not None:
                tables, error = chunk
                _send(down, marshal.dumps([(t.arity, t.size, t.entries) for t in tables]))
                turns.append(((down, up), error))

        for _, down, up in helpers:
            send_next(down, up)
        while turns:
            (down, up), error = turns.popleft()
            if (message := _recv(up)) is None:
                raise RuntimeError("a corpus helper exited before sending its chunk")
            lines, fields, pickled, trace = marshal.loads(message)
            out.write(lines)
            if pickled is not None:
                import pickle

                raise pickle.loads(pickled) from RuntimeError(f"in a corpus helper:\n{trace}")
            send_next(down, up)
            yield CorpusReport(*fields), error
    finally:
        for pid, down, up in helpers:  # a helper holds nothing that needs a clean exit
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            down.close()
            up.close()


def _send(pipe: BinaryIO, data: bytes) -> None:
    """Write data to pipe as one message: its length, then its bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _recv(pipe: BinaryIO) -> bytes | None:
    """The next message _send wrote to pipe, or None if the pipe ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(head) == 8 and len(data) == size else None


def _serve(down: int, up: int, bounds: OracleBounds, parent_fds: list[int]) -> NoReturn:
    """A forked helper: run each chunk read from the pipe down, and send up
    one message of its lines, its tally fields, and the exception that cut
    it short (pickled, the tally then None) with its traceback, until the
    parent closes down or goes away; then end the process."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its helpers
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in parent_fds:  # so that a helper sees EOF once the parent is gone
            os.close(fd)
        with open(down, "rb") as requests, open(up, "wb") as results:
            while (specs := _recv(requests)) is not None:
                lines: list[bytes] = []
                tables = [NaryTable(*spec) for spec in marshal.loads(specs)]
                fields = pickled = trace = None
                try:
                    fields = dataclasses.astuple(_run_chunk(tables, bounds, lines.append))
                except BaseException as exc:
                    import pickle

                    pickled = pickle.dumps(exc)
                    trace = "".join(traceback.format_exception(exc))
                _send(results, marshal.dumps((b"".join(lines), fields, pickled, trace)))
        status = 0
    finally:
        os._exit(status)  # never back into the parent's frames

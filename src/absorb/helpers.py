"""Forked helper processes for run_corpus.

harness.run_corpus checks a stream of more than two chunks here, on a
platform with fork and from a process that runs no other thread.  Each
helper is a forked process, with its own memory and caches, that reads
chunks of tables from a pipe, runs each through harness._run_chunk, and
sends back the chunk's lines as raw bytes, then its tally and the
exception that cut it short, if one did.  The parent writes the lines to
the report in stream order, so the report is the bytes of a run in one
process.  Helpers ignore SIGINT; the parent stops them on every exit path.

The helpers are plain os.fork children, not multiprocessing processes,
and the parent copies their lines 64 KiB at a time, not whole: over 50
passes of the 3,492 binary size-4 tables, multiprocessing (its imports
and whole-message reads) left the parent's peak RSS 2.2 MB above a serial
run's, and this module 0.1 MB.
"""

from __future__ import annotations

import collections
import dataclasses
import io
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
) -> Iterator[tuple[CorpusReport, BaseException | None, Exception | None]]:
    """Run each chunk in one of count forked helpers, write its lines to out
    in stream order, and yield what _run_chunk returned for it and the
    chunk's stream exception; the helpers are stopped when the generator
    ends or is closed.

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
            if not _copy(up, out) or (result := _recv(up)) is None:
                raise RuntimeError("a corpus helper exited before sending its chunk")
            fields, pickled, trace = marshal.loads(result)
            exc = None
            if pickled is not None:
                import pickle

                exc = pickle.loads(pickled)
                exc.__cause__ = RuntimeError(f"in a corpus helper:\n{trace}")
            send_next(down, up)
            yield CorpusReport(*fields), exc, error
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
    data = io.BytesIO()
    return data.getvalue() if _copy(pipe, data) else None


def _copy(pipe: BinaryIO, out: BinaryIO) -> bool:
    """Copy the next message _send wrote to pipe into out, 64 KiB at a time;
    False if the pipe ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    while size:
        piece = pipe.read(min(size, 1 << 16))
        if not piece:
            return False
        out.write(piece)
        size -= len(piece)
    return len(head) == 8


def _serve(down: int, up: int, bounds: OracleBounds, parent_fds: list[int]) -> NoReturn:
    """A forked helper: run each chunk read from the pipe down, and send up
    its lines, then its tally, exception (pickled) and that exception's
    traceback, until the parent closes down or goes away; then end the
    process."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its helpers
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in parent_fds:  # so that a helper sees EOF once the parent is gone
            os.close(fd)
        memo: dict = {}
        with open(down, "rb") as requests, open(up, "wb") as results:
            while (specs := _recv(requests)) is not None:
                lines: list[bytes] = []
                tables = [NaryTable(*spec) for spec in marshal.loads(specs)]
                tally, exc = _run_chunk(tables, bounds, memo, lines.append)
                pickled = trace = None
                if exc is not None:
                    import pickle

                    pickled = pickle.dumps(exc)
                    trace = "".join(traceback.format_exception(exc))
                _send(results, b"".join(lines))
                _send(results, marshal.dumps((dataclasses.astuple(tally), pickled, trace)))
        status = 0
    finally:
        os._exit(status)  # never back into the parent's frames

"""Forked helper processes for run_corpus.

harness.run_corpus checks a run of more than two chunks here, on a
platform with fork and from a process that runs no other thread.  Helper
j of h is a forked process, with its own memory and caches, that runs
chunks j, j+h, ... through harness._run_chunk, from the memory it shares
with the parent at the fork, and sends back one message per chunk: the
chunk's lines, its tally, and the exception that cut it short with its
traceback, if one did.  The parent reads chunk i from helper i mod h and
writes its lines in order, so the report is the bytes of a run in one
process.  Helpers ignore SIGINT; the parent stops them on every exit path.

Each message is one pickle on the helper's pipe, which delimits itself.
Unpickling can run arbitrary code, but a pipe here only ever carries the
replies of the parent's own forked child.

The helpers are plain os.fork children, not multiprocessing processes:
over 50 passes of the 3,492 binary size-4 tables, multiprocessing (its
imports and whole-message reads) left the parent's peak RSS 2.2 MB above
a serial run's, and raw forks reading whole messages 0.6 MB.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import BinaryIO, Iterator, NoReturn

from .core import NaryTable
from .harness import CorpusReport, _run_chunk
from .oracle import OracleBounds


def helper_results(
    chunks: list[list[NaryTable]], bounds: OracleBounds, count: int, out: BinaryIO
) -> Iterator[CorpusReport]:
    """Run the chunks in count forked helpers, write each chunk's lines to
    out in order, and yield its tally, or raise the exception that cut it
    short in its helper; the helpers are stopped when the generator ends or
    is closed.

    The parent reads each helper's messages in the order it sends them, so a
    helper blocks only on one the parent reads in turn: nothing deadlocks.
    """
    helpers = []  # (pid, pipe from it)
    try:
        # Blocked while forking, so a helper ignores SIGINT from its start.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for j in range(count):
                up_r, up_w = os.pipe()
                pid = os.fork()
                if pid == 0:  # inherits the read ends of its own pipe and the earlier ones
                    read_ends = [up_r] + [up.fileno() for _, up in helpers]
                    _serve(chunks[j::count], up_w, bounds, read_ends)
                os.close(up_w)
                helpers.append((pid, open(up_r, "rb")))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in range(len(chunks)):
            try:
                lines, tally, exc, trace = pickle.load(helpers[i % count][1])
            except (EOFError, pickle.UnpicklingError):  # cut off where the helper died
                raise RuntimeError("a corpus helper exited before sending its chunk") from None
            out.write(lines)
            if exc is not None:
                raise exc from RuntimeError(f"in a corpus helper:\n{trace}")
            yield tally
    finally:
        for pid, up in helpers:  # a helper holds nothing that needs a clean exit
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            up.close()


def _serve(
    chunks: list[list[NaryTable]], up: int, bounds: OracleBounds, read_ends: list[int]
) -> NoReturn:
    """A forked helper: run each of its chunks and send up its lines, its
    tally and, if an exception cut it short, that exception (the tally then
    None) with its traceback; stop after such a chunk, or when the parent is
    gone, and end the process."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its helpers
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in read_ends:  # so that a write fails once the parent is gone
            os.close(fd)
        with open(up, "wb") as results:
            for tables in chunks:
                lines: list[bytes] = []
                tally = error = trace = None
                try:
                    tally = _run_chunk(tables, bounds, lines.append)
                except BaseException as exc:
                    error, trace = exc, "".join(traceback.format_exception(exc))
                pickle.dump((b"".join(lines), tally, error, trace), results)
                results.flush()
                if error is not None:
                    break
        status = 0
    finally:
        os._exit(status)  # never back into the parent's frames

"""Process parallelism for replication.

The files of a multi-file corpus are split into contiguous runs, one per
process. This process counts the first run into a summary of cells
(CellLayout), passing that run's quarantine straight to the reader's sink.
Meanwhile each forked child counts one of the other runs, writes the rows it
quarantines to an unnamed temporary file as it goes, and pipes back the
pickled summary and its part of the reader, or the exception it raised.
Summaries add, so any process count produces exactly the serial results; the
corpus reader then takes over the parts' manifests and quarantine entries, in
file order, reading each child's entries back a batch at a time, so that no
process holds more than a batch of a run's quarantine in memory.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import ExitStack
from typing import BinaryIO, Iterable, Iterator, Sequence

from .aggregate import AggregateResult, CellLayout, CellTally
from .claims import Claim
from .ingest import CorpusReader
from .sor import QuarantineEntry, SorRecord

# A child pickles the rows it quarantines to its spool this many at a time:
# one pickle per row costs about three times what one pickle per batch does.
_SPOOL_BATCH = 256


def _fork_summarize(layout: CellLayout, part: CorpusReader, spool: BinaryIO) -> tuple[int, int]:
    """Fork a child that summarizes `part`, pickling the rows it quarantines
    into `spool` in batches, and then pickles `(summary, part)`, or the
    exception it raised, into a pipe; returns the child's pid and the pipe's
    read end. The child leaves through os._exit, so it runs no cleanup of the
    parent's: no atexit hook, no flush of an inherited buffer."""
    import pickle  # here and below, so that a read in one process loads neither pickle nor signal

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        batch: list[QuarantineEntry] = []

        def spool_batch() -> None:
            pickle.dump(batch, spool, pickle.HIGHEST_PROTOCOL)
            batch.clear()

        def quarantine(entry: QuarantineEntry) -> None:
            batch.append(entry)
            if len(batch) == _SPOOL_BATCH:
                spool_batch()

        part.on_quarantine = quarantine
        try:
            outcome: object = (layout.summarize(part), part)
            part.on_quarantine = None  # a closure does not pickle; the parent holds the spool
            spool_batch()
            spool.flush()
        except BaseException as exc:  # handed to the parent, which raises it
            outcome = exc
        with os.fdopen(write_end, "wb") as fh:
            pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_end: int) -> tuple[Counter, CorpusReader]:
    """Read a child's outcome to the end of its pipe and reap the child;
    raise the child's exception, if it raised one."""
    import pickle

    try:
        with os.fdopen(read_end, "rb") as fh:
            try:
                outcome = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):  # cut short: the exit status says why
                outcome = None
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise ChildProcessError(f"replication process {pid} {how} before handing back its counts")
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _read_back(spool: BinaryIO) -> Iterator[QuarantineEntry]:
    """The entries a child pickled into `spool`, in order, one batch at a time."""
    import pickle

    spool.seek(0)
    while True:
        try:
            yield from pickle.load(spool)
        except EOFError:
            return


def parallel_replicate(
    records: Iterable[SorRecord],
    claims: Sequence[Claim],
    workers: int,
    cell_tally: CellTally | None = None,
) -> list[AggregateResult]:
    """Replicate claims with up to `workers` processes, one contiguous run of
    corpus files each, this process included.

    A CorpusReader over several files is split across the processes; any
    other stream, workers <= 1, or a platform without os.fork, is read in
    this process. Either way the stream is read once, so a reader's manifest
    and quarantine are complete on return, and the results equal
    replicate_all's. Every child is reaped before this returns or raises.
    """
    layout = CellLayout(claims, cell_tally)
    one_process = workers <= 1 or not hasattr(os, "fork")
    if one_process or not isinstance(records, CorpusReader) or len(records.files) <= 1:
        return layout.evaluate(layout.summarize(records))
    from tempfile import TemporaryFile  # like pickle, loaded only to fork

    own, *others = records.split(min(workers, len(records.files)))
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    with ExitStack() as stack:
        spools = [stack.enter_context(TemporaryFile()) for _ in others]
        try:
            for part, spool in zip(others, spools):
                pid, read_end = _fork_summarize(layout, part, spool)
                children[pid] = read_end
            summary = layout.summarize(own)
            done = [own]
            for pid, spool in zip(list(children), spools):
                part_summary, part = _collect(pid, children.pop(pid))
                part.quarantine = _read_back(spool)
                summary.update(part_summary)
                done.append(part)
        finally:
            if children:  # an exception cut the run short: stop and reap the rest
                import signal

                for pid, read_end in children.items():
                    os.close(read_end)
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        records.join(done)
    return layout.evaluate(summary)

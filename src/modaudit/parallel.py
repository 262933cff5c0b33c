"""Process parallelism for replication.

The files of a multi-file corpus are split into contiguous runs, one per
process. This process counts the first run into a summary of cells
(CellLayout), passing that run's quarantine straight to the reader's sink.
Meanwhile each forked child counts one of the other runs. Its one channel
back is an unnamed temporary file: it pickles the rows it quarantines there
in batches as it goes, then its summary and manifest, or the exception it
raised. Summaries add, so any process count produces exactly the serial
results. This process reaps the children in file order and reads each one's
file back a batch at a time, passing the rows to the reader's sink before it
takes the outcome, so the sink gets the rows of a serial pass, in order, up
to any failure, and no process holds more than a batch of a run's quarantine
in memory.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import ExitStack
from typing import BinaryIO, Callable, Iterable, Sequence

from .aggregate import AggregateResult, CellLayout, CellTally, replicate_all
from .claims import Claim
from .ingest import CorpusManifest, CorpusReader
from .sor import QuarantineEntry, SorRecord

# A child pickles the rows it quarantines to its spool this many at a time:
# one pickle per row costs about three times what one pickle per batch does.
_SPOOL_BATCH = 256


def _fork_summarize(layout: CellLayout, part: CorpusReader, spool: BinaryIO) -> int:
    """Fork a child that summarizes `part`, pickling the rows it quarantines
    into `spool` in batches (lists of entries) and then `(summary, manifest)`,
    or the exception it raised; returns the child's pid. The child leaves
    through os._exit, so it runs no cleanup of the parent's: no atexit hook,
    no flush of an inherited buffer."""
    import pickle  # here and below, so that a read in one process loads neither pickle nor signal

    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
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
            outcome: object = (layout.summarize(part), part.manifest)
        except BaseException as exc:  # handed to the parent, which raises it
            outcome = exc
        spool_batch()
        pickle.dump(outcome, spool, pickle.HIGHEST_PROTOCOL)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def _collect(
    pid: int, spool: BinaryIO, sink: Callable[[QuarantineEntry], None]
) -> tuple[Counter, CorpusManifest]:
    """Reap a child, then pass the entries in its spool to `sink` and return
    its outcome; raise the child's exception, if it raised one."""
    import pickle

    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise ChildProcessError(f"replication process {pid} {how} before handing back its counts")
    spool.seek(0)
    while (item := pickle.load(spool)).__class__ is list:
        for entry in item:
            sink(entry)
    if isinstance(item, BaseException):
        raise item
    return item


def parallel_replicate(
    records: Iterable[SorRecord],
    claims: Sequence[Claim],
    workers: int,
    cell_tally: CellTally | None = None,
) -> list[AggregateResult]:
    """Replicate claims with up to `workers` processes, one contiguous run of
    corpus files each, this process included.

    A CorpusReader over several files is split across the processes; any
    other stream, workers <= 1, or a platform without os.fork, is read by
    replicate_all in this process. Either way the stream is read once, so a
    reader's manifest and quarantine are complete on return, and the results
    equal replicate_all's. Every child is reaped before this returns or raises.
    """
    one_process = workers <= 1 or not hasattr(os, "fork")
    if one_process or not isinstance(records, CorpusReader) or len(records.files) <= 1:
        return replicate_all(claims, records, cell_tally)
    from tempfile import TemporaryFile  # like pickle, loaded only to fork

    layout = CellLayout(claims, cell_tally)
    own, *others = records.split(min(workers, len(records.files)))
    children: list[int] = []  # pids of the children not yet reaped, in file order
    with ExitStack() as stack:
        spools = [stack.enter_context(TemporaryFile()) for _ in others]
        try:
            for part, spool in zip(others, spools):
                children.append(_fork_summarize(layout, part, spool))
            summary = layout.summarize(own)
            manifests = [own.manifest]
            for spool in spools:
                part_summary, manifest = _collect(children.pop(0), spool, records.on_quarantine)
                summary.update(part_summary)
                manifests.append(manifest)
        finally:
            if children:  # an exception cut the run short: stop and reap the rest
                import signal

                for pid in children:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        records.join(manifests)
    return layout.evaluate(summary)

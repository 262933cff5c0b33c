"""Opt-in process parallelism for replication.

Each worker counts one corpus file into a summary of cells (CellLayout),
reading it through a CorpusReader limited to that file, and hands back the
summary and that reader. Summaries add, so any worker count produces exactly
the serial results; the corpus reader then takes over the parts' manifests and
quarantine entries, in file order.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .aggregate import AggregateResult, CellLayout, CellTally
from .claims import Claim
from .ingest import CorpusReader
from .sor import SorRecord


def _summarize_part(payload: tuple[CellLayout, CorpusReader]) -> tuple[Counter, CorpusReader]:
    layout, part = payload
    return layout.summarize(part), part


def parallel_replicate(
    records: Iterable[SorRecord],
    claims: Sequence[Claim],
    workers: int,
    cell_tally: CellTally | None = None,
) -> list[AggregateResult]:
    """Replicate claims with up to `workers` processes, one corpus file per task.

    A CorpusReader over several files is split across the workers; any other
    stream, or workers <= 1, is read in this process. Either way the stream
    is read once, so a reader's manifest and quarantine are complete on
    return, and the results equal replicate_all's.
    """
    layout = CellLayout(claims, cell_tally)
    if workers <= 1 or not isinstance(records, CorpusReader) or len(records.files) <= 1:
        return layout.evaluate(layout.summarize(records))
    # imported here: every other command and path runs without it
    from multiprocessing import get_context

    parts = records.split()
    with get_context("spawn").Pool(processes=min(workers, len(parts))) as pool:
        done = pool.map(_summarize_part, [(layout, part) for part in parts])
    summary: Counter = Counter()
    for part_summary, _ in done:
        summary.update(part_summary)
    records.join([part for _, part in done])
    return layout.evaluate(summary)

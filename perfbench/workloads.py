"""Seeded inputs of the end-to-end benchmark.

Everything here is client-side input generation: the store under test
only ever receives the data sets and query texts built below.

* The **corpus** is fixed per benchmark version (``CORPUS_SEED``): a
  ``bibgen`` universe of 20k entries over 4 sources plus 6k
  ``nestedgen`` documents as a fifth source, keyed on ``{type, title}``
  (about 26k live rows once merged). It is generated and turned into
  on-disk stores once per checkout, untimed.
* The **op stream** of every workload is drawn from ``--seed``: ingest
  batch order and membership, mixed_rw's forked rows and reads of its
  fixed hot set, read_adhoc's query constants. The same seed gives
  byte-identical ops.

Iteration over a :class:`DataSet` is canonical (structural order), and
data are encoded from lists in that order, so no input depends on the
process's string-hash seed.
"""

from __future__ import annotations

import random

from repro.binary_codec import dumps_dataset
from repro.core.data import DataSet
from repro.workloads import (
    BibWorkloadSpec,
    NestedWorkloadSpec,
    fork_source,
    generate_nested_workload,
    generate_workload,
)

KEY = ("type", "title")
CORPUS_SEED = 2000
INGEST_BATCH = 30
#: The ingest base store holds source 0 in its snapshot plus a log in
#: which source 0 is removed and re-added this many times (content
#: unchanged, ~3.4 MiB of frames). A run writes ~2 MiB, so without it
#: no run would reach the 4 MiB auto-compaction; with it every run's
#: first background compaction starts ~170 batches in.
BASE_LOG_CHURNS = 2
#: Batches of the nested source kept out of the full store's snapshot
#: and committed through the log instead, so every restart of the full
#: store replays log frames on top of the snapshot.
FULL_WAL_TAIL_BATCHES = 40

LAST_NAMES = ("Abiteboul", "Buneman", "Chen", "Davidson", "Eisner",
              "Fernandez", "Garcia", "Hull", "Liu", "Mendelzon")
TYPES = ("Article", "InProc")


class Scale:
    """Corpus size; ``FULL`` is the benchmark, ``TINY`` the self-check."""

    def __init__(self, name: str, entries: int, nested: int,
                 compact_bytes: int | None):
        self.name = name
        self.entries = entries
        self.nested = nested
        #: ``None`` keeps the ``Database.open`` default (4 MiB).
        self.compact_bytes = compact_bytes


FULL = Scale("full", 20000, 6000, None)
TINY = Scale("tiny", 600, 180, 32 << 10)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


def corpus(scale: Scale) -> tuple[list[DataSet], DataSet]:
    """The four bibliographic sources and the nested source."""
    bib = generate_workload(BibWorkloadSpec(
        entries=scale.entries, sources=4, seed=CORPUS_SEED))
    nested = generate_nested_workload(NestedWorkloadSpec(
        entries=scale.nested, seed=CORPUS_SEED))
    return list(bib.sources), nested.dataset


def chunks(rows: list, size: int) -> list[list]:
    return [rows[at:at + size] for at in range(0, len(rows), size)]


def round_robin(streams: list[list]) -> list:
    """Interleave batch streams: one batch from each in turn."""
    out = []
    for turn in range(max((len(s) for s in streams), default=0)):
        out.extend(s[turn] for s in streams if turn < len(s))
    return out


def ingest_ops(sizes: list[int], seed: int, limit: int) -> list[tuple]:
    """Up to ``limit`` batches of ~30 rows, as ``(stream, positions)``.

    Streams index the prepared row files: sources 1-3, the nested
    source and a key-protected fork of source 0 (already in the base
    store, so its batches turn conflicts into or-values from the first
    second on). Each stream is shuffled and cut into batches, and the
    batches interleave round robin, so the mix of row shapes stays the
    same however far a run gets.
    """
    rng = random.Random(seed)
    streams = []
    for stream, size in enumerate(sizes):
        positions = list(range(size))
        rng.shuffle(positions)
        streams.append([(stream, batch) for batch
                        in chunks(positions, INGEST_BATCH)])
    return round_robin(streams)[:limit]


#: Row files the ingest streams draw from, in stream order.
INGEST_STREAMS = ("source1.bin", "source2.bin", "source3.bin",
                  "nested.bin", "fork0.bin")


def _window(rng: random.Random, low: float, high: float,
            width: float) -> tuple[float, float]:
    """A float range of fixed width: the start (two decimals) keeps
    ad-hoc texts distinct, the width keeps every seed's selections the
    same size on average."""
    start = round(rng.uniform(low, high), 2)
    return start, round(start + width, 2)


def query_class(kind: int, rng: random.Random) -> str:
    """One query text of read class ``kind`` (0-5) with fresh constants."""
    if kind == 0:
        lo, hi = _window(rng, 1975, 1998, 1.5)
        return (f'select * where type = "{rng.choice(TYPES)}" '
                f'and year >= {lo} and year <= {hi}')
    if kind == 1:
        return (f'select * where title contains "{rng.randrange(10000):04d}"'
                f' and not exists pages')
    if kind == 2:
        lo, hi = _window(rng, 1975, 1997, 2.5)
        return (f'select * where author contains "{rng.choice(LAST_NAMES)}"'
                f' and year >= {lo} and year <= {hi}')
    if kind == 3:
        lo, hi = _window(rng, 1975, 1998, 1.25)
        return (f'select count(*), min(year), max(year) where '
                f'year >= {lo} and year <= {hi} group by type')
    if kind == 4:
        lo, hi = _window(rng, 1970, 1996, 2.5)
        return (f'select * where author.affil.since >= {lo} and '
                f'author.affil.since <= {hi} and '
                f'author.name.last = "{rng.choice(LAST_NAMES)}"')
    lo, hi = _window(rng, 1975, 1998, 1.25)
    return (f'select title, year where type = "{rng.choice(TYPES)}" and '
            f'year >= {lo} and year <= {hi} order by title desc '
            f'limit {rng.randint(5, 20)}')


READ_CLASSES = 6


def join_pair(rng: random.Random) -> tuple[str, str]:
    """The two selections of one ``join_query`` on ``title``."""
    lo, hi = _window(rng, 1975, 1997, 2.0)
    left = (f'select * where author contains "{rng.choice(LAST_NAMES)}" '
            f'and year >= {lo} and year <= {hi}')
    lo2, hi2 = _window(rng, lo - 0.5, lo + 1, 1.0)
    right = (f'select * where year >= {lo2} and year <= {hi2} '
             f'and exists pages')
    return left, right


def read_request(rng: random.Random, seen: set) -> tuple:
    """``(six query texts, (join left, join right))``, all texts unseen."""
    texts = []
    for kind in range(READ_CLASSES):
        text = query_class(kind, rng)
        while text in seen:
            text = query_class(kind, rng)
        seen.add(text)
        texts.append(text)
    join = join_pair(rng)
    while join in seen:
        join = join_pair(rng)
    seen.add(join)
    return tuple(texts), join


def read_adhoc_ops(seed: int, limit: int) -> dict:
    rng = random.Random(seed)
    seen: set = set()
    warmup = read_request(random.Random(seed ^ 0x5EED), set())
    return {"warmup": warmup,
            "requests": [read_request(rng, seen) for _ in range(limit)]}


HOT_PER_CLASS = 8
ZIPF_S = 1.1


def mixed_rw_ops(live_rows: list, seed: int, limit: int) -> dict:
    """``limit`` cycles of one write and six reads, in seeded order.

    A write is 1-4 key-protected forks of random live rows. A cycle
    reads each of the six classes once, each read picking one of the
    class's eight hot texts Zipf-skewed, so the 48-text hot set fits
    both the parse cache (128) and the result cache (256) and every
    cycle reads the same class mix. (With fewer reads than classes per
    cycle, cycles differ in which classes they read, whose costs differ
    up to 2x, and the median cycle falls between those modes.)
    The hot set and its Zipf ranks are fixed, like the corpus (an
    application's hot queries, whose costs differ widely, so a
    hot set drawn per seed would make each seed a different workload);
    the seed draws the written rows, the reads and their order.
    """
    fixed = random.Random(CORPUS_SEED)
    hot = [[query_class(kind, fixed) for _ in range(HOT_PER_CLASS)]
           for kind in range(READ_CLASSES)]
    for texts in hot:
        fixed.shuffle(texts)  # the Zipf rank of each text
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_PER_CLASS)]
    cycles = []
    for cycle in range(limit):
        picked = rng.sample(live_rows, rng.randint(1, 4))
        forked = fork_source(DataSet(picked), seed=seed * 7919 + cycle,
                             marker_suffix=f"-m{cycle}",
                             protect=frozenset(KEY))
        steps = [("w", dumps_dataset(list(forked)))]
        for texts in hot:
            steps.append(("r", rng.choices(texts, weights)[0]))
        rng.shuffle(steps)
        cycles.append(steps)
    warmup = [texts[0] for texts in hot]
    return {"warmup": warmup, "cycles": cycles}

"""FASTA source: plain-text parser → Ray Dataset of records.

Replaces the reference's bio/needletail readers (fw.rs:62-69,
entropy.rs:104-117). No pre-pass record count is needed (fw.rs:44-53 —
Ray Data's progress accounting subsumes it).
"""

from __future__ import annotations

import pyarrow as pa

RECORD_SCHEMA = pa.schema([
    ("id", pa.string()),
    ("desc", pa.string()),      # "" when absent
    ("seq", pa.string()),
    # file order: Ray Data does not keep block order, so callers that
    # need input order sort on (range_start, range_index)
    ("range_start", pa.int64()),    # byte range that owns the record
    ("range_index", pa.int64()),    # record index within that range
])


def iter_fasta_records(lines, truncate_id: bool = False):
    """Incremental (id, desc, seq) parse over an iterable of lines —
    memory bounded by ONE record (the gzip streaming path relies on
    this; the reference's needletail streams records the same way,
    entropy.rs:104-117)."""
    rid, desc, seq_parts = None, "", []
    for line in lines:
        line = line.rstrip("\r\n")
        if line.startswith(">"):
            if rid is not None:
                yield (rid, desc, "".join(seq_parts))
            header = line[1:]
            for cut, ch in enumerate(header):
                if ch in " \t":
                    rid, desc = header[:cut], header[cut + 1:]
                    break
            else:
                rid, desc = header, ""
            if truncate_id:
                desc = ""
            seq_parts = []
        elif line and rid is not None:
            seq_parts.append(line.strip())
    if rid is not None:
        yield (rid, desc, "".join(seq_parts))


def parse_fasta(text: str, truncate_id: bool = False) -> list[tuple[str, str, str]]:
    """(id, desc, seq) triples from FASTA text.

    ``truncate_id=True`` cuts the id at the first space/tab INSIDE the
    full header (the entropy-mode needletail behaviour,
    entropy.rs:109-113); default mode splits id/desc at first whitespace
    like bio::io::fasta.
    """
    return list(iter_fasta_records(text.splitlines(), truncate_id))


_CHUNK = 1 << 20


def _records_table(recs, range_start: int = 0,
                   first_index: int = 0) -> pa.Table:
    return pa.table({
        "id": [r[0] for r in recs],
        "desc": [r[1] for r in recs],
        "seq": [r[2] for r in recs],
        "range_start": [range_start] * len(recs),
        "range_index": range(first_index, first_index + len(recs)),
    }, schema=RECORD_SCHEMA)


def _range_records(path: str, start: int, end: int,
                   truncate_id: bool) -> list[tuple[str, str, str]]:
    """Parse the FASTA records whose '>' header starts in [start, end).

    Byte-range ownership rule: a task owns a record iff the record's
    header byte lies in its range; the task reads past ``end`` only to
    the next record start (bounded by range size + one record, never the
    whole file). The reference streams records one at a time
    (src/fw.rs:62-69); this is the distributed equivalent.
    """
    with open(path, "rb") as f:
        if start == 0:
            pos = 0
        else:
            # find the first record start at/after `start`: the previous
            # byte is included so a '>' exactly at `start` is found via
            # its preceding newline
            f.seek(start - 1)
            scan_off = start - 1
            data = b""
            pos = None
            while pos is None:
                chunk = f.read(_CHUNK)
                if not chunk:
                    return []
                data += chunk
                i = data.find(b"\n>")
                if i != -1:
                    pos = scan_off + i + 1
                else:
                    scan_off += len(data) - 1
                    data = data[-1:]          # boundary byte only
            if pos >= end:
                return []    # range is the middle of another task's record
        # accumulate from the first owned record to the first record
        # start at/after `end` (or EOF)
        f.seek(pos)
        buf = bytearray()
        cut = None
        while cut is None:
            chunk = f.read(_CHUNK)
            if not chunk:
                break
            prev = len(buf)
            buf += chunk
            lo = max(end - 1 - pos, prev - 1, 0)
            if lo < len(buf):
                i = buf.find(b"\n>", lo)
                if i != -1:
                    cut = i + 1
        text = bytes(buf[:cut] if cut else buf).decode()
        return parse_fasta(text, truncate_id=truncate_id)


def read_fasta(path: str, truncate_id: bool = False,
               target_bytes: int = 64 << 20):
    """Ray Dataset of FASTA records (id, desc, seq, range_start,
    range_index), read as parallel BYTE-RANGE tasks — the file is never
    loaded on the driver, so a multi-GB genome streams through the object
    store one ~target_bytes block at a time (round-1 "streaming FASTA
    source" fix). Blocks may arrive in any order; sorting on
    (range_start, range_index) restores file order. Requires the path to
    be readable from every node (shared FS / object store mount — the
    standard cluster layout).
    """
    import os

    import ray.data as rd

    if path.endswith(".gz"):
        # gzip is not byte-range splittable: one task streams the
        # decompressed records (memory bounded by one record + batch)
        # — needletail's transparent-gzip behaviour (entropy mode)
        def parse_gz(_batch):
            import gzip
            buf: list[tuple[str, str, str]] = []
            done = 0
            with gzip.open(path, "rt") as f:
                for rec in iter_fasta_records(f, truncate_id):
                    buf.append(rec)
                    if len(buf) >= 512:
                        yield _records_table(buf, 0, done)
                        done += len(buf)
                        buf = []
            yield _records_table(buf, 0, done)

        return rd.range(1, override_num_blocks=1).map_batches(
            parse_gz, batch_format="pandas")

    size = os.path.getsize(path)
    ranges = [{"start": s, "end": min(s + target_bytes, size)}
              for s in range(0, max(size, 1), target_bytes)]

    def parse_ranges(df) -> pa.Table:
        return pa.concat_tables([
            _records_table(_range_records(path, int(r.start), int(r.end),
                                          truncate_id), int(r.start))
            for r in df.itertuples()])

    # one range per block so each parse task owns exactly one byte range
    return rd.from_items(ranges, override_num_blocks=len(ranges)) \
        .map_batches(parse_ranges, batch_format="pandas",
                     batch_size=1)

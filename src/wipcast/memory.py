"""Process memory: story embeddings, a flat vector index, and causal top-k retrieval.

The index is an exhaustive-scan store. Corpora are a few thousand stories at
most (one per day per granularity), so exact scoring is cheap and keeps
retrieval trivially auditable. Retrieval never returns a story dated on or
after the query day: downstream forecasting depends on that cutoff. Rows are
kept in date order, so the cutoff is one binary search and one slice.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import threading
import zipfile
import zlib
from collections import OrderedDict
from datetime import date as Date
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .llm import BACKOFF, RETRIES, LlmError, RetrievedExample, post_json
from .narrative import GRANULARITIES, Story, _check_number, contextual_story, parse_jsonl, story_numbers

logger = logging.getLogger(__name__)

TRIGRAM_BUCKETS = 64
NUMERIC_SLOTS = 8
EMBED_CHUNK = 32  # texts per array pass: larger chunks raise peak memory, not speed
EMBED_MODEL = "bge-base-en-v1.5"  # the remote embedder's default model
TOP_K = 5  # stories retrieved per query
RETRIEVE_CHUNK = 16  # queries per scoring pass: larger chunks raise peak memory, not speed


def _is_vector(value) -> bool:
    """Whether ``value``, decoded JSON, is a nonempty flat list of numbers (no bools)."""
    return type(value) is list and bool(value) and all(type(x) in (int, float) for x in value)


class EmbeddingError(Exception):
    """Embedding provider failed (transport, response shape, or bad input)."""


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity between two nonzero vectors of equal dimension."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def _squash(value: float) -> float:
    # Maps any real to (0, 1); 0.0 stays distinguishable from "no value" slots.
    return (1.0 + value / (1.0 + abs(value))) / 2.0


class DeterministicEmbedder:
    """Offline embedding provider with stable output across runs and platforms.

    Concatenates hashed character-trigram term frequencies (crc32 into a fixed
    number of buckets; crc32 is stable, unlike Python's salted hash()) with the
    first few numbers appearing in the text squashed into (0, 1). The trigram
    block is unit-normalized before concatenation so long stories do not drown
    the numeric features, then the whole vector is normalized again.

    :meth:`embed_many` works on chunks of EMBED_CHUNK texts in array passes, so
    a batch costs far less per text than one :meth:`embed` call each; ``embed``
    is its one-row case, and every row is the same bit for bit either way.
    """

    def __init__(self, buckets: int = TRIGRAM_BUCKETS, numeric_slots: int = NUMERIC_SLOTS):
        if buckets < 1 or numeric_slots < 0:
            raise ValueError("buckets must be >= 1 and numeric_slots >= 0")
        self.buckets = buckets
        self.numeric_slots = numeric_slots
        # sorted trigram codes (three code points packed into an int64) and
        # their buckets; story templates repeat a small trigram vocabulary, so
        # each trigram is hashed once. Replaced whole, never edited, so
        # concurrent callers read a consistent pair.
        self._table = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.buckets + self.numeric_slots

    def _trigram_buckets(self, padded: str) -> np.ndarray:
        """The bucket of each trigram of ``padded``, in order."""
        # each code point goes into the low half of a zeroed little-endian
        # int64: an integer astype, and the default argsort below, would each
        # page in numpy code that nothing else here runs (64 and 192 KB resident)
        points = np.zeros((len(padded), 2), dtype="<u4")
        # "utf-32" has a fast path in CPython; "utf-32-le" would import a codec
        # module mid-run. Its BOM is skipped and its native order read as such
        points[:, 0] = np.frombuffer(padded.encode("utf-32"), dtype=np.uint32, offset=4)
        points = points.view("<i8")[:, 0]
        codes = points[:-2] * (1 << 42) + points[1:-1] * (1 << 21) + points[2:]  # 21 bits hold a code point
        known, buckets = self._table
        at = np.searchsorted(known, codes)
        missing = known.take(at, mode="clip") != codes if len(known) else np.ones(len(codes), bool)
        if not missing.any():
            return buckets[at]
        new = dict(zip(codes[missing].tolist(), np.flatnonzero(missing).tolist()))  # code -> a position
        known = np.concatenate((known, list(new)))
        order = np.argsort(known, kind="stable")
        hashed = [zlib.crc32(padded[i:i + 3].encode("utf-8")) % self.buckets for i in new.values()]
        self._table = known, buckets = known[order], np.concatenate((buckets, hashed))[order]
        return buckets[np.searchsorted(known, codes)]

    def _embed_chunk(self, texts: Sequence[str], out: np.ndarray) -> None:
        """Embed ``texts`` into the rows of ``out``, zeros before, in one pass over all their trigrams."""
        if not all(texts):
            raise EmbeddingError("cannot embed empty text")
        n, buckets = len(texts), self.buckets
        # boundary padding guarantees each text at least one trigram
        trigrams = self._trigram_buckets("##" + "####".join(texts) + "##")
        # each trigram counts in the row of its first character; the two that
        # span a text and the next are both "###", taken off again below
        rows = np.repeat(np.arange(0, n * buckets, buckets), [len(text) + 4 for text in texts])
        counts = np.bincount(rows[:-2] + trigrams, minlength=n * buckets).reshape(n, buckets)
        if n > 1:
            counts[:-1, trigrams[len(texts[0]) + 2]] -= 2
        # counts are integers, so their squared norms are exact in any order
        out[:, :buckets] = counts / np.sqrt((counts * counts).sum(axis=1))[:, None]
        for row, text in zip(out, texts):
            values = story_numbers(text)[:self.numeric_slots]
            row[buckets:buckets + len(values)] = [_squash(value) for value in values]
        out /= np.sqrt([row.dot(row) for row in out])[:, None]  # np.linalg.norm's sum, row by row

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        texts = list(texts)
        out = np.zeros((len(texts), self.dim))
        for start in range(0, len(texts), EMBED_CHUNK):
            self._embed_chunk(texts[start:start + EMBED_CHUNK], out[start:start + EMBED_CHUNK])
        return out


class RemoteEmbedder:
    """Embedding client for an HTTP endpoint taking {model, input} and returning vectors.

    Requests are retried as :func:`~wipcast.llm.post_json` does, as often as
    the chat client's default; a malformed payload fails on the first attempt.
    """

    def __init__(self, endpoint: str, model: str = EMBED_MODEL,
                 timeout: float = 30.0, session=None):
        import requests

        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self._session = session if session is not None else requests.Session()
        self._dim: int | None = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise EmbeddingError("remote dimension unknown before the first embed call")
        return self._dim

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        batch = list(texts)
        if not batch:
            return np.empty((0, self._dim or 0))
        if any(not t for t in batch):
            raise EmbeddingError("cannot embed empty text")
        try:
            resp = post_json(self._session, self.endpoint, {"model": self.model, "input": batch},
                             timeout=self.timeout, retries=RETRIES, backoff=BACKOFF)
        except LlmError as exc:
            raise EmbeddingError(f"remote embedding failed: {exc}") from exc
        try:
            rows = [item["embedding"] for item in resp.json()["data"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"remote embedding returned a malformed payload: {exc}") from exc
        if len(rows) != len(batch):
            raise EmbeddingError(f"expected {len(batch)} embeddings, got {len(rows)}")
        if not all(_is_vector(row) and len(row) == len(rows[0]) for row in rows):
            raise EmbeddingError("remote embedding returned a malformed payload: each embedding "
                                 "must be a nonempty flat list of numbers, all of one length")
        matrix = np.array(rows, dtype=float)
        if not np.isfinite(matrix).all():
            raise EmbeddingError("remote embedding contains non-finite values")
        if self._dim is None:
            self._dim = matrix.shape[1]
        elif matrix.shape[1] != self._dim:
            raise EmbeddingError(f"remote dim changed: {matrix.shape[1]} != {self._dim}")
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]


class StoryIndex:
    """Flat cosine index over contextual stories with a strict as-of cutoff.

    Append-only. Its state is one tuple of seven columns: embedding, norm,
    date ordinal, doc_id, target, granularity (as its position in
    GRANULARITIES) and text. The rows are sorted by (date, doc_id), so those
    dated before a day, the only ones eligible for it, are a prefix.
    :meth:`_append` is the one way rows get in and the one place they
    are checked; each doc_id is held at most once. It publishes the next
    tuple whole and never writes into one it published, so indexes may share
    a state (:func:`load_snapshot` does). Readers read the tuple once, so a
    reader sees a batch whole or not at all. :meth:`retrieve_many` ranks many
    queries, each with its own as-of day, in chunks scored in one pass, and
    reads each hit straight off the columns into one
    :class:`~wipcast.llm.RetrievedExample`; :meth:`retrieve` is its one-row
    case, and the walk-forward makes each agent's retrievals for all steps in
    one ``retrieve_many`` call. One writer or many readers at a time. Ties on
    similarity prefer the more recent story date, then the smaller doc_id.
    """

    def __init__(self, provider=None):
        self.provider = provider
        self._lock = threading.Lock()
        self._state = (np.empty((0, 0)), np.empty(0), np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.uint8), ())

    @property
    def dim(self) -> int | None:
        return self._state[0].shape[1] or None  # an empty index has a (0, 0) matrix

    def __len__(self) -> int:
        return len(self._state[3])

    def granularities(self) -> set[str]:
        """The granularities of the stories held."""
        return {GRANULARITIES[code] for code in set(self._state[5].tolist())}

    def add_many(self, stories: Sequence[Story], embeddings,
                 doc_ids: Sequence[int] | None = None) -> None:
        """Append contextual stories with one embedding row each, in one batch,
        checked as in :meth:`_append`. Ids default to the next free ones."""
        if any(story.kind != "contextual" for story in stories):
            raise ValueError("memory stores contextual stories only")
        self._append(embeddings, doc_ids, [story.date.toordinal() for story in stories],
                     [story.target for story in stories], [story.text for story in stories],
                     _granularity_codes(story.granularity for story in stories))

    def _append(self, embeddings, doc_ids, dates, targets, texts: Sequence[str], codes) -> None:
        """Append a batch of rows given as columns, granularities as their positions
        in GRANULARITIES. Each row needs a finite, nonzero embedding of the
        index's dim, a finite target, a known granularity and a 64-bit doc_id
        neither repeated in the batch nor held; a failing batch raises
        ValueError before anything is written."""
        n = len(texts)
        if not n:
            return
        matrix = np.asarray(embeddings, dtype=float)
        first = int(self._state[3].max()) + 1 if len(self) else 0  # the next free id
        try:
            ids = np.asarray(range(first, first + n) if doc_ids is None else doc_ids, dtype=np.int64)
        except OverflowError:
            raise ValueError("a doc_id is out of the 64-bit range") from None
        dates = np.asarray(dates, dtype=np.int64)
        try:
            targets = np.asarray(targets, dtype=float)
        except TypeError as exc:
            raise ValueError(f"targets must be numbers: {exc}") from None
        codes = np.asarray(codes)
        if matrix.ndim != 2 or any(len(col) != n for col in (matrix, ids, dates, targets, codes)):
            raise ValueError(f"need one embedding row and doc_id per story, got shape "
                             f"{matrix.shape} and {len(ids)} doc_ids for {n} stories")
        if codes.dtype != np.uint8 or codes.max() >= len(GRANULARITIES):
            raise ValueError(f"granularity codes must be uint8 below {len(GRANULARITIES)}")
        if not np.isfinite(matrix).all():
            raise ValueError("embedding entries must be finite")
        if not np.isfinite(targets).all():
            i = np.flatnonzero(~np.isfinite(targets))[0]
            raise ValueError(f"target {targets[i]} of the story dated {Date.fromordinal(dates[i])} is not finite")
        norms = np.linalg.norm(matrix, axis=1)
        if not norms.all():
            raise ValueError("embedding must have nonzero norm")
        with self._lock:
            state = self._state
            held = state[3]
            if len(held) and matrix.shape[1] != state[0].shape[1]:
                raise ValueError(f"embedding dim {matrix.shape[1]} does not match index dim {state[0].shape[1]}")
            ascending = not (ids[1:] <= ids[:-1]).any()
            if not ascending or (held >= ids[0]).any():  # else ascending and new
                both = np.sort(np.concatenate((held, ids)))
                repeated = both[1:][both[1:] == both[:-1]]
                if len(repeated):
                    raise ValueError(f"doc_id {repeated[0]} is repeated: an index holds each doc_id once")
            batch = (matrix, norms, dates, ids, targets, codes)
            columns = [np.concatenate(pair) for pair in zip(state, batch)] if len(held) else [
                np.array(column) for column in batch]
            texts = (*state[6], *texts)
            # build_indexes and both snapshot readers hand rows over in
            # (date, doc_id) order, after any rows held; only others are reordered
            in_order = ascending and (dates[1:] >= dates[:-1]).all() and (
                not len(held) or (state[2][-1], held[-1]) < (dates[0], ids[0]))
            if not in_order:
                order = np.lexsort((columns[3], columns[2]))
                columns = [column[order] for column in columns]
                texts = tuple(texts[row] for row in order.tolist())
            self._state = (*columns, texts)

    def add_story(self, story: Story) -> int:
        """Embed a contextual story with the index's provider, insert it and return its doc_id."""
        self.add_many([story], [self.provider.embed(story.text)])
        return int(self._state[3].max())  # the next free id was the largest

    def documents(self) -> dict[int, Story]:
        """Every story held by its doc_id, doc_id ascending."""
        _, ids, dates, targets, texts, codes = self._columns()
        return {doc_id: Story(text, "contextual", GRANULARITIES[code], Date.fromordinal(day), target)
                for doc_id, day, target, text, code
                in zip(ids.tolist(), dates.tolist(), targets.tolist(), texts, codes.tolist())}

    def _columns(self) -> tuple:
        """The columns in doc_id order, as :meth:`_append` takes them."""
        matrix, _, dates, ids, targets, codes, texts = self._state
        rows = np.argsort(ids)
        return (matrix[rows], ids[rows], dates[rows], targets[rows],
                [texts[row] for row in rows.tolist()], codes[rows])

    def retrieve(self, query: Story | str | np.ndarray, as_of: Date,
                 k: int = TOP_K) -> list[RetrievedExample]:
        """Up to k stories dated strictly before as_of, most similar to ``query``
        first: :meth:`retrieve_many`'s one-row case. A story or text is
        embedded by the index's provider."""
        if not isinstance(query, np.ndarray):
            if self.provider is None:
                raise ValueError("index has no embedding provider; pass a query vector")
            query = self.provider.embed(query.text if isinstance(query, Story) else query)
        return self.retrieve_many(np.asarray(query, dtype=float)[None], [as_of], k)[0]

    def retrieve_many(self, vectors: np.ndarray, as_of_days: Sequence[Date],
                      k: int = TOP_K) -> list[list[RetrievedExample]]:
        """For each row of ``vectors``, up to k stories dated strictly before the
        day at its position in ``as_of_days``, most similar first.

        Works on chunks of RETRIEVE_CHUNK consecutive queries, each scored in
        one pass over the longest of their eligible prefixes; every row's hits
        and similarities are those it would get alone, bit for bit.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        queries = np.asarray(vectors, dtype=float)
        if queries.ndim != 2 or len(queries) != len(as_of_days):
            raise ValueError(f"need one query row per as-of day, got shape {queries.shape} "
                             f"for {len(as_of_days)} days")
        # norm row by row: with axis=1 it sums in another order, and a row's
        # similarities would depend on how it was asked
        qnorms = [float(np.linalg.norm(row)) for row in queries]
        if not all(qnorms):
            raise ValueError("cosine undefined for zero-norm query")
        state = self._state  # read once: a concurrent add publishes a new tuple
        matrix, dates = state[0], state[2]
        if not len(dates):
            return [[] for _ in qnorms]
        if queries.shape[1] != matrix.shape[1]:
            raise ValueError(f"query dim {queries.shape[1]} does not match index dim {matrix.shape[1]}")
        # each query's eligible rows, dated before as_of, are a prefix
        his = dates.searchsorted([day.toordinal() for day in as_of_days]).tolist()
        out = []
        for start in range(0, len(his), RETRIEVE_CHUNK):
            chunk = slice(start, start + RETRIEVE_CHUNK)
            out += self._rank(state, queries[chunk], qnorms[chunk], his[chunk], k)
        return out

    def _rank(self, state: tuple, queries: np.ndarray, qnorms: list[float],
              his: list[int], k: int) -> list[list[RetrievedExample]]:
        """Each query's top k of the first ``his[r]`` rows of ``state``, as
        :meth:`retrieve_many` gives them; all are scored against the longest prefix."""
        matrix, norms, dates, ids, targets, _, texts = state
        b = max(his)
        if not b:
            return [[] for _ in his]
        # einsum, not BLAS matmul: matmul accumulates differently per row
        # position, so equal embeddings would not score bit-identically and the
        # tie rule below would never engage.
        sims = np.einsum("ij,kj->ki", matrix[:b], queries) / (norms[:b] * np.array(qnorms)[:, None])
        # a row past a query's own prefix ranks as -inf: one chunk mixes as-of days
        if his.count(b) < len(his):
            sims = np.where(np.arange(b) < np.array(his)[:, None], sims, -np.inf)
        # the k + 1 best by similarity alone, ordered by the tie rule: similarity
        # desc, then date desc, then id asc (lexsort's last key is primary)
        rest, at = max(b - k - 1, 0), np.arange(len(his))[:, None]  # rest: the columns left out
        rows = np.argpartition(sims, rest, axis=1)[:, rest:]
        top_sims = sims[at, rows]
        order = np.lexsort((ids[rows], -dates[rows], -top_sims), axis=1)
        rows, top_sims = rows[at, order], top_sims[at, order]
        if rest:
            # a k-th similarity equal to the (k+1)-th: the tie rule may prefer
            # rows the partition left out, so rank that query over its whole prefix
            for r, (kth, after) in enumerate(top_sims[:, k - 1:k + 1].tolist()):
                if kth == after > -math.inf:
                    cols = np.flatnonzero(sims[r] > -np.inf)
                    exact = cols[np.lexsort((ids[cols], -dates[cols], -sims[r, cols]))[:k]]
                    rows[r, :k], top_sims[r, :k] = exact, sims[r, exact]
        rows, top_sims = rows[:, :k], top_sims[:, :k]
        return [[RetrievedExample(doc_id, Date.fromordinal(day), texts[row], target, sim)
                 for row, doc_id, day, target, sim in zip(*columns) if sim > -math.inf]
                for columns in zip(rows.tolist(), ids[rows].tolist(), dates[rows].tolist(),
                                   targets[rows].tolist(), top_sims.tolist())]


def build_indexes(events, embedder, window: int) -> dict[str, StoryIndex]:
    """One index per granularity over the contextual story of each day with a
    next-day close, its stories embedded in one ``embed_many`` call and its
    queries by ``embedder``. A one-day series gives empty indexes."""
    indexes = {}
    for g in GRANULARITIES:
        stories = [story for story in (contextual_story(events, i, g, window)
                                       for i in range(len(events) - 1)) if story is not None]
        indexes[g] = StoryIndex(provider=embedder)
        indexes[g].add_many(stories, embedder.embed_many([story.text for story in stories]))
    return indexes


def save_index(index: StoryIndex, fp: IO[str]) -> int:
    """Write the index as JSON lines, one document per line, doc_id ascending."""
    matrix, ids, dates, targets, texts, codes = index._columns()
    for embedding, doc_id, ordinal, target, text, code in zip(
            matrix, ids.tolist(), dates.tolist(), targets.tolist(), texts, codes.tolist()):
        record = {"date": Date.fromordinal(ordinal).isoformat(), "doc_id": doc_id,
                  "embedding": embedding.tolist(), "granularity": GRANULARITIES[code],
                  "target": target, "text": text}
        fp.write(json.dumps(record, sort_keys=True) + "\n")
    return len(ids)


def _snapshot_row(record: dict, dims: list[int]) -> tuple:
    """One snapshot line's row, as :meth:`StoryIndex._append` takes it; ``dims``
    collects the embedding lengths, which must all be equal. A field not of its
    JSON type raises TypeError, so nothing is rounded or parsed on the way in."""
    doc_id, target, embedding = record["doc_id"], record["target"], record["embedding"]
    if type(doc_id) is not int:  # a bool is an int too
        raise TypeError(f"doc_id must be an integer, got {doc_id!r}")
    for key in ("text", "granularity"):
        if type(record[key]) is not str:
            raise TypeError(f"{key} must be a string, got {record[key]!r}")
    if not _is_vector(embedding):
        raise TypeError("embedding must be a nonempty flat list of numbers")
    row = (embedding, doc_id, Date.fromisoformat(record["date"]).toordinal(),
           float(_check_number("target", target)), record["text"], record["granularity"])
    dims.append(len(row[0]))
    if dims[-1] != dims[0]:
        raise ValueError(f"doc_id {row[1]} has {dims[-1]} embedding entries, the first line {dims[0]}")
    return row


def load_index(fp: IO[str], provider=None) -> StoryIndex:
    """Rebuild an index from a JSON-lines snapshot written by :func:`save_index`.

    A malformed line, an embedding whose length differs from the first line's,
    or a doc_id that appears twice raises ValueError naming the file.
    """
    dims: list[int] = []
    rows = parse_jsonl(fp, lambda record: _snapshot_row(record, dims), "a snapshot record")
    index = StoryIndex(provider=provider)
    embeddings, doc_ids, dates, targets, texts, granularities = list(zip(*rows)) or ((),) * 6
    try:
        index._append(embeddings, doc_ids, dates, targets, texts,
                      _granularity_codes(granularities))
    except ValueError as exc:
        raise ValueError(f"{getattr(fp, 'name', '<stream>')}: {exc}") from exc
    return index


# The sidecar's arrays, beside the sha256 of the JSON lines they mirror. The
# int columns are doc_id, date ordinal and the character offset at which each
# text ends in ``texts``, one UTF-8 byte array; granularities are codes as
# StoryIndex._append takes them.
_SIDECAR_ARRAYS = ("embeddings", "targets", "int_columns", "texts", "granularities")


_GRANULARITY_CODES = {g: code for code, g in enumerate(GRANULARITIES)}


def _granularity_codes(names: Iterable[str]) -> np.ndarray:
    """Each granularity's position in GRANULARITIES; ValueError on an unknown one."""
    try:
        return np.array([_GRANULARITY_CODES[name] for name in names], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"unknown granularity {exc.args[0]!r}") from None


def _sidecar_path(path: str) -> str:
    return os.path.splitext(path)[0] + ".npz"


def _sha256(data: bytes) -> str:
    import hashlib  # loads OpenSSL, needed only for bytes the hold lacks, never by `ingest`

    return hashlib.sha256(data).hexdigest()


def _decoded(path: str, data: bytes) -> IO[str]:
    """``data``, the bytes read from ``path``, as the text open() would read:
    UTF-8 with universal newlines, named after the file. Bytes that are not
    UTF-8 raise ValueError naming the file and line."""
    try:  # in one piece, so exc.start is a file offset
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not valid UTF-8 ({exc.reason})") from exc
    fp = io.StringIO(text, newline=None)
    fp.name = path  # so an error names the file
    return fp


class _HashingWriter:
    """A text file for :func:`save_index` that writes UTF-8 to a binary file and
    hashes each write as it goes, so no copy of what is written is held."""

    def __init__(self, fh: IO[bytes]):
        import hashlib  # loads OpenSSL, needed only to write a snapshot, never by `ingest`

        self._fh, self.sha256 = fh, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha256.update(data)
        return self._fh.write(data)


def save_snapshot(index: StoryIndex, path: str) -> int:
    """Write the index to ``path`` as JSON lines, plus a binary sidecar beside it.

    The JSON lines are the snapshot of record; each goes to the file as it is
    rendered and is hashed on the way. The sidecar (same name, ``.npz``) holds
    the same rows as arrays, in the same order, and the sha256 of the
    JSON-lines bytes, so :func:`load_snapshot` can skip parsing them.
    Returns the number of documents written.
    """
    with open(path, "wb") as fh:
        out = _HashingWriter(fh)
        count = save_index(index, out)
    matrix, ids, dates, targets, texts, codes = index._columns()
    ends = np.cumsum([len(text) for text in texts], dtype=np.int64)
    arrays = (matrix, targets, np.stack((ids, dates, ends), axis=1),
              np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8), codes)
    with open(_sidecar_path(path), "wb") as fh:
        np.savez(fh, jsonl_sha256=np.array(out.sha256.hexdigest()),
                 **dict(zip(_SIDECAR_ARRAYS, arrays)))
    return count


def _load_sidecar(path: str, digest: str) -> StoryIndex | None:
    """The index held by the sidecar of ``path``; None when it is missing, unreadable,
    of an older layout or not written from JSON lines with this sha256."""
    try:  # np.load given a path would leave it open when the archive is unreadable
        with open(_sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["jsonl_sha256"]) != digest:
                return None
            embeddings, targets, int_columns, texts, codes = map(npz.__getitem__, _SIDECAR_ARRAYS)
        doc_ids, dates, ends = int_columns.T
        text, ends = texts.tobytes().decode("utf-8"), ends.tolist()
        index = StoryIndex()
        index._append(embeddings, doc_ids, dates, targets,
                      [text[a:b] for a, b in zip([0, *ends], ends)], codes)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        logger.debug("not using the sidecar of %s: %s", path, exc)
        return None
    return index


# Each run file's real path -> (the bytes last loaded, what they yield), least recent first.
_held: OrderedDict[str, tuple[bytes, object]] = OrderedDict()
_held_lock = threading.Lock()


def _hold(path: str, load: Callable[[str, bytes, str], object]):
    """What ``load(path, data, digest)`` yields for ``data``, the bytes read from
    ``path`` now, and ``digest``, their sha256. Held by real path beside ``data``:
    a later call on the file, however spelled, that reads equal bytes reuses it
    unhashed. Nothing writes into what ``load`` returns; a failed load is not held."""
    with open(path, "rb") as fh:
        data = fh.read()
    key = os.path.realpath(path)
    with _held_lock:
        held = _held.pop(key, None)  # on a miss, what older bytes yielded is freed before the load
        if held and held[0] == data:
            _held[key] = held
            return held[1]
    value = load(path, data, _sha256(data))
    with _held_lock:
        _held[key] = data, value
        if len(_held) > len(GRANULARITIES) + 1:
            _held.popitem(last=False)
    return value


def _snapshot_state(path: str, data: bytes, digest: str) -> tuple:
    """The read-only :attr:`StoryIndex._state` that ``data``, the JSON lines read
    from ``path`` with sha256 ``digest``, yield: the sidecar's rows when it was
    written from these bytes, else these bytes parsed."""
    index = _load_sidecar(path, digest)
    if index is None:
        index = load_index(_decoded(path, data))
    for column in index._state[:6]:
        column.flags.writeable = False
    return index._state


def load_snapshot(path: str, provider=None) -> StoryIndex:
    """Load an index written by :func:`save_snapshot`.

    Every call reads the JSON lines at ``path`` and compares them with the bytes
    held for that file; only bytes not held are hashed and loaded. A load uses
    the sidecar when that was written from JSON lines with this sha256, else
    parses the bytes read with :func:`load_index`. The resulting columns are
    held, read-only, by real path beside those bytes; the hold keeps what the
    last ``len(GRANULARITIES) + 1`` run files read yield (the snapshots'
    columns and the series of ``wip.csv``). Each call wraps the columns in a
    new index with its own ``provider``.
    """
    index = StoryIndex(provider=provider)
    index._state = _hold(path, _snapshot_state)
    return index

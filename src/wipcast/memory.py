"""Process memory: story embeddings, a flat vector index, and causal top-k retrieval.

The index is an exhaustive-scan store. Corpora are a few thousand stories at
most (one per day per granularity), so exact scoring is cheap and keeps
retrieval trivially auditable. Retrieval never returns a story dated on or
after the query day: downstream forecasting depends on that cutoff.
"""

from __future__ import annotations

import io
import json
import logging
import os
import threading
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from typing import IO, Iterable, Sequence

import numpy as np

from .llm import RETRYABLE_4XX
from .narrative import Story, story_from_dict, story_numbers, story_to_dict

logger = logging.getLogger(__name__)

TRIGRAM_BUCKETS = 64
NUMERIC_SLOTS = 8


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
    """

    def __init__(self, buckets: int = TRIGRAM_BUCKETS, numeric_slots: int = NUMERIC_SLOTS):
        if buckets < 1 or numeric_slots < 0:
            raise ValueError("buckets must be >= 1 and numeric_slots >= 0")
        self.buckets = buckets
        self.numeric_slots = numeric_slots
        # trigram -> bucket; story templates repeat a small trigram vocabulary
        self._bucket_of: dict[str, int] = {}

    @property
    def dim(self) -> int:
        return self.buckets + self.numeric_slots

    def _buckets(self, padded: str) -> list[int]:
        trigrams = [padded[i : i + 3] for i in range(len(padded) - 2)]
        memo = self._bucket_of
        for trigram in set(trigrams).difference(memo):
            memo[trigram] = zlib.crc32(trigram.encode("utf-8")) % self.buckets
        return list(map(memo.__getitem__, trigrams))

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmbeddingError("cannot embed empty text")
        padded = f"##{text}##"  # boundary padding guarantees at least one trigram
        counts = np.bincount(self._buckets(padded), minlength=self.buckets).astype(float)
        counts /= np.linalg.norm(counts)
        numeric = np.zeros(self.numeric_slots, dtype=float)
        for slot, value in zip(range(self.numeric_slots), story_numbers(text)):
            numeric[slot] = _squash(value)
        vec = np.concatenate([counts, numeric])
        return vec / np.linalg.norm(vec)

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        rows = [self.embed(t) for t in texts]
        return np.stack(rows) if rows else np.empty((0, self.dim))


class RemoteEmbedder:
    """Embedding client for an HTTP endpoint taking {model, input} and returning vectors.

    Transport failures, 5xx, 408 and 429 responses are retried with
    exponential backoff, as in :class:`~wipcast.llm.RemoteChatBackend`. Other
    4xx statuses and a malformed payload fail on the first attempt.
    """

    retries = 2  # RemoteChatBackend's defaults
    backoff = 1.0  # seconds before the first retry; doubles after each

    def __init__(self, endpoint: str, model: str = "bge-base-en-v1.5",
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

    def _post(self, batch: list[str]):
        import requests

        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = self._session.post(
                    self.endpoint,
                    json={"model": self.model, "input": batch},
                    timeout=self.timeout,
                )
                resp.raise_for_status()
                return resp
            except requests.HTTPError as exc:
                status = exc.response.status_code
                if 400 <= status < 500 and status not in RETRYABLE_4XX:
                    # resending the same request cannot succeed
                    raise EmbeddingError(f"remote embedding failed: {exc}") from exc
                last_error = exc
            except OSError as exc:  # connection errors and timeouts, requests' included
                last_error = exc
        raise EmbeddingError(f"remote embedding failed after {self.retries + 1} attempts: {last_error}")

    def embed_many(self, texts: Iterable[str]) -> np.ndarray:
        batch = list(texts)
        if not batch:
            return np.empty((0, self._dim or 0))
        if any(not t for t in batch):
            raise EmbeddingError("cannot embed empty text")
        resp = self._post(batch)
        try:
            rows = [np.asarray(item["embedding"], dtype=float) for item in resp.json()["data"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise EmbeddingError(f"remote embedding returned a malformed payload: {exc}") from exc
        if len(rows) != len(batch):
            raise EmbeddingError(f"expected {len(batch)} embeddings, got {len(rows)}")
        matrix = np.stack(rows)
        if not np.isfinite(matrix).all():
            raise EmbeddingError("remote embedding contains non-finite values")
        if self._dim is None:
            self._dim = matrix.shape[1]
        elif matrix.shape[1] != self._dim:
            raise EmbeddingError(f"remote dim changed: {matrix.shape[1]} != {self._dim}")
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]


@dataclass(frozen=True)
class MemoryDocument:
    """One contextual story with its embedding, keyed by a stable doc_id."""

    story: Story
    embedding: np.ndarray = field(compare=False, repr=False)
    doc_id: int = 0

    def __post_init__(self):
        vec = np.asarray(self.embedding, dtype=float)
        if vec.ndim != 1:
            raise ValueError("embedding must be one-dimensional")
        _check_rows([self.story], vec[None, :])
        object.__setattr__(self, "embedding", vec)

    @classmethod
    def _checked(cls, story: Story, embedding: np.ndarray, doc_id: int) -> MemoryDocument:
        """Build a document whose story and embedding :func:`_check_rows` passed."""
        doc = object.__new__(cls)
        object.__setattr__(doc, "story", story)
        object.__setattr__(doc, "embedding", embedding)
        object.__setattr__(doc, "doc_id", doc_id)
        return doc


def _check_rows(stories: Sequence[Story], matrix: np.ndarray) -> np.ndarray:
    """Validate one embedding row per contextual story; returns the row norms."""
    if any(story.kind != "contextual" for story in stories):
        raise ValueError("memory stores contextual stories only")
    if not np.isfinite(matrix).all():
        raise ValueError("embedding entries must be finite")
    norms = np.linalg.norm(matrix, axis=1)
    if not norms.all():
        raise ValueError("embedding must have nonzero norm")
    return norms


@dataclass(frozen=True)
class RetrievalResult:
    document: MemoryDocument
    similarity: float


@dataclass(frozen=True)
class RetentionPolicy:
    """What stays eligible at retrieval time. Defaults keep everything."""

    max_age_days: int | None = None
    min_similarity: float | None = None

    def __post_init__(self):
        if self.max_age_days is not None and self.max_age_days < 1:
            raise ValueError("max_age_days must be >= 1")


class StoryIndex:
    """Flat cosine index over contextual stories with a strict as-of cutoff.

    Rows (embedding, norm, date ordinal, doc_id) live in capacity-doubling
    arrays in insertion order. :meth:`add_many` is the one way rows get in:
    it writes a batch of stories with their embeddings, and a re-added doc_id
    overwrites its row. ``retrieve`` scores the filled rows as they stand.
    One writer or many readers at a time. Ties on similarity prefer the more
    recent story date, then the smaller doc_id.
    """

    def __init__(self, provider=None, retention: RetentionPolicy | None = None):
        self.provider = provider
        self.retention = retention if retention is not None else RetentionPolicy()
        self._docs: dict[int, MemoryDocument] = {}
        self._dim: int | None = None
        self._next_id = 0
        self._newest: Date | None = None
        self._lock = threading.Lock()
        self._row_of: dict[int, int] = {}
        self._rows = 0
        self._matrix = np.empty((0, 0))
        self._norms = np.empty(0)
        self._dates = np.empty(0, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def newest_date(self) -> Date | None:
        """Date of the newest story held, or None while the index is empty."""
        return self._newest

    def __len__(self) -> int:
        return len(self._docs)

    def add_many(self, stories: Sequence[Story], embeddings,
                 doc_ids: Sequence[int] | None = None) -> None:
        """Insert contextual stories with one embedding row each, in one batch.

        Checks the whole matrix once instead of each document on its own and
        fills the row arrays directly, in input order. Ids default to the next
        free ones. A row whose doc_id is already present replaces the earlier
        entry and keeps its row.
        """
        if not stories:
            return
        matrix = np.array(embeddings, dtype=float)  # a copy: documents hold its rows
        if matrix.ndim != 2 or len(matrix) != len(stories):
            raise ValueError(f"need one embedding row per story, got shape {matrix.shape} "
                             f"for {len(stories)} stories")
        if doc_ids is None:
            doc_ids = range(self._next_id, self._next_id + len(stories))
        elif len(doc_ids) != len(stories):
            raise ValueError(f"got {len(doc_ids)} doc_ids for {len(stories)} stories")
        dim = matrix.shape[1]
        if self._dim is not None and dim != self._dim:
            raise ValueError(f"embedding dim {dim} does not match index dim {self._dim}")
        norms = _check_rows(stories, matrix)
        # Keys in first-occurrence order, each mapped to its last occurrence.
        last = {int(doc_id): i for i, doc_id in enumerate(doc_ids)}
        keep = list(last.values())
        with self._lock:
            self._dim = dim
            for doc_id, i in last.items():
                self._docs[doc_id] = MemoryDocument._checked(stories[i], matrix[i], doc_id)
            self._put(list(last), matrix[keep], norms[keep],
                      [stories[i].date.toordinal() for i in keep])
            self._next_id = max(self._next_id, max(last) + 1)
            self._newest = Date.fromordinal(int(self._dates[:self._rows].max()))

    def add_story(self, story: Story) -> MemoryDocument:
        """Embed a contextual story with the index's provider and insert it."""
        self.add_many([story], [self.provider.embed(story.text)])
        return self._docs[self._next_id - 1]

    def documents(self) -> list[MemoryDocument]:
        return [self._docs[i] for i in sorted(self._docs)]

    def _put(self, doc_ids: list[int], block: np.ndarray, norms: np.ndarray,
             ordinals: list[int]) -> None:
        """Write rows for distinct doc_ids: a held id keeps its row, a new one appends."""
        rows = []
        for doc_id in doc_ids:
            row = self._row_of.get(doc_id)
            if row is None:
                row = self._row_of[doc_id] = self._rows
                self._rows += 1
            rows.append(row)
        if self._rows > len(self._ids):
            self._grow(max(self._rows, 2 * len(self._ids)))
        self._matrix[rows] = block
        self._norms[rows] = norms
        self._dates[rows] = ordinals
        self._ids[rows] = doc_ids

    def _grow(self, capacity: int) -> None:
        if not len(self._ids):
            self._matrix = np.empty((0, self._dim))
        for name in ("_matrix", "_norms", "_dates", "_ids"):
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
            new[:len(old)] = old
            setattr(self, name, new)

    def retrieve(self, query: Story | str | np.ndarray, as_of: Date, k: int = 5) -> list[RetrievalResult]:
        """Top-k most similar documents dated strictly before as_of."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if isinstance(query, np.ndarray):
            qvec = np.asarray(query, dtype=float)
        else:
            if self.provider is None:
                raise ValueError("index has no embedding provider; pass a query vector")
            text = query.text if isinstance(query, Story) else query
            qvec = self.provider.embed(text)
        qnorm = float(np.linalg.norm(qvec))
        if qnorm == 0.0:
            raise ValueError("cosine undefined for zero-norm query")
        if not self._docs:
            return []
        if self._dim is not None and qvec.shape[0] != self._dim:
            raise ValueError(f"query dim {qvec.shape[0]} does not match index dim {self._dim}")
        n = self._rows
        matrix, norms, dates, ids = self._matrix[:n], self._norms[:n], self._dates[:n], self._ids[:n]

        cutoff = as_of.toordinal()
        mask = dates < cutoff
        if self.retention.max_age_days is not None:
            oldest = (as_of - timedelta(days=self.retention.max_age_days)).toordinal()
            mask &= dates >= oldest
        if not mask.any():
            return []
        # einsum, not BLAS matmul: matmul accumulates differently per row
        # position, so equal embeddings would not score bit-identically and
        # the tie rule below would never engage.
        sims = np.einsum("ij,j->i", matrix[mask], qvec) / (norms[mask] * qnorm)
        dates = dates[mask]
        ids = ids[mask]
        if self.retention.min_similarity is not None:
            keep = sims >= self.retention.min_similarity
            sims, dates, ids = sims[keep], dates[keep], ids[keep]
        # lexsort uses the last key as primary: similarity desc, then date desc, then id asc.
        order = np.lexsort((ids, -dates, -sims))[:k]
        return [
            RetrievalResult(document=self._docs[int(ids[i])], similarity=float(sims[i]))
            for i in order
        ]


def save_index(index: StoryIndex, fp: IO[str]) -> int:
    """Write the index as JSON lines, one document per line, doc_id ascending."""
    count = 0
    for doc in index.documents():
        record = story_to_dict(doc.story)
        record["doc_id"] = doc.doc_id
        record["embedding"] = doc.embedding.tolist()
        del record["kind"]  # snapshots hold contextual stories only
        fp.write(json.dumps(record, sort_keys=True) + "\n")
        count += 1
    return count


def load_index(fp: IO[str], provider=None, retention: RetentionPolicy | None = None) -> StoryIndex:
    """Rebuild an index from a JSON-lines snapshot written by :func:`save_index`."""
    stories, rows, doc_ids = [], [], []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        rows.append(record.pop("embedding"))
        doc_ids.append(int(record.pop("doc_id")))
        record["kind"] = "contextual"
        stories.append(story_from_dict(record))
    index = StoryIndex(provider=provider, retention=retention)
    index.add_many(stories, rows, doc_ids)
    return index


# The sidecar's arrays, beside the sha256 of the JSON lines they mirror.
_SIDECAR_ARRAYS = ("embeddings", "doc_ids", "dates", "targets", "texts", "granularities")


def _sidecar_path(path: str) -> str:
    return os.path.splitext(path)[0] + ".npz"


def _sha256(data: bytes) -> str:
    import hashlib  # loads OpenSSL, so only the snapshot stages pay for it, not every CLI start

    return hashlib.sha256(data).hexdigest()


def save_snapshot(index: StoryIndex, path: str) -> int:
    """Write the index to ``path`` as JSON lines, plus a binary sidecar beside it.

    The JSON lines are the snapshot of record. The sidecar (same name, ``.npz``)
    holds the same rows as arrays, in the same order, and the sha256 of the
    JSON-lines bytes, so :func:`load_snapshot` can skip parsing them.
    Returns the number of documents written.
    """
    buf = io.StringIO()
    count = save_index(index, buf)
    data = buf.getvalue().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    docs = index.documents()
    arrays = {
        "embeddings": (np.stack([d.embedding for d in docs]) if docs
                       else np.empty((0, index.dim or 0))),
        "doc_ids": np.array([d.doc_id for d in docs], dtype=np.int64),
        "dates": np.array([d.story.date.toordinal() for d in docs], dtype=np.int64),
        "targets": np.array([d.story.target for d in docs], dtype=float),
        "texts": np.array([d.story.text for d in docs], dtype=str),
        "granularities": np.array([d.story.granularity for d in docs], dtype=str),
    }
    with open(_sidecar_path(path), "wb") as fh:
        np.savez(fh, jsonl_sha256=np.array(_sha256(data)), **arrays)
    return count


def _load_sidecar(path: str, digest: str, provider, retention) -> StoryIndex | None:
    """The index held by the sidecar of ``path``; None when it is missing,
    unreadable or was not written from JSON lines with this sha256."""
    try:
        with np.load(_sidecar_path(path), allow_pickle=False) as npz:
            if str(npz["jsonl_sha256"]) != digest:
                return None
            arrays = {name: npz[name] for name in _SIDECAR_ARRAYS}
        stories = [
            Story(text=text, kind="contextual", granularity=granularity,
                  date=Date.fromordinal(ordinal), target=target)
            for text, granularity, ordinal, target in zip(
                arrays["texts"].tolist(), arrays["granularities"].tolist(),
                arrays["dates"].tolist(), arrays["targets"].tolist(), strict=True)
        ]
        index = StoryIndex(provider=provider, retention=retention)
        index.add_many(stories, arrays["embeddings"], arrays["doc_ids"].tolist())
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        logger.debug("not using the sidecar of %s: %s", path, exc)
        return None
    return index


def load_snapshot(path: str, provider=None, retention: RetentionPolicy | None = None) -> StoryIndex:
    """Load an index written by :func:`save_snapshot`.

    Uses the sidecar when it matches the sha256 of the JSON lines at ``path``;
    otherwise parses the JSON lines with :func:`load_index`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    index = _load_sidecar(path, _sha256(data), provider, retention)
    if index is None:
        index = load_index(io.StringIO(data.decode("utf-8"), newline=None),
                           provider=provider, retention=retention)
    return index

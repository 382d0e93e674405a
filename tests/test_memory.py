"""Vector memory tests: cosine, deterministic embeddings, causal retrieval.

Retrieval order is checked against a brute-force oracle that scores every
document in a plain Python loop and sorts with the documented tie rule.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import threading
import zlib
from datetime import date, timedelta

import numpy as np
import pytest
import requests

from wipcast import memory
from wipcast.memory import (
    DeterministicEmbedder,
    EmbeddingError,
    MemoryDocument,
    RemoteEmbedder,
    RetentionPolicy,
    StoryIndex,
    cosine,
    load_index,
    load_snapshot,
    save_index,
    save_snapshot,
)
from wipcast.cli import main
from wipcast.eventlog import export_csv
from wipcast.narrative import render_contextual_story, render_query_story
from wipcast.synthetic import synthetic_event_log

from conftest import add_docs, random_wip_event


def oracle_retrieve(docs, query_vec, as_of, k, retention=None):
    """Exhaustive scan with explicit sort; deliberately naive."""
    retention = retention or RetentionPolicy()
    scored = []
    for doc in docs:
        if doc.story.date >= as_of:
            continue
        if retention.max_age_days is not None:
            if doc.story.date < as_of - timedelta(days=retention.max_age_days):
                continue
        sim = cosine(doc.embedding, query_vec)
        if retention.min_similarity is not None and sim < retention.min_similarity:
            continue
        scored.append((sim, doc.story.date.toordinal(), doc.doc_id))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return [(doc_id, sim) for sim, _, doc_id in scored[:k]]


def build_corpus(rng: random.Random, n: int, embedder: DeterministicEmbedder,
                 start=date(2024, 1, 1)):
    docs = []
    for i in range(n):
        day = start + timedelta(days=i)
        ev = random_wip_event(rng, day)
        story = render_contextual_story(ev, rng.randint(0, 90))
        docs.append(MemoryDocument(story=story, embedding=embedder.embed(story.text), doc_id=i))
    return docs


def test_cosine_identical_is_one():
    assert cosine((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_is_zero():
    assert cosine((1, 0), (0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    assert cosine((1, 2), (3, 4)) == pytest.approx(11 / (math.sqrt(5) * 5), abs=1e-12)


def test_cosine_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        cosine((1, 2), (1, 2, 3))


def test_cosine_rejects_zero_vector():
    with pytest.raises(ValueError):
        cosine((0, 0), (1, 2))


def test_cosine_symmetry_and_self_similarity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = rng.normal(size=12)
        v = rng.normal(size=12)
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)


def test_embedder_deterministic_across_instances(monday_example):
    text = render_query_story(monday_example).text
    a = DeterministicEmbedder().embed(text)
    b = DeterministicEmbedder().embed(text)
    assert np.array_equal(a, b)


def test_embedder_unit_norm_and_dim(monday_example):
    emb = DeterministicEmbedder()
    vec = emb.embed(render_contextual_story(monday_example, 71).text)
    assert vec.shape == (emb.dim,)
    assert emb.dim == 72
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_embedder_distinguishes_single_number_change(monday_example):
    emb = DeterministicEmbedder()
    a = emb.embed(render_contextual_story(monday_example, 71).text)
    b = emb.embed(render_contextual_story(monday_example, 72).text)
    assert not np.array_equal(a, b)


def test_embedder_rejects_empty_text():
    with pytest.raises(EmbeddingError):
        DeterministicEmbedder().embed("")


def test_embedder_handles_short_text():
    vec = DeterministicEmbedder().embed("ab")
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_embed_many_stacks_rows(monday_example):
    emb = DeterministicEmbedder()
    texts = [render_contextual_story(monday_example, t).text for t in (1, 2, 3)]
    matrix = emb.embed_many(texts)
    assert matrix.shape == (3, emb.dim)
    assert np.array_equal(matrix[1], emb.embed(texts[1]))


def test_document_requires_contextual_story(monday_example):
    query = render_query_story(monday_example)
    with pytest.raises(ValueError):
        MemoryDocument(story=query, embedding=np.ones(4), doc_id=0)


def test_document_rejects_degenerate_embeddings(monday_example):
    story = render_contextual_story(monday_example, 71)
    with pytest.raises(ValueError):
        MemoryDocument(story=story, embedding=np.zeros(4), doc_id=0)
    with pytest.raises(ValueError):
        MemoryDocument(story=story, embedding=np.array([1.0, np.nan]), doc_id=0)


def test_index_add_and_replace(monday_example):
    emb = DeterministicEmbedder()
    story = render_contextual_story(monday_example, 71)
    index = StoryIndex(provider=emb)
    add_docs(index, [MemoryDocument(story=story, embedding=emb.embed(story.text), doc_id=7)])
    assert len(index) == 1
    other = render_contextual_story(monday_example, 40)
    add_docs(index, [MemoryDocument(story=other, embedding=emb.embed(other.text), doc_id=7)])
    assert len(index) == 1
    assert index.documents()[0].story.target == 40.0


def test_index_rejects_dim_mismatch(monday_example):
    story = render_contextual_story(monday_example, 71)
    index = StoryIndex()
    add_docs(index, [MemoryDocument(story=story, embedding=np.ones(8), doc_id=0)])
    with pytest.raises(ValueError):
        add_docs(index, [MemoryDocument(story=story, embedding=np.ones(9), doc_id=1)])


def test_retrieve_respects_causality_everywhere():
    rng = random.Random(31)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 60, emb)
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    for _ in range(25):
        as_of = date(2024, 1, 1) + timedelta(days=rng.randint(0, 70))
        ev = random_wip_event(rng, as_of)
        results = index.retrieve(render_query_story(ev), as_of, k=10)
        for res in results:
            assert res.document.story.date < as_of


def test_retrieve_empty_when_all_future(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    for i in range(3):
        ev = random_wip_event(random.Random(i), date(2024, 6, 10 + i))
        index.add_story(render_contextual_story(ev, 5))
    assert index.retrieve(render_query_story(monday_example), date(2024, 6, 1), k=5) == []


def test_retrieve_whole_corpus_when_k_exceeds_it():
    rng = random.Random(8)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 4, emb)
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    ev = random_wip_event(rng, date(2024, 3, 1))
    results = index.retrieve(render_query_story(ev), date(2024, 3, 1), k=50)
    assert len(results) == 4
    sims = [r.similarity for r in results]
    assert sims == sorted(sims, reverse=True)


def test_retrieve_matches_oracle_on_random_corpora():
    emb = DeterministicEmbedder()
    for trial in range(20):
        rng = random.Random(1000 + trial)
        docs = build_corpus(rng, rng.randint(5, 120), emb)
        index = StoryIndex(provider=emb)
        add_docs(index, docs)
        for _ in range(25):
            as_of = date(2024, 1, 1) + timedelta(days=rng.randint(0, 130))
            qvec = emb.embed(render_query_story(random_wip_event(rng, as_of)).text)
            k = rng.choice((1, 3, 5, 8))
            got = [(r.document.doc_id, r.similarity) for r in index.retrieve(qvec, as_of, k=k)]
            want = oracle_retrieve(docs, qvec, as_of, k)
            assert [g[0] for g in got] == [w[0] for w in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-9)



def test_index_interleaved_adds_and_queries_match_oracle():
    rng = random.Random(404)
    emb = DeterministicEmbedder()
    corpus = build_corpus(rng, 40, emb)
    index = StoryIndex(provider=emb)
    live: dict[int, MemoryDocument] = {}
    queries = [
        (date(2024, 1, 1) + timedelta(days=d),
         emb.embed(render_query_story(random_wip_event(rng, date(2024, 3, 1))).text))
        for d in (3, 12, 25, 41)
    ]

    def check():
        assert len(index) == len(live)
        assert index.newest_date == max(d.story.date for d in live.values())
        assert [d.doc_id for d in index.documents()] == sorted(live)
        for as_of, qvec in queries:
            got = [(r.document.doc_id, r.similarity) for r in index.retrieve(qvec, as_of, k=6)]
            want = oracle_retrieve(live.values(), qvec, as_of, 6)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert [g[1] for g in got] == pytest.approx([w[1] for w in want], abs=1e-9)

    def add(doc):
        add_docs(index, [doc])
        live[doc.doc_id] = doc
        check()

    # add -> retrieve -> add -> retrieve, then several rows in one batch
    for doc in corpus[:6]:
        add(doc)
    add_docs(index, corpus[6:10])
    live.update((doc.doc_id, doc) for doc in corpus[6:10])
    check()

    # replace a doc_id an earlier query returned, moving it to an older date
    as_of, qvec = queries[1]
    returned = index.retrieve(qvec, as_of, k=1)[0].document
    older = render_contextual_story(random_wip_event(rng, date(2023, 12, 1)), 3)
    add(MemoryDocument(story=older, embedding=emb.embed(older.text), doc_id=returned.doc_id))
    replaced = [r.document for r in index.retrieve(qvec, as_of, k=len(live))
                if r.document.doc_id == returned.doc_id]
    assert [d.story for d in replaced] == [older]

    # replace the newest story with an older one: the newest date moves back
    newest = max(live.values(), key=lambda d: d.story.date)
    add(MemoryDocument(story=older, embedding=emb.embed(older.text), doc_id=newest.doc_id))

    # ids out of order
    for i in (30, 12, 25, 11):
        add(corpus[i])

    # add_story continues after the largest id ever added
    fresh = StoryIndex(provider=emb)
    add_docs(fresh, [corpus[7], corpus[3]])
    assert fresh.add_story(corpus[20].story).doc_id == 8
    assert index.add_story(corpus[39].story).doc_id == 31
    live[31] = MemoryDocument(story=corpus[39].story, embedding=corpus[39].embedding, doc_id=31)
    check()



def test_index_concurrent_readers_get_the_oracle_results():
    rng = random.Random(9)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 200, emb)
    as_of = date(2024, 12, 31)
    qvec = emb.embed(render_query_story(random_wip_event(rng, as_of)).text)
    want = oracle_retrieve(docs, qvec, as_of, 10)
    results, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            index = StoryIndex(provider=emb)
            add_docs(index, docs)
            start = threading.Barrier(8)

            def read():
                try:
                    start.wait(timeout=10)
                    results.append([r.document.doc_id for r in index.retrieve(qvec, as_of, k=10)])
                except Exception as exc:  # reported below; a thread cannot fail the test
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [[doc_id for doc_id, _ in want]] * 160


def trigram_shares(text, buckets):
    """Share of the text's trigrams in each crc32 bucket, hashed afresh."""
    padded = f"##{text}##"
    counts = np.zeros(buckets)
    for i in range(len(padded) - 2):
        counts[zlib.crc32(padded[i:i + 3].encode("utf-8")) % buckets] += 1.0
    return counts / counts.sum()


def test_embedder_memo_is_per_instance_and_bucket_count():
    rng = random.Random(12)
    long_lived = {64: DeterministicEmbedder(64), 32: DeterministicEmbedder(32)}
    for i in range(30):
        ev = random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i))
        texts = (render_query_story(ev).text, render_query_story(ev, "weekday").text,
                 render_contextual_story(ev, rng.randint(0, 90)).text)
        for text in texts:
            for buckets in (64, 32):
                got = long_lived[buckets].embed(text)
                want = DeterministicEmbedder(buckets).embed(text)
                assert got.tobytes() == want.tobytes()
                block = got[:buckets]
                assert block / block.sum() == pytest.approx(trigram_shares(text, buckets),
                                                            abs=1e-12)


def test_retrieve_prefix_consistency():
    rng = random.Random(77)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 40, emb)
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    qvec = emb.embed(render_query_story(random_wip_event(rng, date(2024, 2, 20))).text)
    long = index.retrieve(qvec, date(2024, 2, 20), k=12)
    short = index.retrieve(qvec, date(2024, 2, 20), k=4)
    assert [r.document.doc_id for r in short] == [r.document.doc_id for r in long[:4]]


def test_exact_ties_prefer_recent_then_small_id(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    # Same text embeds identically, forcing exact similarity ties.
    base = render_contextual_story(monday_example, 71)
    for doc_id, day in [(4, date(2024, 1, 1)), (1, date(2024, 1, 3)), (2, date(2024, 1, 3))]:
        story = type(base)(text=base.text, kind=base.kind, granularity=base.granularity,
                           date=day, target=base.target)
        add_docs(index, [MemoryDocument(story=story, embedding=emb.embed(story.text),
                                        doc_id=doc_id)])
    results = index.retrieve(render_query_story(monday_example), date(2024, 2, 1), k=3)
    assert [r.document.doc_id for r in results] == [1, 2, 4]


def test_retention_max_age_filters_old_docs():
    rng = random.Random(2)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 30, emb)
    policy = RetentionPolicy(max_age_days=7)
    index = StoryIndex(provider=emb, retention=policy)
    add_docs(index, docs)
    as_of = date(2024, 1, 25)
    qvec = emb.embed(render_query_story(random_wip_event(rng, as_of)).text)
    results = index.retrieve(qvec, as_of, k=30)
    assert results
    for res in results:
        assert as_of - timedelta(days=7) <= res.document.story.date < as_of
    want = oracle_retrieve(docs, qvec, as_of, 30, policy)
    assert [r.document.doc_id for r in results] == [doc_id for doc_id, _ in want]
    assert [r.similarity for r in results] == pytest.approx([sim for _, sim in want], abs=1e-9)


def test_retention_min_similarity_drops_low_scores(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb, retention=RetentionPolicy(min_similarity=0.999))
    near = render_contextual_story(monday_example, 71)
    add_docs(index, [MemoryDocument(story=near, embedding=emb.embed(near.text), doc_id=0)])
    query = render_query_story(monday_example)
    hits = index.retrieve(query, date(2024, 4, 1), k=5)
    assert len(hits) <= 1
    loose = StoryIndex(provider=emb, retention=RetentionPolicy(min_similarity=-1.0))
    add_docs(loose, [MemoryDocument(story=near, embedding=emb.embed(near.text), doc_id=0)])
    assert len(loose.retrieve(query, date(2024, 4, 1), k=5)) == 1


def test_retrieve_rejects_bad_k(monday_example):
    index = StoryIndex(provider=DeterministicEmbedder())
    with pytest.raises(ValueError):
        index.retrieve(render_query_story(monday_example), date(2024, 1, 1), k=0)


def test_hundred_docs_all_retrievable():
    rng = random.Random(55)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 100, emb)
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    assert len(index) == 100
    qvec = emb.embed("The WiP items opened at 1.")
    results = index.retrieve(qvec, date(2030, 1, 1), k=1000)
    assert len(results) == 100
    assert {r.document.doc_id for r in results} == set(range(100))


def test_snapshot_round_trip():
    rng = random.Random(13)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 12, emb)
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    buf = io.StringIO()
    assert save_index(index, buf) == 12
    buf.seek(0)
    first = buf.readline()
    record = __import__("json").loads(first)
    assert set(record) == {"doc_id", "date", "granularity", "text", "target", "embedding"}
    buf.seek(0)
    loaded = load_index(buf, provider=emb)
    assert len(loaded) == 12
    qvec = emb.embed(render_query_story(random_wip_event(rng, date(2024, 1, 20))).text)
    a = [(r.document.doc_id, r.similarity) for r in index.retrieve(qvec, date(2024, 1, 9), k=5)]
    b = [(r.document.doc_id, r.similarity) for r in loaded.retrieve(qvec, date(2024, 1, 9), k=5)]
    assert a == b


def rows_of(index):
    """The index's row arrays, in row order: embeddings, norms, date ordinals, ids."""
    n = index._rows
    return index._matrix[:n], index._norms[:n], index._dates[:n], index._ids[:n]


def assert_same_index(a, b):
    assert a.documents() == b.documents()
    for da, db in zip(a.documents(), b.documents()):
        assert np.array_equal(da.embedding, db.embedding)
    for ra, rb in zip(rows_of(a), rows_of(b)):
        assert np.array_equal(ra, rb)
    assert (len(a), a.dim, a.newest_date) == (len(b), b.dim, b.newest_date)


def refuse_jsonl(*args, **kwargs):
    raise AssertionError("the sidecar should have been used")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    log = out / "log.csv"
    log.write_text(export_csv(synthetic_event_log(300, seed=3, span_days=50)))
    for argv in (["ingest", str(log), "--out", str(out)], ["stories", "--out", str(out)],
                 ["index", "--out", str(out)]):
        assert main(argv) == 0
    return out


@pytest.mark.parametrize("granularity", ["daily", "weekday", "windowed"])
def test_sidecar_index_matches_jsonl_index(run_dir, granularity, monkeypatch):
    emb = DeterministicEmbedder()
    path = run_dir / f"index_{granularity}.jsonl"
    with open(path, encoding="utf-8") as fh:
        from_jsonl = load_index(fh, provider=emb)

    monkeypatch.setattr(memory, "load_index", refuse_jsonl)
    from_sidecar = load_snapshot(str(path), provider=emb)
    assert len(from_sidecar) > 30
    assert_same_index(from_sidecar, from_jsonl)
    ids = rows_of(from_sidecar)[3]
    assert ids.tolist() == [json.loads(line)["doc_id"] for line in path.read_text().splitlines()]
    rng = random.Random(17)
    for _ in range(20):
        as_of = from_jsonl.newest_date - timedelta(days=rng.randint(-1, 40))
        query = render_query_story(random_wip_event(rng, as_of))
        k = rng.choice((1, 5, 12))
        got = [(r.document, r.similarity) for r in from_sidecar.retrieve(query, as_of, k=k)]
        want = [(r.document, r.similarity) for r in from_jsonl.retrieve(query, as_of, k=k)]
        assert got == want  # similarities compared for equality, not closeness


def test_empty_snapshot_round_trips(tmp_path, monkeypatch):
    path = tmp_path / "index_daily.jsonl"
    assert save_snapshot(StoryIndex(), str(path)) == 0
    assert path.read_bytes() == b""
    with open(path, encoding="utf-8") as fh:
        assert len(load_index(fh)) == 0
    monkeypatch.setattr(memory, "load_index", refuse_jsonl)
    loaded = load_snapshot(str(path), provider=DeterministicEmbedder())
    assert (len(loaded), loaded.dim, loaded.newest_date) == (0, None, None)
    assert loaded.retrieve("The WiP items opened at 3.", date(2030, 1, 1), k=5) == []


def test_add_many_matches_sequential_adds_with_duplicate_ids():
    rng = random.Random(23)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 30, emb)
    # ids 3 and 8 recur: the later row wins and keeps the first one's row
    ids = list(range(20)) + [3, 20, 21, 8, 22, 23, 3, 24, 25, 26]
    one_by_one = StoryIndex(provider=emb)
    for doc, doc_id in zip(docs, ids):
        one_by_one.add_many([doc.story], [doc.embedding], [doc_id])
    batched = StoryIndex(provider=emb)
    add_docs(batched, docs[:1])  # a batch after an earlier one
    batched.add_many([d.story for d in docs], np.stack([d.embedding for d in docs]), ids)
    assert_same_index(batched, one_by_one)
    assert len(batched) == 27
    assert batched.documents()[3].story == docs[26].story
    as_of = date(2024, 2, 15)
    qvec = emb.embed(render_query_story(random_wip_event(rng, as_of)).text)
    assert ([(r.document, r.similarity) for r in batched.retrieve(qvec, as_of, k=27)]
            == [(r.document, r.similarity) for r in one_by_one.retrieve(qvec, as_of, k=27)])
    assert batched.add_story(docs[1].story).doc_id == 27


def corrupt(embedding, bad):
    if bad == "non-finite":
        embedding[5] = float("nan")
    elif bad == "zero-norm":
        embedding[:] = [0.0] * len(embedding)
    else:  # mixed dims: one row is shorter than the rest
        embedding.pop()


@pytest.mark.parametrize("bad", ["non-finite", "zero-norm", "mixed-dim"])
def test_load_index_rejects_bad_embeddings(bad):
    rng = random.Random(13)
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    add_docs(index, build_corpus(rng, 6, emb))
    buf = io.StringIO()
    save_index(index, buf)
    lines = []
    for i, line in enumerate(buf.getvalue().splitlines()):
        record = json.loads(line)
        if i == 2:
            corrupt(record["embedding"], bad)
        lines.append(json.dumps(record))
    with pytest.raises(ValueError):
        load_index(io.StringIO("\n".join(lines)))
    stories = [d.story for d in index.documents()]
    rows = [json.loads(line)["embedding"] for line in lines]
    with pytest.raises(ValueError):
        StoryIndex().add_many(stories, rows)


def test_add_many_rejects_query_stories_and_foreign_dims(monday_example):
    emb = DeterministicEmbedder()
    query = render_query_story(monday_example)
    story = render_contextual_story(monday_example, 71)
    with pytest.raises(ValueError, match="contextual"):
        StoryIndex().add_many([query], emb.embed_many([query.text]))
    index = StoryIndex()
    index.add_many([story], np.ones((1, 8)))
    with pytest.raises(ValueError, match="dim"):
        index.add_many([story], np.ones((1, 9)))
    with pytest.raises(ValueError):
        index.add_many([story, story], np.ones((1, 8)))
    assert len(index) == 1


# --- remote embedder retries ---


class EmbedResponse:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code} Error", response=self)

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


def _vectors(n):
    return EmbedResponse(body={"data": [{"embedding": [1.0, float(i)]} for i in range(n)]})


class EmbedSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = 0

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def sleeps(monkeypatch):
    waited = []
    monkeypatch.setattr(memory.time, "sleep", waited.append)
    return waited


@pytest.mark.parametrize("failure", [
    EmbedResponse(500), EmbedResponse(503), EmbedResponse(408), EmbedResponse(429),
    ConnectionError("reset"), requests.ConnectionError("refused"), requests.Timeout("slow"),
])
def test_remote_embedder_retries_transient_failures(failure, sleeps):
    session = EmbedSession([failure, failure, _vectors(2)])
    matrix = RemoteEmbedder("http://embed.test", session=session).embed_many(["a", "b"])
    assert matrix.shape == (2, 2)
    assert session.posts == 3
    assert sleeps == [1.0, 2.0]  # the chat backend's defaults: 2 retries, doubling backoff


@pytest.mark.parametrize("status", [500, 429])
def test_remote_embedder_gives_up_after_bounded_retries(status, sleeps):
    session = EmbedSession([EmbedResponse(status)] * 5)
    with pytest.raises(EmbeddingError, match=str(status)):
        RemoteEmbedder("http://embed.test", session=session).embed_many(["a"])
    assert session.posts == 3


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_remote_embedder_does_not_retry_client_errors(status, sleeps):
    session = EmbedSession([EmbedResponse(status), _vectors(1)])
    with pytest.raises(EmbeddingError, match=str(status)):
        RemoteEmbedder("http://embed.test", session=session).embed_many(["a"])
    assert session.posts == 1
    assert sleeps == []


@pytest.mark.parametrize("body", [None, {"nope": []}, {"data": [{"vector": [1.0]}]}, {"data": [{"embedding": "x"}]}])
def test_remote_embedder_does_not_retry_malformed_payload(body, sleeps):
    session = EmbedSession([EmbedResponse(body=body), _vectors(1)])
    with pytest.raises(EmbeddingError, match="malformed"):
        RemoteEmbedder("http://embed.test", session=session).embed_many(["a"])
    assert session.posts == 1

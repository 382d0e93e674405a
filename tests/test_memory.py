"""Vector memory tests: cosine, deterministic embeddings, causal retrieval.

Retrieval order is checked against a brute-force oracle that scores every
document in a plain Python loop and sorts with the documented tie rule.
"""

from __future__ import annotations

import gc
import io
import json
import math
import random
import re
import sys
import threading
import time
import warnings
import zlib
from collections import OrderedDict
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
import requests

from wipcast import memory
from wipcast.memory import (
    DeterministicEmbedder,
    EmbeddingError,
    RemoteEmbedder,
    StoryIndex,
    cosine,
    load_index,
    load_snapshot,
    save_index,
    save_snapshot,
)
from wipcast.cli import main
from wipcast.eventlog import export_csv
from wipcast.narrative import GRANULARITIES, Story, render_contextual_story, render_query_story
from wipcast.synthetic import synthetic_event_log

from conftest import Doc, add_docs, random_wip_event


def oracle_retrieve(docs, query_vec, as_of, k):
    """Exhaustive scan with explicit sort; deliberately naive."""
    scored = []
    for doc in docs:
        if doc.story.date >= as_of:
            continue
        sim = cosine(doc.embedding, query_vec)
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
        docs.append(Doc(story, embedder.embed(story.text), i))
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


def _slice_oracle_embed(text: str, buckets: int = 64, slots: int = 8) -> np.ndarray:
    """The offline embedding computed the plain way: one slice per trigram,
    every trigram hashed, numbers found one match at a time."""
    padded = f"##{text}##"
    trigrams = [padded[i:i + 3] for i in range(len(padded) - 2)]
    counts = np.bincount([zlib.crc32(t.encode("utf-8")) % buckets for t in trigrams],
                         minlength=buckets).astype(float)
    counts /= np.linalg.norm(counts)
    numeric = np.zeros(slots, dtype=float)
    numbers = [float(m.group()) for m in re.finditer(r"-?\d+(?:\.\d+)?", text)]
    for slot, value in zip(range(slots), numbers):
        numeric[slot] = (1.0 + value / (1.0 + abs(value))) / 2.0
    vec = np.concatenate([counts, numeric])
    return vec / np.linalg.norm(vec)


def test_embedder_matches_the_slice_based_oracle_bit_for_bit(monday_example):
    texts = ["Überstunden: 12.5 Fälle am Montag, −3 offen; 東京 ٣ 件 😀 -4.25 ##x##",
             "Montag: 55 offen, 70 hoch, ١٢ Fälle 😀",
             render_contextual_story(monday_example, 71).text, "ab", "é"]
    emb = DeterministicEmbedder()
    for text in texts + texts:  # the second round reads every trigram from the memo
        assert np.array_equal(emb.embed(text), _slice_oracle_embed(text)), text
    oracle = np.stack([_slice_oracle_embed(text) for text in texts])
    assert np.array_equal(DeterministicEmbedder().embed_many(texts), oracle)


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


def test_embed_many_rows_are_embed_bit_for_bit_across_chunks():
    """A batch spans chunks; each row is what embed gives the text alone, and
    what the slice-based oracle gives, however the texts are batched."""
    rng = random.Random(21)
    unusual = ["x", "é", "😀", "東京 ٣ 件 😀 Fälle", "##", "###x###",
               " ".join(str(i * 1.5) for i in range(3 * memory.NUMERIC_SLOTS))]
    texts = [render_query_story(random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i))).text
             for i in range(2 * memory.EMBED_CHUNK)]
    texts[memory.EMBED_CHUNK - 3:memory.EMBED_CHUNK - 3] = unusual  # across the first boundary
    texts += unusual
    matrix = DeterministicEmbedder().embed_many(texts)
    alone = DeterministicEmbedder()
    for i, text in enumerate(texts):
        assert matrix[i].tobytes() == alone.embed(text).tobytes(), (i, text)
        assert matrix[i].tobytes() == _slice_oracle_embed(text).tobytes(), (i, text)
    assert DeterministicEmbedder().embed_many(texts[::-1])[::-1].tobytes() == matrix.tobytes()


def test_embedder_shared_by_threads_gives_each_text_its_oracle_row():
    # threads that find new trigrams at once each replace the code table; a
    # lost update only means hashing a trigram again, never a wrong bucket
    texts = [f"{chr(0x4E00 + i)}{chr(0x1F600 + i % 50)} story {i} of {i * 7}" for i in range(400)]
    emb, rows, errors = DeterministicEmbedder(), {}, []
    start = threading.Barrier(4)

    def work(part):
        start.wait()
        try:
            for text in part:
                rows[text] = emb.embed(text)
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(texts[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert all(rows[text].tobytes() == _slice_oracle_embed(text).tobytes() for text in texts)


def test_embed_many_rejects_an_empty_text_in_any_chunk():
    texts = ["a story"] * (memory.EMBED_CHUNK + 5)
    texts[memory.EMBED_CHUNK + 2] = ""
    with pytest.raises(EmbeddingError, match="empty"):
        DeterministicEmbedder().embed_many(texts)
    assert DeterministicEmbedder().embed_many([]).shape == (0, DeterministicEmbedder().dim)


def test_embedder_rejects_a_lone_surrogate_on_both_paths():
    with pytest.raises(UnicodeEncodeError):
        DeterministicEmbedder().embed("WiP \ud800 opened")
    with pytest.raises(UnicodeEncodeError):
        DeterministicEmbedder().embed_many(["a story", "WiP \ud800 opened"])


def newest_date(index):
    """The date of the newest story ``index`` holds, or None while it is empty."""
    return max((story.date for story in index.documents().values()), default=None)


def index_state(index, queries):
    """What a rejected add must leave as it was: size, stories, newest date, retrievals."""
    return (len(index), index.documents(), newest_date(index),
            [index.retrieve(qvec, as_of, k=50) for as_of, qvec in queries])


def test_index_add_and_replace(monday_example):
    """Re-adding a held doc_id is rejected and leaves the index as it was."""
    emb = DeterministicEmbedder()
    story = render_contextual_story(monday_example, 71)
    index = StoryIndex(provider=emb)
    add_docs(index, [Doc(story, emb.embed(story.text), 7)])
    queries = [(date(2024, 4, 1), emb.embed(render_query_story(monday_example).text))]
    before = index_state(index, queries)
    other = render_contextual_story(monday_example, 40)
    with pytest.raises(ValueError, match="doc_id 7 "):
        add_docs(index, [Doc(other, emb.embed(other.text), 7)])
    assert index_state(index, queries) == before
    assert index.documents()[7].target == 71.0


def test_index_rejects_dim_mismatch(monday_example):
    story = render_contextual_story(monday_example, 71)
    index = StoryIndex()
    add_docs(index, [Doc(story, np.ones(8), 0)])
    with pytest.raises(ValueError):
        add_docs(index, [Doc(story, np.ones(9), 1)])


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
            assert res.date < as_of


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


def test_retrieve_scores_a_row_alike_whether_or_not_rows_are_gathered():
    """All rows eligible or only some: either way the eligible rows are scored
    as one slice, at whatever offset, and a row's similarity is bit-identical
    in every slice, so ties between equal embeddings still engage."""
    rng = random.Random(12)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 300, emb)
    twin = docs[40]  # the same embedding on a later day ties with it
    docs.append(Doc(replace(twin.story, date=date(2025, 1, 1)), twin.embedding, 300))
    index = StoryIndex(provider=emb)
    add_docs(index, docs)
    qvec = emb.embed(render_query_story(random_wip_event(rng, date(2024, 5, 1))).text)
    everything = {r.doc_id: r.similarity
                  for r in index.retrieve(qvec, date(2030, 1, 1), k=len(docs))}
    assert len(everything) == len(docs)
    assert everything[300] == everything[40]
    for as_of in (date(2024, 2, 1), date(2024, 7, 1), date(2024, 12, 31)):
        got = index.retrieve(qvec, as_of, k=len(docs))
        assert 0 < len(got) < len(docs)
        assert all(r.similarity == everything[r.doc_id] for r in got)
    ranked = [r.doc_id for r in index.retrieve(twin.embedding, date(2030, 1, 1), k=2)]
    assert ranked == [300, 40]  # equal similarity: the newer story first


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
            got = [(r.doc_id, r.similarity) for r in index.retrieve(qvec, as_of, k=k)]
            want = oracle_retrieve(docs, qvec, as_of, k)
            assert [g[0] for g in got] == [w[0] for w in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-9)


def test_retrieve_many_rows_equal_retrieve_one_query_at_a_time():
    """Each row of retrieve_many, over several chunks of queries given out of
    date order, is what retrieve gives that query alone: the same doc_ids and
    bit-equal similarities, ties broken as the oracle breaks them."""
    emb = DeterministicEmbedder()
    ties = 0
    for trial in range(16):
        rng = random.Random(2000 + trial)
        docs = build_corpus(rng, rng.randint(1, 90), emb)
        # copies of a few embeddings on other days tie with them, at the k-th place too
        for doc in rng.sample(docs, min(len(docs), 5)):
            for _ in range(rng.randint(1, 4)):
                day = doc.story.date + timedelta(days=rng.randint(-3, 60))
                docs.append(Doc(replace(doc.story, date=day), doc.embedding, len(docs)))
        index = StoryIndex(provider=emb)
        add_docs(index, docs)
        days = [date.min, date.max, *(date(2024, 1, 1) + timedelta(days=rng.randint(-10, 160))
                                      for _ in range(rng.randint(1, 40)))]
        rng.shuffle(days)
        vectors = [rng.choice(docs).embedding if rng.random() < 0.5 else emb.embed(
            render_query_story(random_wip_event(rng, day if day < date.max else date(2024, 6, 1))).text)
            for day in days]
        k = rng.choice((1, 2, 5, len(docs) + 3))
        rows = index.retrieve_many(np.array(vectors), days, k)
        assert len(rows) == len(days)
        for vector, day, row in zip(vectors, days, rows):
            alone = index.retrieve(vector, day, k)
            assert [(r.doc_id, r.similarity) for r in row] == [(r.doc_id, r.similarity) for r in alone]
            assert row == alone
            want = oracle_retrieve(docs, vector, day, k)
            assert [r.doc_id for r in row] == [doc_id for doc_id, _ in want]
            deeper = index.retrieve(vector, day, k + 1)
            ties += len(deeper) > k and deeper[k - 1].similarity == deeper[k].similarity
    assert ties > 10  # the k-th and (k+1)-th stories tied that often


def test_retrieve_many_on_an_empty_index_and_bad_queries():
    empty = StoryIndex()
    assert empty.retrieve_many(np.ones((3, 4)), [date(2024, 1, 1)] * 3) == [[], [], []]
    assert empty.retrieve_many(np.empty((0, 4)), []) == []
    rng = random.Random(8)
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    add_docs(index, build_corpus(rng, 10, emb))
    queries = np.ones((2, emb.dim))
    days = [date(2024, 2, 1)] * 2
    assert [len(row) for row in index.retrieve_many(queries, days, k=3)] == [3, 3]
    queries[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        index.retrieve_many(queries, days)
    with pytest.raises(ValueError, match="dim"):
        index.retrieve_many(np.ones((2, emb.dim + 1)), days)
    with pytest.raises(ValueError, match="one query row per as-of day"):
        index.retrieve_many(np.ones((2, emb.dim)), days[:1])
    with pytest.raises(ValueError, match="k must be"):
        index.retrieve_many(np.ones((2, emb.dim)), days, k=0)



def test_index_interleaved_adds_and_queries_match_oracle():
    rng = random.Random(404)
    emb = DeterministicEmbedder()
    corpus = build_corpus(rng, 40, emb)
    index = StoryIndex(provider=emb)
    live: dict[int, Doc] = {}
    queries = [
        (date(2024, 1, 1) + timedelta(days=d),
         emb.embed(render_query_story(random_wip_event(rng, date(2024, 3, 1))).text))
        for d in (3, 12, 25, 41)
    ]

    def check():
        assert len(index) == len(live)
        assert newest_date(index) == max(d.story.date for d in live.values())
        assert list(index.documents().items()) == [(i, live[i].story) for i in sorted(live)]
        for as_of, qvec in queries:
            got = [(r.doc_id, r.similarity) for r in index.retrieve(qvec, as_of, k=6)]
            want = oracle_retrieve(live.values(), qvec, as_of, 6)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert [g[1] for g in got] == pytest.approx([w[1] for w in want], abs=1e-9)

    def add(doc):
        add_docs(index, [doc])
        live[doc.doc_id] = doc
        check()

    def reject(doc):
        before = index_state(index, queries)
        with pytest.raises(ValueError, match=f"doc_id {doc.doc_id} "):
            add_docs(index, [doc])
        assert index_state(index, queries) == before
        check()

    # add -> retrieve -> add -> retrieve, then several rows in one batch
    for doc in corpus[:6]:
        add(doc)
    add_docs(index, corpus[6:10])
    live.update((doc.doc_id, doc) for doc in corpus[6:10])
    check()

    # re-adding a doc_id an earlier query returned is rejected, also with an older date
    as_of, qvec = queries[1]
    returned = index.retrieve(qvec, as_of, k=1)[0]
    older = render_contextual_story(random_wip_event(rng, date(2023, 12, 1)), 3)
    reject(Doc(older, emb.embed(older.text), returned.doc_id))
    assert index.retrieve(qvec, as_of, k=1)[0] == returned

    # so is re-adding the newest story's doc_id: the newest date stays
    newest = max(live.values(), key=lambda d: d.story.date)
    reject(Doc(older, emb.embed(older.text), newest.doc_id))
    assert newest_date(index) == newest.story.date

    # a later batch of older stories does not move the newest date back
    old_batch = [Doc(older, emb.embed(older.text), 13),
                 Doc(corpus[0].story, corpus[0].embedding, 14)]
    add_docs(index, old_batch)
    live.update((doc.doc_id, doc) for doc in old_batch)
    check()
    assert newest_date(index) == newest.story.date

    # ids out of order
    for i in (30, 12, 25, 11):
        add(corpus[i])

    # add_story continues after the largest id ever added
    fresh = StoryIndex(provider=emb)
    add_docs(fresh, [corpus[7], corpus[3]])
    assert fresh.add_story(corpus[20].story) == 8
    assert index.add_story(corpus[39].story) == 31
    live[31] = Doc(corpus[39].story, corpus[39].embedding, 31)
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
                    results.append([r.doc_id for r in index.retrieve(qvec, as_of, k=10)])
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


def shuffled_corpus(rng: random.Random, emb: DeterministicEmbedder, n: int, days: int = 30):
    """n stories on ``days`` days, so dates repeat, with random distinct doc_ids,
    in random order. Some are twins of another story: the same embedding on
    another day or under another doc_id, so similarities tie exactly."""
    start, docs = date(2024, 1, 1), []
    for doc_id in rng.sample(range(10_000), n):
        day = start + timedelta(days=rng.randrange(days))
        if docs and rng.random() < 0.2:
            twin = rng.choice(docs)
            docs.append(Doc(replace(twin.story, date=rng.choice((day, twin.story.date))),
                            twin.embedding, doc_id))
        else:
            story = render_contextual_story(random_wip_event(rng, day), rng.randint(0, 90))
            docs.append(Doc(story, emb.embed(story.text), doc_id))
    return docs


def in_batches(rng: random.Random, docs, count: int):
    """``docs`` cut into ``count`` nonempty batches, in order."""
    cuts = [0, *sorted(rng.sample(range(1, len(docs)), count - 1)), len(docs)]
    return [docs[a:b] for a, b in zip(cuts, cuts[1:])]


def test_date_ordered_index_matches_oracle_over_batches_out_of_order():
    """Batches arrive out of date and doc_id order, then add_story adds one
    more; the rows stay sorted by (date, doc_id), and every retrieval, as of a
    stored date, a day between or a day before or after them all, is the oracle's."""
    emb = DeterministicEmbedder()
    for trial in range(12):
        rng = random.Random(3000 + trial)
        docs = shuffled_corpus(rng, emb, rng.randint(20, 90))
        index = StoryIndex(provider=emb)
        for batch in in_batches(rng, docs, rng.randint(2, 6)):
            add_docs(index, batch)
        extra = render_contextual_story(random_wip_event(rng, date(2024, 1, 15)), 12)
        docs.append(Doc(extra, emb.embed(extra.text), index.add_story(extra)))
        assert docs[-1].doc_id == max(doc.doc_id for doc in docs[:-1]) + 1

        _, _, dates, ids = rows_of(index)
        rows = list(zip(dates.tolist(), ids.tolist()))
        assert rows == sorted((doc.story.date.toordinal(), doc.doc_id) for doc in docs)
        stored = sorted({doc.story.date for doc in docs})
        days = {stored[0] - timedelta(days=1), stored[-1] + timedelta(days=1),
                date(2030, 1, 1), *rng.sample(stored, 4),
                *(stored[0] + timedelta(days=rng.randrange(40)) for _ in range(4))}
        for as_of in sorted(days):
            qvec = emb.embed(render_query_story(random_wip_event(rng, as_of)).text)
            k = rng.choice((1, 4, len(docs)))
            got = index.retrieve(qvec, as_of, k=k)
            want = oracle_retrieve(docs, qvec, as_of, k)
            assert [r.doc_id for r in got] == [doc_id for doc_id, _ in want]
            assert [r.similarity for r in got] == pytest.approx([s for _, s in want], abs=1e-9)


def test_readers_beside_a_writer_see_whole_batches():
    """While one thread adds batches out of date order, each concurrent
    retrieve is the oracle's over the docs of some whole prefix of the batches."""
    rng = random.Random(23)
    emb = DeterministicEmbedder()
    docs = shuffled_corpus(rng, emb, 240)
    batches = in_batches(rng, docs, 24)
    # as of a day after every story each prefix retrieves differently; as of a
    # day inside them, only rows kept in date order retrieve right
    days = (date(2024, 12, 31), date(2024, 1, 16))
    qvec = emb.embed(render_query_story(random_wip_event(rng, days[1])).text)
    prefixes = [sum(batches[:i], []) for i in range(len(batches) + 1)]
    allowed = {(as_of, tuple(doc_id for doc_id, _ in oracle_retrieve(prefix, qvec, as_of, len(docs))))
               for as_of in days for prefix in prefixes}
    assert len({hits for as_of, hits in allowed if as_of == days[0]}) == len(prefixes)
    live = [StoryIndex(provider=emb)]  # the index being written, a fresh one each round
    done, seen, errors = threading.Event(), [], []

    def read():
        try:
            while not done.is_set():
                for as_of in days:
                    hits = live[0].retrieve(qvec, as_of, k=len(docs))
                    seen.append((as_of, tuple(r.doc_id for r in hits)))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(3)]
    try:
        for t in readers:
            t.start()
        for _ in range(10):
            live[0] = StoryIndex(provider=emb)
            for batch in batches:
                add_docs(live[0], batch)
                time.sleep(0)
    finally:
        done.set()
        for t in readers:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert seen and set(seen) <= allowed


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
    assert [r.doc_id for r in short] == [r.doc_id for r in long[:4]]


def test_exact_ties_prefer_recent_then_small_id(monday_example):
    emb = DeterministicEmbedder()
    index = StoryIndex(provider=emb)
    # Same text embeds identically, forcing exact similarity ties.
    base = render_contextual_story(monday_example, 71)
    for doc_id, day in [(4, date(2024, 1, 1)), (1, date(2024, 1, 3)), (2, date(2024, 1, 3))]:
        story = type(base)(text=base.text, kind=base.kind, granularity=base.granularity,
                           date=day, target=base.target)
        add_docs(index, [Doc(story, emb.embed(story.text), doc_id)])
    results = index.retrieve(render_query_story(monday_example), date(2024, 2, 1), k=3)
    assert [r.doc_id for r in results] == [1, 2, 4]


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
    assert {r.doc_id for r in results} == set(range(100))


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
    a = [(r.doc_id, r.similarity) for r in index.retrieve(qvec, date(2024, 1, 9), k=5)]
    b = [(r.doc_id, r.similarity) for r in loaded.retrieve(qvec, date(2024, 1, 9), k=5)]
    assert a == b


def rows_of(index):
    """The index's row arrays, in row order: embeddings, norms, date ordinals, ids."""
    return index._state[:4]


def assert_same_index(a, b):
    assert list(a.documents().items()) == list(b.documents().items())
    for ra, rb in zip(rows_of(a), rows_of(b)):
        assert np.array_equal(ra, rb)
    assert (len(a), a.dim, newest_date(a)) == (len(b), b.dim, newest_date(b))


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
        as_of = newest_date(from_jsonl) - timedelta(days=rng.randint(-1, 40))
        query = render_query_story(random_wip_event(rng, as_of))
        k = rng.choice((1, 5, 12))
        got = from_sidecar.retrieve(query, as_of, k=k)
        assert got == from_jsonl.retrieve(query, as_of, k=k)  # similarities equal, not close


def test_sidecar_load_and_retrieve_build_no_story(run_dir, monkeypatch):
    """A hit is read straight off the columns: neither loading a snapshot nor
    retrieving from it builds a Story."""
    built = []
    real = Story.__post_init__

    def counted(story):
        built.append(story)
        real(story)

    monkeypatch.setattr(Story, "__post_init__", counted)
    monkeypatch.setattr(memory, "load_index", refuse_jsonl)
    index = load_snapshot(str(run_dir / "index_daily.jsonl"), provider=DeterministicEmbedder())
    assert len(index) > 30
    assert built == []
    query = "The WiP items opened at 12, reached a high of 14 and a low of 9, before closing at 11."
    results = index.retrieve(query, date.max, k=5)  # every row is eligible
    assert len(results) == 5
    assert built == []


def test_empty_snapshot_round_trips(tmp_path, monkeypatch):
    path = tmp_path / "index_daily.jsonl"
    assert save_snapshot(StoryIndex(), str(path)) == 0
    assert path.read_bytes() == b""
    with open(path, encoding="utf-8") as fh:
        assert len(load_index(fh)) == 0
    monkeypatch.setattr(memory, "load_index", refuse_jsonl)
    loaded = load_snapshot(str(path), provider=DeterministicEmbedder())
    assert (len(loaded), loaded.dim, newest_date(loaded)) == (0, None, None)
    assert loaded.retrieve("The WiP items opened at 3.", date(2030, 1, 1), k=5) == []


def test_a_truncated_sidecar_is_closed_before_the_jsonl_is_read(tmp_path):
    rng, emb = random.Random(8), DeterministicEmbedder()
    stories = [render_contextual_story(random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i)), i)
               for i in range(6)]
    index = StoryIndex()
    index.add_many(stories, emb.embed_many(s.text for s in stories))
    path = tmp_path / "index_daily.jsonl"
    save_snapshot(index, str(path))
    sidecar = tmp_path / "index_daily.npz"
    sidecar.write_bytes(sidecar.read_bytes()[:100])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_snapshot(str(path), provider=emb)
        gc.collect()
    assert_same_index(loaded, index)
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


class YieldingDict(OrderedDict):
    """Yields to other threads inside each membership test, where a check and
    the act on it would race without a lock."""

    def __contains__(self, key):
        found = super().__contains__(key)
        time.sleep(0.0002)
        return found


def test_concurrent_snapshot_loads_hold_at_most_four(tmp_path, monkeypatch):
    """Threads loading more snapshots than are held (one per granularity and the
    series), so held ones are evicted while others are reused, each get the rows
    of the file they asked for."""
    monkeypatch.setattr(memory, "_held", YieldingDict())
    rng, emb = random.Random(4), DeterministicEmbedder()
    sizes = {}
    for n in range(1, 6):
        stories = [render_contextual_story(random_wip_event(rng, date(2024, 1, 1) + timedelta(days=i)), i)
                   for i in range(n)]
        index = StoryIndex()
        index.add_many(stories, emb.embed_many(story.text for story in stories))
        path = str(tmp_path / f"index_{n}.jsonl")
        save_snapshot(index, path)
        sizes[path] = n
    wrong, errors = [], []

    def load(seed):
        pick = random.Random(seed)
        try:
            for _ in range(60):
                path = pick.choice(sorted(sizes))
                if len(load_snapshot(path)) != sizes[path]:
                    wrong.append(path)
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert (errors, wrong) == ([], [])
    assert len(memory._held) == len(GRANULARITIES) + 1 == 4


def test_add_many_matches_sequential_adds_with_duplicate_ids():
    """One batch equals single-row adds; a batch that repeats a doc_id, within
    itself or against the index, is rejected whole and leaves the index as it was."""
    rng = random.Random(23)
    emb = DeterministicEmbedder()
    docs = build_corpus(rng, 30, emb)
    ids = list(range(30))
    rng.shuffle(ids)
    one_by_one = StoryIndex(provider=emb)
    for doc, doc_id in zip(docs, ids):
        one_by_one.add_many([doc.story], [doc.embedding], [doc_id])
    batched = StoryIndex(provider=emb)
    batched.add_many([docs[0].story], [docs[0].embedding], ids[:1])  # a batch after an earlier one
    batched.add_many([d.story for d in docs[1:]], np.stack([d.embedding for d in docs[1:]]), ids[1:])
    assert_same_index(batched, one_by_one)

    as_of = date(2024, 2, 15)
    queries = [(as_of, emb.embed(render_query_story(random_wip_event(rng, as_of)).text))]
    before = index_state(one_by_one, queries)
    assert index_state(batched, queries) == before
    # newer than everything held, so a partial write would move the newest date
    late = build_corpus(rng, 3, emb, start=date(2024, 6, 1))
    stories, rows = [d.story for d in late], np.stack([d.embedding for d in late])
    for bad_ids, repeated in (([40, 41, 40], 40), ([40, ids[7], 41], ids[7])):
        with pytest.raises(ValueError, match=f"doc_id {repeated} "):
            batched.add_many(stories, rows, bad_ids)
        assert index_state(batched, queries) == before
        assert_same_index(batched, one_by_one)
    assert batched.add_story(docs[1].story) == 30


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
    stories = list(index.documents().values())
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


@pytest.mark.parametrize("target, doc_id, want", [
    (math.nan, 1, "target nan of the story dated 2024-03-04 is not finite"),
    (-math.inf, 1, "target -inf of the story dated 2024-03-04 is not finite"),
    (71.0, 2**70, "a doc_id is out of the 64-bit range"),  # was an OverflowError
])
def test_add_many_rejects_rows_out_of_range(monday_example, target, doc_id, want):
    index = StoryIndex()
    index.add_many([render_contextual_story(monday_example, 72)], np.ones((1, 8)))
    story = replace(render_contextual_story(monday_example, 71), target=target)
    with pytest.raises(ValueError, match=re.escape(want)):
        index.add_many([story], np.ones((1, 8)), doc_ids=[doc_id])
    assert len(index) == 1


# --- remote embedder retries ---


class EmbedResponse:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body
        self.text = f"{status_code} body"

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
    monkeypatch.setattr(time, "sleep", waited.append)
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


@pytest.mark.parametrize("error", [requests.exceptions.MissingSchema("No scheme supplied"),
                                   requests.exceptions.InvalidSchema("No connection adapters"),
                                   requests.exceptions.InvalidURL("No host supplied")],
                         ids=lambda e: type(e).__name__)
def test_remote_embedder_does_not_retry_a_request_that_cannot_be_sent(error, sleeps):
    session = EmbedSession([error, _vectors(1)])
    with pytest.raises(EmbeddingError, match="invalid request"):
        RemoteEmbedder("http://embed.test", session=session).embed_many(["a"])
    assert session.posts == 1
    assert sleeps == []


@pytest.mark.parametrize("body", [
    None, {"nope": []}, {"data": [{"vector": [1.0]}]}, {"data": [{"embedding": "x"}]},
    {"data": [{"embedding": 0.5}]}, {"data": [{"embedding": [[1, 2]]}]}, {"data": [{"embedding": []}]},
    {"data": [{"embedding": [1.0, True]}]}, {"data": [{"embedding": [1.0, 2.0]}, {"embedding": [1.0]}]},
])
def test_remote_embedder_does_not_retry_malformed_payload(body, sleeps):
    # One text per returned row, so the ragged rows pass the count check.
    texts = ["a", "b"][:len(body["data"])] if body and "data" in body else ["a"]
    session = EmbedSession([EmbedResponse(body=body), _vectors(len(texts))])
    with pytest.raises(EmbeddingError, match="malformed"):
        RemoteEmbedder("http://embed.test", session=session).embed_many(texts)
    assert session.posts == 1

"""
Date-bounded story memory
=========================

Contextual stories go into a flat vector index; each one ends with the close
of the day after it. Retrieval embeds the query story, ranks everything by
cosine similarity, and - crucially - only ever returns stories dated strictly
before the current day. Today's own story ends with tomorrow's close, the
very value being forecast, so the memory can never leak the future into a
prediction.
"""

from wipcast import DeterministicEmbedder, StoryIndex
from wipcast.narrative import render_contextual_story, render_query_story
from wipcast.synthetic import synthetic_series

series = synthetic_series(n_days=45, seed=3)
events = series.events

index = StoryIndex(provider=DeterministicEmbedder())
for i in range(len(events) - 1):
    index.add_story(render_contextual_story(events[i], events[i + 1].close))
print(f"indexed {len(index)} contextual stories")

# forecast the day after events[40]: query with day 40, retrieve as of day 40
current = events[40]
query = render_query_story(current)
print(f"\nquery ({current.date}):\n  {query.text}")

results = index.retrieve(query, as_of=current.date, k=5)
print(f"\ntop {len(results)} similar past days (as of {current.date}):")
for r in results:
    print(f"  sim={r.similarity:.4f}  {r.date}  next close was {r.target:.0f}")

# every retrieved story predates the current day, so its next close is known
assert all(r.date < current.date for r in results)
print("\ncausality holds: every match is dated before the current day")

# shrink the as_of cutoff and the newest stories disappear from view
early = index.retrieve(query, as_of=events[10].date, k=5)
print(f"with an early cutoff ({events[10].date}) only "
      f"{len(early)} early stories are eligible:")
for r in early:
    print(f"  sim={r.similarity:.4f}  {r.date}")

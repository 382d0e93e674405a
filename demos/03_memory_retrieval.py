"""
Date-bounded story memory
=========================

Contextual stories go into a flat vector index. Retrieval embeds the query
story, ranks everything by cosine similarity, and - crucially - only ever
returns stories dated strictly before the forecast day, so the memory can
never leak the future into a prediction.
"""

from datetime import timedelta

from wipcast import DeterministicEmbedder, StoryIndex
from wipcast.narrative import render_contextual_story, render_query_story
from wipcast.synthetic import synthetic_series

series = synthetic_series(n_days=45, seed=3)
events = series.events

index = StoryIndex(provider=DeterministicEmbedder())
for i in range(len(events) - 1):
    index.add_story(render_contextual_story(events[i], events[i + 1].close))
print(f"indexed {len(index)} contextual stories")

# forecast the day after events[40]: query with day 40, retrieve as of day 41
current = events[40]
forecast_date = current.date + timedelta(days=1)
query = render_query_story(current)
print(f"\nquery ({current.date}):\n  {query.text}")

results = index.retrieve(query, as_of=forecast_date, k=5)
print(f"\ntop {len(results)} similar past days (as of {forecast_date}):")
for r in results:
    print(f"  sim={r.similarity:.4f}  {r.date}  next close was {r.target:.0f}")

# every retrieved story predates the forecast day
assert all(r.date < forecast_date for r in results)
print("\ncausality holds: every match is dated before the forecast day")

# shrink the as_of cutoff and the newest stories disappear from view
early = index.retrieve(query, as_of=events[10].date, k=5)
print(f"with an early cutoff ({events[10].date}) only "
      f"{len(early)} early stories are eligible:")
for r in early:
    print(f"  sim={r.similarity:.4f}  {r.date}")

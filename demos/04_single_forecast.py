"""
One day, three agents, one forecast
===================================

Three predictor agents each look at the same day through a different lens
(the day itself, the weekday-framed day, the trailing week), retrieve their
own nearest stories, and predict tomorrow's close. A trend analyst labels
the recent trajectory, and fusion combines everything: trend-weighted
averaging in rules mode; in react mode the chat backend reads the three
values and the trend, may retrieve past stories itself, and answers.
"""

from datetime import timedelta

from wipcast import (
    DeterministicEmbedder,
    StubBackend,
    fuse,
    predictor_predict,
    trend_analyze,
)
from wipcast.memory import build_indexes
from wipcast.narrative import query_story
from wipcast.synthetic import synthetic_series

series = synthetic_series(n_days=50, seed=5)
events = series.events
today = len(events) - 1
current = events[today]
forecast_date = current.date + timedelta(days=1)

# one index per granularity, filled with everything known so far
embedder = DeterministicEmbedder()
indexes = build_indexes(events, embedder, window=7)

# each agent frames today as its own query story and retrieves from its own
# index, as of today: today's own story ends with the close being forecast
backend = StubBackend()
preds = {}
for agent_id, index in indexes.items():
    query = query_story(events, today, agent_id, window=7).text
    retrieved = index.retrieve(query, as_of=current.date)
    preds[agent_id] = predictor_predict(agent_id, query, retrieved, float(current.close), backend)
print(f"forecasting {forecast_date} (today closed at {current.close})")
for name, p in preds.items():
    print(f"  {name:>8} agent: {p.value:.2f}  "
          f"(from {len(p.retrieved)} retrieved stories)")

trend = trend_analyze([ev.close for ev in events])
print(f"\ntrend analyst: {trend.label}  "
      f"(sma {trend.sma_first:.1f} -> {trend.sma_last:.1f}, "
      f"rc={trend.relative_change:+.3f})")
print(f'  "{trend.text}"')

rules = fuse(preds, trend, forecast_date)
print(f"\nrules fusion: {rules.final_value:.2f}")
print(f"  rationale: {rules.rationale}")

react = fuse(preds, trend, forecast_date, index=indexes["daily"], as_of=current.date,
             backend=backend, mode="react")
print(f"\nreact fusion: {react.final_value:.2f} (mode={react.mode})")
print(f"  rationale: {react.rationale}")

"""
Walk-forward evaluation
=======================

The harness moves the forecast origin day by day over one memory: each index
holds the whole series' stories, and every retrieval is cut off at the day
being forecast, so no agent ever sees a story dated on or after it. Besides
the fused forecast it records each agent alone (ablations)
and a persistence baseline, then writes predictions.csv, metrics.csv, and a
two-panel SVG report.
"""

import os

from wipcast import merge_traces, persistence_baseline, rolling_forecast, summarize
from wipcast.evaluation import default_split_date, emit_report
from wipcast.synthetic import synthetic_series

series = synthetic_series(n_days=90, seed=17)
split = default_split_date(series)  # last 20% of days held out
print(f"series: {len(series.events)} days, test starts after {split}")

result = rolling_forecast(series, split_date=split)
baseline = persistence_baseline(series, split_date=split)
trace = merge_traces(result.trace, baseline)

# the retrieval audit: the newest story each agent retrieved, step by step,
# is always dated before the day it forecast
newest = [{aid: max((r.date for r in pred.retrieved), default=None)
           for aid, pred in report.agent_predictions.items()} for report in result.reports]
first, last = result.reports[0], result.reports[-1]
print(f"\ndaily agent's newest retrieved story: {newest[0]['daily']} "
      f"for {first.date} ... {newest[-1]['daily']} for {last.date}")
assert all(day < report.date for report, days in zip(result.reports, newest) for day in days.values())
print(f"retrieval audit: no story dated at/after its forecast day in {len(result.reports)} steps")

print(f"\n{'source':<16} {'mape':>8} {'mae':>8} {'n':>4} {'skipped':>8}")
for s in summarize(trace):
    print(f"{s.source:<16} {s.mape:>8.2f} {s.mae:>8.2f} {s.n:>4} "
          f"{s.skipped_zero_actuals:>8}")

out_dir = os.path.join(os.path.dirname(__file__) or ".", "demo_out")
paths = emit_report(trace, out_dir, freeze_timestamps=True,
                    split_note=f"split={split}")
print()
for name, path in paths.items():
    print(f"wrote {name}: {path}")

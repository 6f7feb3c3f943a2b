"""The docs quote the committed artifacts.

Each passage below quotes one artifact in ``benchmarks/results``: every
speedup (``4.82×``) and every rate (``128,217.6 samples/s``) it carries
must be that artifact's, and every figure a table row quotes must be
its artifact's metric at the row's precision, so a regenerated artifact
or a hand-edited doc cannot drift apart unnoticed.
"""

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"

#: A speedup quote (``4.82×``, ``**6.0x**``, ``6x``), not a size (``8x128``).
SPEEDUP = re.compile(r"(?<![\w.])(\d+(?:\.\d+)?)\s?[x×](?!\w)")

#: A rate quote (``128,217.6 samples/s``, ``~730k samples/s``).
RATE = re.compile(r"(?<![\w.,])(\d[\d,]*(?:\.\d+)?)(k?) samples/s")

#: (doc, text that finds the passage, artifact, quoted figure): a
#: passage is the paragraph holding the text, or its row in a table.
PASSAGES = (
    ("docs/performance.md", "REPRO_BENCH_ENFORCE=1",
     "batch_feed_throughput", "speedup_target"),
    ("docs/performance.md", "| `PhaseSession.feed_batch`",
     "batch_feed_throughput", "speedup"),
    ("docs/performance.md", "| `evaluate_predictor_batch`",
     "batch_evaluator_throughput", "speedup"),
    ("docs/serving.md", "`PhaseSession.feed_batch` sustains",
     "batch_feed_throughput", "speedup"),
    ("README.md", "session feed throughput",
     "batch_feed_throughput", "speedup"),
)


#: (doc, pattern matching one table row, artifact, the ``metrics`` or
#: ``measured`` value each of the pattern's groups quotes): a quote
#: ending in ``%`` is the value as a percentage.
METRIC_ROWS = (
    ("EXPERIMENTS.md", r"\| (\d+) of 33 benchmarks in Q1 \|$",
     "fig03_quadrants", ("q1_count",)),
    ("EXPERIMENTS.md", r"\| (\d+) feasible of 110 grid coordinates \|$",
     "fig06_exploration_space", ("n_grid_configs",)),
    ("EXPERIMENTS.md", r"; ([\d.]+%) at \(UPC 0\.1, Mem/Uop 0\.0475\) \|$",
     "fig07_dvfs_invariance", ("heavy_config_upc_change",)),
    ("EXPERIMENTS.md", r"\| decision path ([\d.]+) µs on the 1-CPU baseline",
     "fig08_handler_overhead", ("mean_us_per_decision",)),
    ("EXPERIMENTS.md", r"\| ([\d.]+%) average power reduction \|$",
     "fig10_applu_full_system", ("power_savings",)),
    ("EXPERIMENTS.md", r"\| ([\d.]+%) \(≪ power savings\) \|$",
     "fig10_applu_full_system", ("performance_degradation",)),
    ("EXPERIMENTS.md", r"\| online GPHT accuracy \| [^|]+ \| (\d+%) \|$",
     "fig10_applu_full_system", ("prediction_accuracy",)),
    ("EXPERIMENTS.md", r"\| >60% \| ([\d.]+%) / ([\d.]+%) \|$",
     "fig11_dvfs_results", ("swim_edp_improvement", "mcf_edp_improvement")),
    ("EXPERIMENTS.md", r"\| ([\d.]+%) \(largest Q3, as in paper\) \|$",
     "fig11_dvfs_results", ("equake_edp_improvement",)),
    ("EXPERIMENTS.md", r"\| ([\d.]+%) EDP, ([\d.]+%) degradation \|$",
     "fig11_dvfs_results",
     ("mean_edp_improvement", "mean_performance_degradation")),
    ("EXPERIMENTS.md",
     r"\| GPHT ([\d.]+%) vs reactive ([\d.]+%); degradation comparable "
     r"\(([\d.]+%) vs ([\d.]+%)\) \|$",
     "fig12_gpht_vs_reactive",
     ("gpht_mean_edp_improvement", "reactive_mean_edp_improvement",
      "gpht_mean_degradation", "reactive_mean_degradation")),
)


def _printed(value, quote):
    """``value`` printed as ``quote`` prints its figure."""
    percent = quote.endswith("%")
    decimals = len(quote.rstrip("%").partition(".")[2])
    printed = f"{value * 100 if percent else value:.{decimals}f}"
    return printed + "%" if percent else printed


def _passage(text, anchor):
    for block in text.split("\n\n"):
        if anchor not in block:
            continue
        if block.lstrip().startswith("|"):
            return next(line for line in block.splitlines() if anchor in line)
        return block
    raise AssertionError(f"no passage holds {anchor!r}")


def test_docs_quote_the_committed_speedups():
    mismatches = []
    for doc, anchor, artifact, figure in PASSAGES:
        result = json.loads((RESULTS / f"{artifact}.json").read_text())
        measured = result["measured"]
        expected = (
            result["parameters"]["speedup_target"]
            if figure == "speedup_target"
            else measured["speedup"]
        )
        rates = {
            measured["scalar_samples_per_s"],
            measured["batch_samples_per_s"],
        }
        passage = _passage((REPO / doc).read_text(encoding="utf-8"), anchor)
        quoted = [float(value) for value in SPEEDUP.findall(passage)]
        if not quoted or any(value != expected for value in quoted):
            mismatches.append(
                f"{doc}: {anchor!r} quotes {quoted}x, {artifact} "
                f"{figure} is {expected}x"
            )
        for digits, thousands in RATE.findall(passage):
            rate = float(digits.replace(",", "")) * (1000 if thousands else 1)
            if rate not in rates:
                mismatches.append(
                    f"{doc}: {anchor!r} quotes {rate:,} samples/s, "
                    f"{artifact} has {sorted(rates)}"
                )
    assert mismatches == [], "\n".join(mismatches)


def test_doc_rows_quote_the_committed_metrics():
    mismatches = []
    for doc, pattern, artifact, metrics in METRIC_ROWS:
        text = (REPO / doc).read_text(encoding="utf-8")
        rows = re.findall(pattern, text, re.MULTILINE)
        assert len(rows) == 1, f"{doc}: {pattern!r} matches {len(rows)} rows"
        quotes = rows[0] if isinstance(rows[0], tuple) else (rows[0],)
        result = json.loads((RESULTS / f"{artifact}.json").read_text())
        values = {**result["metrics"], **result["measured"]}
        for quote, metric in zip(quotes, metrics):
            expected = _printed(values[metric], quote)
            if quote != expected:
                mismatches.append(
                    f"{doc}: quotes {quote}, {artifact} {metric} is {expected}"
                )
    assert mismatches == [], "\n".join(mismatches)

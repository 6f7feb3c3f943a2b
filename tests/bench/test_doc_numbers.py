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


#: (doc, pattern matching one table row or sentence, artifact, the value
#: each of the pattern's groups quotes): a name is a ``metrics`` or
#: ``measured`` value (``host.cpu_count`` a ``host`` value), a tuple is
#: a key path into ``details`` (a tuple because keys such as
#: ``VarWindow_128_0.005`` hold dots).  A quote ending in ``%`` is the
#: value as a percentage.
METRIC_ROWS = (
    ("EXPERIMENTS.md", r"\| (\d+) of 33 benchmarks in Q1 \|$",
     "fig03_quadrants", ("q1_count",)),
    ("EXPERIMENTS.md",
     r"\| ([\d.]+)× vs the best statistical predictor \(last value on all "
     r"six\), mean of per-benchmark misprediction ratios \|$",
     "fig04_prediction_accuracy", ("variable_misprediction_reduction",)),
    ("EXPERIMENTS.md",
     r"\| 64 entries \| [^|]+ \| applu ([\d.]+%)→([\d.]+%), "
     r"equake ([\d.]+%)→([\d.]+%) \|$",
     "fig05_pht_sweep",
     (("accuracy", "applu_in", "GPHT_8_128"),
      ("accuracy", "applu_in", "GPHT_8_64"),
      ("accuracy", "equake_in", "GPHT_8_128"),
      ("accuracy", "equake_in", "GPHT_8_64"))),
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
    ("EXPERIMENTS.md", r"\| swim \| both identical \| ([\d.]+%) vs ([\d.]+%) \|$",
     "fig12_gpht_vs_reactive",
     (("gpht", "swim_in", "edp_improvement"),
      ("reactive", "swim_in", "edp_improvement"))),
    ("EXPERIMENTS.md",
     r"\| mcf \| GPHT slightly better \| ([\d.]+%) vs ([\d.]+%) "
     r"\(within noise\) \|$",
     "fig12_gpht_vs_reactive",
     (("gpht", "mcf_inp", "edp_improvement"),
      ("reactive", "mcf_inp", "edp_improvement"))),
) + tuple(
    # Figure 13: measured degradation, EDP and (aggressive EDP).
    ("EXPERIMENTS.md",
     rf"\| {name} \| [\d.]+% \| ([\d.]+%) \| ([\d.]+%) \(([\d.]+%)\) \|$",
     "fig13_bounded_degradation",
     ((name, "performance_degradation"), (name, "edp_improvement"),
      (name, "aggressive_edp_improvement")))
    for name in ("mcf_inp", "applu_in", "equake_in", "swim_in", "mgrid_in")
) + (
    ("EXPERIMENTS.md",
     r"\| depth 1 collapses \(applu (\d+%)\); depth 4–8 is the plateau "
     r"\(applu (\d+%)/(\d+%)\); 16 gains nothing \|$",
     "ablation_gphr_depth",
     (("accuracy", "applu_in", "GPHT_1_1024"),
      ("accuracy", "applu_in", "GPHT_4_1024"),
      ("accuracy", "applu_in", "GPHT_8_1024"))),
    # The scale-out split, stamped with the host it was measured on.
    ("docs/serving.md",
     r"committed\s+run,\s+on\s+a\s+(\d+)-CPU\s+host,\s+1\s+worker\s+at\s+"
     r"batch\s+4096\s+serves\s+([\d.]+)×\s+its\s+batch-1\s+rate,\s+and\s+"
     r"2\s+and\s+4\s+workers\s+at\s+batch\s+4096\s+serve\s+([\d.]+)×\s+"
     r"and\s+([\d.]+)×\s+of\s+1\s+worker",
     "serve_scaleout",
     ("host.cpu_count", "speedup_batching", "speedup_workers_w2",
      "speedup_workers_w4")),
)


def _value(result, key):
    """The quoted value: a ``metrics``/``measured`` name, a ``host.``
    name or a ``details`` key path."""
    if isinstance(key, tuple):
        value = result["details"]
        for part in key:
            value = value[part]
        return value
    if key.startswith("host."):
        return result["host"][key[len("host."):]]
    return {**result["metrics"], **result["measured"]}[key]


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
        assert len(quotes) == len(metrics), pattern
        result = json.loads((RESULTS / f"{artifact}.json").read_text())
        for quote, metric in zip(quotes, metrics):
            expected = _printed(_value(result, metric), quote)
            if quote != expected:
                mismatches.append(
                    f"{doc}: quotes {quote}, {artifact} {metric} is {expected}"
                )
    assert mismatches == [], "\n".join(mismatches)

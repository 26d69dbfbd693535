"""tools/pairbench.py's gain rule and regression verdict, on synthetic runs.

Every performance claim and every no-regression check is read from the
lines this tool prints, so its two rules are pinned here: the gain rule
(the change wins at least 9 of every 10 pairs, ties counting for neither
side, and its median beats the base's by more than the base's
interquartile range) and the regression verdict per bounded metric
(within, worse, or unresolved when the base's spread is wider than the
bound, unless every change run beats every base run).  The tool is loaded
by path and no benchmark run is started.
"""
import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PAIRBENCH_PATH = os.path.join(ROOT, "tools", "pairbench.py")

# ten base runs around 10 with an interquartile range of about 0.05
BASE = [10.0, 10.03, 9.97, 10.05, 9.95, 10.01, 9.99, 10.02, 9.98, 10.04]


@pytest.fixture(scope="module")
def pairbench():
    spec = importlib.util.spec_from_file_location("tools_pairbench", PAIRBENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mirror(runs, sign):
    """runs for a lower-is-better metric (sign -1), or the same runs
    reflected about 20 for a higher-is-better one (sign +1)."""
    return list(runs) if sign < 0 else [20.0 - x for x in runs]


@pytest.mark.parametrize("sign", [-1, 1])
def test_verdict_within_worse_unresolved(pairbench, sign):
    base = _mirror(BASE, sign)
    # a bound of 0.25 allows the median to worsen by 2.5
    assert pairbench.verdict(base, _mirror([x + 1.0 for x in BASE], sign), sign, 0.25) == "within"
    assert pairbench.verdict(base, _mirror([x + 3.0 for x in BASE], sign), sign, 0.25) == "worse"
    assert pairbench.verdict(base, _mirror([x - 1.0 for x in BASE], sign), sign, 0.25) == "within"
    # a base spread (IQR 10) wider than the bound cannot tell
    wide = [5.0, 15.0] * 5
    assert pairbench.verdict(_mirror(wide, sign), _mirror([x + 0.5 for x in wide], sign),
                             sign, 0.25) == "unresolved"


@pytest.mark.parametrize("sign", [-1, 1])
def test_verdict_within_when_every_change_run_is_better(pairbench, sign):
    # the base's IQR (10) is wider than the allowed 2.5, but no change run
    # is as bad as the base's best
    wide = [5.0, 15.0] * 5
    change = [4.0 + 0.01 * k for k in range(10)]
    assert pairbench.verdict(_mirror(wide, sign), _mirror(change, sign), sign, 0.25) == "within"


def _rule(pairbench, base, change, sign):
    line = pairbench.summary("m", _mirror(base, sign), _mirror(change, sign), sign)
    won = re.search(r"won (\d+)/(\d+)", line)
    return int(won.group(1)), int(won.group(2)), re.search(r"rule (\w+)", line).group(1)


@pytest.mark.parametrize("sign", [-1, 1])
def test_gain_rule_needs_nine_of_ten_wins(pairbench, sign):
    better = [x - 1.0 for x in BASE]  # a median gap of 1, far above the IQR
    nine = better[:9] + [BASE[9] + 0.5]
    eight = better[:8] + [BASE[8] + 0.5, BASE[9] + 0.5]
    assert _rule(pairbench, BASE, better, sign) == (10, 10, "holds")
    assert _rule(pairbench, BASE, nine, sign) == (9, 10, "holds")
    assert _rule(pairbench, BASE, eight, sign) == (8, 10, "fails")


@pytest.mark.parametrize("sign", [-1, 1])
def test_gain_rule_counts_ties_for_neither_side(pairbench, sign):
    better = [x - 1.0 for x in BASE]
    assert _rule(pairbench, BASE, better[:9] + BASE[9:], sign) == (9, 10, "holds")
    assert _rule(pairbench, BASE, better[:8] + BASE[8:], sign) == (8, 10, "fails")


@pytest.mark.parametrize("sign", [-1, 1])
def test_gain_rule_needs_a_median_gap_above_the_base_iqr(pairbench, sign):
    # every pair won, by less than the base's own spread
    assert _rule(pairbench, BASE, [x - 0.01 for x in BASE], sign) == (10, 10, "fails")


def test_summary_ends_with_the_verdict_given_a_bound(pairbench):
    line = pairbench.summary("m", BASE, [x + 3.0 for x in BASE], -1, 0.25)
    assert line.endswith("bound 0.25 worse")
    assert "bound" not in pairbench.summary("m", BASE, BASE, -1)


def test_metrics_reads_directions_and_bounds_from_the_benchmark(pairbench):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sign, bound = pairbench.metrics()
    listed = spec["end_to_end"] + spec["per_layer"]
    assert sign == {m["name"]: 1 if m["better"] == "higher" else -1 for m in listed}
    assert bound == {m["name"]: m["bound"] for m in listed if "bound" in m}
    assert sign["op_rel_p50"] == -1 and sign["solver.accept_ratio"] == 1
    assert set(bound) == {"op_rel_p50", "setup_s", "peak_rss_mb"}

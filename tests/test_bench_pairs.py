"""tools/bench_pairs.py: its summary of paired runs, on fixed numbers,
without running the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

# ten pairs of a lower-is-better metric; the working tree loses pair 3 only
BASE = [1.00, 0.98, 1.02, 0.90, 1.01, 0.99, 1.03, 0.97, 1.00, 1.04]
WORK = [0.90, 0.89, 0.91, 0.95, 0.90, 0.88, 0.92, 0.89, 0.90, 0.91]


def test_claim_holds_on_nine_wins_and_a_gap_beyond_the_iqr():
    s = bench_pairs.summarise(BASE, WORK, "lower", 0.25)
    assert s["pairs"] == 10 and s["wins"] == 9
    assert s["base"] == pytest.approx([1.0, 0.9825, 1.0175])
    assert s["work"] == pytest.approx([0.9, 0.8925, 0.91])
    assert s["base_iqr"] == pytest.approx(0.035)
    assert s["rel"] == pytest.approx(-0.1)
    assert s["within_bound"] is True
    assert s["claim"] is True


def test_eight_wins_are_not_a_claim():
    work = list(WORK)
    work[0] = 1.01
    s = bench_pairs.summarise(BASE, work, "lower")
    assert s["wins"] == 8 and s["within_bound"] is None
    assert s["claim"] is False


def test_a_gap_within_the_iqr_is_not_a_claim():
    base = [1.0, 1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.25, 0.75, 1.0]
    work = [b - 0.01 for b in base]
    s = bench_pairs.summarise(base, work, "lower")
    assert s["wins"] == 10
    assert s["base"][0] - s["work"][0] < s["base_iqr"]
    assert s["claim"] is False


def test_higher_is_better_and_the_bound():
    s = bench_pairs.summarise(WORK, BASE, "higher", 0.05)
    assert s["wins"] == 9 and s["claim"] is True
    s = bench_pairs.summarise(BASE, WORK, "higher", 0.05)
    assert s["wins"] == 1 and s["claim"] is False
    assert s["within_bound"] is False  # 10 % lower, beyond a 5 % bound
    assert bench_pairs.summarise(BASE, WORK, "higher", 0.25)["within_bound"] is True


def test_unequal_sides_refused():
    with pytest.raises(ValueError, match="as many values on each side"):
        bench_pairs.summarise(BASE, WORK[:9])


def test_description_names_the_verdict():
    line = bench_pairs.describe("cpu_s", bench_pairs.summarise(BASE, WORK, "lower", 0.25))
    assert line == ("cpu_s: rev 1 [0.9825, 1.018], work 0.9 [0.8925, 0.91]; -10.0 %; "
                    "work better in 9/10 pairs; rev IQR 0.035; within its bound; "
                    "claim holds")

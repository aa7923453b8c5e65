"""scripts/bench.py: seed specs, the pairs-won count that decides perf claims, and the
traced run's top layers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


class TestParseSpec:
    def test_range(self):
        assert bench.parse_spec("joint:1-4") == ("joint", [1, 2, 3, 4])

    def test_single_seed(self):
        assert bench.parse_spec("oracle:7") == ("oracle", [7])

    @pytest.mark.parametrize("text", ["joint:3-1", "joint:x", "joint"])
    def test_rejects_an_empty_or_malformed_range(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            bench.parse_spec(text)


def pair(head, base):
    return {"head": {"metrics": {"m": head}}, "base": {"metrics": {"m": base}}}


class TestPairsWon:
    RUNS = [pair(2.0, 1.0), pair(3.0, 1.0), pair(1.0, 2.0), pair(5.0, 5.0)]

    @pytest.mark.parametrize(
        "better,won",
        [
            ("higher", {"head": 2, "base": 1, "tie": 1}),
            ("lower", {"head": 1, "base": 2, "tie": 1}),
        ],
    )
    def test_follows_the_direction_and_counts_ties_apart(self, better, won):
        summary = bench.summarize(self.RUNS, {"m": ("ms", better)})
        assert summary["pairs_won"]["m"] == won

    def test_reports_each_sides_quartiles(self):
        summary = bench.summarize(self.RUNS, {"m": ("ms", "lower")})
        assert summary["head"]["m"] == {"median": 2.5, "q1": 1.75, "q3": 3.5, "unit": "ms"}
        assert summary["base"]["m"]["median"] == 1.5


class TestTopLayers:
    @staticmethod
    def layer(name, self_s, calls=1):
        return {f"{name}.calls": calls, f"{name}.s": 2 * self_s, f"{name}.self_s": self_s}

    def test_keeps_the_most_self_time_first_and_cuts_at_the_count(self):
        metrics = {"gp.lml_per_hyperopt": 99.0, "harness.traced_wall_s": 50.0}
        for i in range(12):
            metrics.update(self.layer(f"layer{i:02d}", float(i), calls=i))
        top = bench.top_layers(metrics)
        assert [t["layer"] for t in top] == [f"layer{i:02d}" for i in range(11, 1, -1)]
        assert top[0] == {"layer": "layer11", "self_s": 11.0, "s": 22.0, "calls": 11}

    def test_equal_self_times_go_in_name_order(self):
        metrics = {**self.layer("b", 1.0), **self.layer("a", 1.0), **self.layer("c", 3.0)}
        assert [t["layer"] for t in bench.top_layers(metrics, count=3)] == ["c", "a", "b"]

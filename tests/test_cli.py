"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import _EXPERIMENTS, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(_EXPERIMENTS)


class TestRun:
    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_runs_stream_space(self, capsys):
        assert main(["run", "stream-space"]) == 0
        assert "Results 3-5" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeReplay:
    def test_replays_a_small_workload_and_prints_json(self, capsys):
        assert (
            main(
                [
                    "serve-replay",
                    "--size", "32",
                    "--block-edge", "4",
                    "--points", "8",
                    "--range-sums", "4",
                    "--regions", "4",
                    "--shards", "2",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["results_match"]
        assert report["config"]["queries"] == 16
        assert report["batched"]["dedup_ratio"] > 1.0
        assert (
            report["batched"]["block_reads"] <= report["naive"]["block_reads"]
        )
        assert "queries_served" in report["metrics"]["counters"]

import json

import pytest

from threecpt.latency import EmptyReportError, LatencyReport


class TestSamples:
    def test_two_frame_example(self):
        r = LatencyReport()
        r.add(40_000, 0)
        r.add(73_000, 33_333)
        assert r.samples_us == [40_000, 39_667]
        assert r.median_us == 39_833
        assert r.min_us == 39_667
        assert r.max_us == 40_000

    def test_single_sample_degenerate(self):
        r = LatencyReport(samples_us=[1234])
        assert r.min_us == r.median_us == r.p95_us == r.max_us == 1234

    def test_p95_nearest_rank(self):
        r = LatencyReport(samples_us=list(range(1, 101)))  # 1..100
        assert r.p95_us == 95

    def test_empty_report_raises(self):
        with pytest.raises(EmptyReportError):
            LatencyReport().summary()


class TestSerialization:
    def test_json_recomputable(self, tmp_path):
        r = LatencyReport(samples_us=[300, 100, 200, 500, 400])
        path = tmp_path / "lat.json"
        r.write_json(path)
        obj = json.loads(path.read_text())
        again = LatencyReport(samples_us=obj["samples_us"])
        assert again.samples_us == r.samples_us
        assert obj["median_us"] == again.median_us == 300
        assert obj["p95_us"] == 500
        assert obj["count"] == 5

    def test_summary_consistent_with_samples(self):
        import random

        rng = random.Random(3)
        samples = [rng.randrange(10_000, 90_000) for _ in range(300)]
        r = LatencyReport(samples_us=list(samples))
        s = r.summary()
        ordered = sorted(samples)
        assert s["min_us"] == ordered[0]
        assert s["max_us"] == ordered[-1]
        assert s["p95_us"] == ordered[284]  # ceil(0.95*300)-1

    def test_write_json_layout(self, tmp_path):
        path = tmp_path / "lat.json"
        LatencyReport(samples_us=[300, 100, 200, 500, 400]).write_json(path)
        assert path.read_text() == (
            "{\n"
            '  "samples_us": [\n'
            "    300,\n"
            "    100,\n"
            "    200,\n"
            "    500,\n"
            "    400\n"
            "  ],\n"
            '  "clock_note": "same-host timestamps; no clock offset applied",\n'
            '  "count": 5,\n'
            '  "min_us": 100,\n'
            '  "median_us": 300,\n'
            '  "p95_us": 500,\n'
            '  "max_us": 500\n'
            "}\n"
        )

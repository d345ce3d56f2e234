"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def engine_rows(text):
    """The ``repro trace`` engine table as ``{region: {column: number}}``."""
    lines = text.split("Evaluation-engine accounting\n")[1].split("\n\n")[0].splitlines()
    header = [c.strip() for c in lines[0].split("|")]
    rows = {}
    for line in lines[2:]:
        cells = [c.strip() for c in line.split("|")]
        rows[cells[0]] = {h: float(c) for h, c in zip(header[1:], cells[1:])}
    return rows


class TestInfoCommands:
    def test_kernels(self):
        code, text = run_cli("kernels")
        assert code == 0
        for name in ("mm", "dsyrk", "jacobi2d", "stencil3d", "nbody"):
            assert name in text

    def test_machines(self):
        code, text = run_cli("machines")
        assert code == 0
        assert "Westmere" in text and "Barcelona" in text
        assert "30M" in text and "2M" in text


class TestTune:
    def test_tune_kernel(self, tmp_path):
        json_path = tmp_path / "out.json"
        c_path = tmp_path / "out.c"
        code, text = run_cli(
            "tune", "mm",
            "--size", "N=300",
            "--machine", "barcelona",
            "--seed", "1",
            "--json", str(json_path),
            "--emit-c", str(c_path),
        )
        assert code == 0
        assert "mm on Barcelona" in text
        payload = json.loads(json_path.read_text())
        assert payload["kernel"] == "mm"
        assert payload["evaluations"] > 0
        assert len(payload["front"]) >= 1
        assert "mm_dispatch" in c_path.read_text()

    def test_tune_with_energy(self):
        code, text = run_cli("tune", "mm", "--size", "N=200", "--energy")
        assert code == 0

    def test_tune_random_optimizer(self):
        code, text = run_cli("tune", "mm", "--size", "N=200", "--optimizer", "random")
        assert code == 0

    def test_tune_file(self, tmp_path):
        src = tmp_path / "k.c"
        src.write_text(
            """
            void axpyish(int N, double A[N][N], double B[N][N]) {
                for (int i = 0; i < N; i++)
                    for (int j = 0; j < N; j++)
                        B[i][j] += 2.0 * A[i][j];
            }
            """
        )
        code, text = run_cli("tune-file", str(src), "--size", "N=2000")
        assert code == 0
        assert "axpyish" in text

    def test_tune_file_requires_sizes(self, tmp_path):
        src = tmp_path / "k.c"
        src.write_text("void f(int N, double A[N]) { A[0] = 1.0; }")
        with pytest.raises(SystemExit):
            run_cli("tune-file", str(src))

    def test_bad_size_format(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "mm", "--size", "N:300")

    def test_bad_size_value(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "mm", "--size", "N=abc")

    def test_unknown_kernel_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "nonexistent")

    def test_workers_and_engine_stats(self, tmp_path):
        json_path = tmp_path / "out.json"
        code, text = run_cli(
            "tune", "mm",
            "--size", "N=200",
            "--workers", "2",
            "--engine-stats",
            "--json", str(json_path),
        )
        assert code == 0
        assert "engine: workers=2" in text
        engine = json.loads(json_path.read_text())["engine"]
        assert engine["workers"] == 2
        assert engine["configs"] == engine["dispatched"] + engine["cache_hits"] + engine["deduped"]

    def test_workers_parallel_matches_serial(self, tmp_path):
        fronts = {}
        for workers in ("1", "4"):
            json_path = tmp_path / f"w{workers}.json"
            code, _ = run_cli(
                "tune", "mm", "--size", "N=200", "--seed", "3",
                "--workers", workers, "--json", str(json_path),
            )
            assert code == 0
            fronts[workers] = json.loads(json_path.read_text())
        assert fronts["1"]["front"] == fronts["4"]["front"]
        assert fronts["1"]["evaluations"] == fronts["4"]["evaluations"]

    def test_workers_auto_accepted(self):
        code, _ = run_cli("tune", "mm", "--size", "N=200", "--workers", "auto")
        assert code == 0

    def test_bad_workers_value(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "mm", "--workers", "some")
        with pytest.raises(SystemExit):
            run_cli("tune", "mm", "--workers", "0")


class TestReport:
    def test_report_to_file(self, tmp_path, monkeypatch):
        # shrink the report's problem size for test speed by reusing the
        # full pipeline (the report runs paper-scale mm; it is fast because
        # evaluation is the vectorized cost model)
        out_file = tmp_path / "report.md"
        code, text = run_cli("report", "--out", str(out_file), "--repetitions", "1")
        assert code == 0
        content = out_file.read_text()
        assert "Reproduction report" in content
        assert "mm on Westmere" in content and "mm on Barcelona" in content
        assert "RS-GDE3" in content
        assert "paper RS-GDE3" in content

    def test_report_to_stdout(self):
        code, text = run_cli("report", "--repetitions", "1")
        assert code == 0
        assert "Table VI" in text


class TestObservabilityCLI:
    def test_tune_trace_produces_end_to_end_jsonl(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        code, text = run_cli(
            "tune", "mm", "--size", "N=200", "--trace", str(trace_path)
        )
        assert code == 0
        assert f"wrote {trace_path}" in text

        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        meta = records[0]
        assert meta["type"] == "meta"
        assert (meta["kernel"], meta["command"]) == ("mm", "tune")
        span_names = {r["name"] for r in records if r["type"] == "span"}
        event_names = {r["name"] for r in records if r["type"] == "event"}
        # the three acceptance event/span families, all in one trace
        assert "optimizer.run" in span_names
        assert "engine.batch" in event_names
        assert "optimizer.generation" in event_names
        assert "runtime.selection" in event_names
        assert {"driver.analyze", "driver.optimize", "driver.finalize"} <= span_names

    def test_trace_subcommand_summarizes(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        run_cli("tune", "mm", "--size", "N=200", "--trace", str(trace_path))
        code, text = run_cli("trace", str(trace_path))
        assert code == 0
        assert "kernel=mm" in text
        assert "Phase breakdown" in text
        assert "Convergence trajectory" in text
        assert "Evaluation-engine accounting" in text
        assert "Runtime selection decisions" in text
        rows = engine_rows(text)
        assert set(rows) == {"-"}  # evaluate_batch carries no region label
        assert rows["-"]["configs"] > 0 and rows["-"]["disk_hits"] == 0

    def test_warm_cache_trace_shows_disk_hits(self, tmp_path):
        cache = tmp_path / "cache"
        run_cli("tune", "mm", "--size", "N=200", "--cache-dir", str(cache))
        trace_path = tmp_path / "warm.jsonl"
        run_cli(
            "tune", "mm", "--size", "N=200", "--cache-dir", str(cache),
            "--trace", str(trace_path),
        )
        code, text = run_cli("trace", str(trace_path))
        assert code == 0
        row = engine_rows(text)["-"]
        assert row["disk_hits"] > 0 and row["dispatched"] == 0
        assert row["configs"] == (
            row["cache_hits"] + row["deduped"] + row["disk_hits"] + row["shared_hits"]
        )

    def test_tune_metrics_prints_exposition(self):
        code, text = run_cli("tune", "mm", "--size", "N=200", "--metrics")
        assert code == 0
        assert "# TYPE repro_engine_batches_total counter" in text
        assert "repro_optimizer_generations_total" in text
        assert "repro_runtime_selections_total" not in text  # no tracing, no preview

    def test_trace_missing_file_clean_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("trace", str(tmp_path / "absent.jsonl"))
        message = str(exc_info.value)
        assert "cannot read trace file" in message
        assert "Traceback" not in message

    def test_trace_corrupt_file_clean_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "meta", "format": 1}\n{oops\n')
        with pytest.raises(SystemExit) as exc_info:
            run_cli("trace", str(bad))
        assert "line 2" in str(exc_info.value)

    def test_trace_flag_unwritable_path_fails_before_run(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(
                "tune", "mm", "--size", "N=200",
                "--trace", str(tmp_path / "no" / "dir" / "t.jsonl"),
            )
        assert "cannot write trace file" in str(exc_info.value)


class TestReportTelemetry:
    def test_report_includes_engine_and_convergence(self, tmp_path):
        out_file = tmp_path / "report.md"
        code, _ = run_cli("report", "--out", str(out_file), "--repetitions", "1")
        assert code == 0
        content = out_file.read_text()
        assert "Evaluation engine (workers=1):" in content
        assert "batches=" in content and "cache_hits=" in content
        assert "Convergence trajectory (RS-GDE3, repetition 0)" in content
        # the trajectory table has a generation-0 row and at least one more
        section = content.split("Convergence trajectory", 1)[1]
        rows = [
            line for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| generation")
        ]
        assert len(rows) >= 2
        first = rows[0].split("|")
        assert first[1].strip() == "0"  # generation 0 kept by the subsample


class TestMultiRegionCLI:
    TWIN = """
    void twins(int N, double A[N][N], double B[N][N]) {
        for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
                B[i][j] += 2.0 * A[i][j];
        for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
                B[i][j] += 2.0 * A[i][j];
    }
    """

    def test_tune_multiregion_kernel(self, tmp_path):
        json_path = tmp_path / "mr.json"
        code, text = run_cli(
            "tune", "jacobi2d",
            "--multiregion",
            "--size", "N=500", "--size", "T=5",
            "--workers", "4",
            "--engine-stats",
            "--json", str(json_path),
        )
        assert code == 0
        assert "2 regions" in text
        assert "program runs" in text
        assert "shared_hits" in text
        payload = json.loads(json_path.read_text())
        assert payload["multiregion"] is True
        assert payload["program_runs"] > 0
        assert len(payload["regions"]) == 2
        assert all(r["evaluations"] > 0 for r in payload["regions"])
        eng = payload["engine"]
        assert eng["configs"] == (
            eng["dispatched"] + eng["cache_hits"] + eng["deduped"]
            + eng["disk_hits"] + eng["shared_hits"]
        )

    def test_tune_file_multiregion_shares_across_twins(self, tmp_path):
        src = tmp_path / "twins.c"
        src.write_text(self.TWIN)
        json_path = tmp_path / "mr.json"
        code, text = run_cli(
            "tune-file", str(src),
            "--multiregion", "--pipeline",
            "--size", "N=500",
            "--workers", "4",
            "--json", str(json_path),
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["pipeline"] is True
        assert payload["engine"]["shared_hits"] > 0

    def test_multiregion_trace(self, tmp_path):
        trace = tmp_path / "mr.jsonl"
        code, _ = run_cli(
            "tune", "jacobi2d",
            "--multiregion",
            "--size", "N=500", "--size", "T=5",
            "--trace", str(trace),
        )
        assert code == 0
        code, text = run_cli("trace", str(trace))
        assert code == 0
        # one engine table, one row per region
        assert "Cross-region scheduler" not in text
        rows = engine_rows(text)
        assert set(rows) == {"0", "1"}
        for row in rows.values():
            assert row["configs"] == (
                row["dispatched"] + row["cache_hits"] + row["deduped"]
                + row["disk_hits"] + row["shared_hits"]
            )

    def test_multiregion_engine_rows_sum_to_folded_counters(self, tmp_path):
        """The per-region engine table and the folded engine counters come
        from the same events and the same FOLDS entries, so the regions'
        rows add up to each counter."""
        from repro.obs import fold, load_trace
        from repro.obs.metrics import FOLDS

        trace = tmp_path / "mr.jsonl"
        run_cli("tune", "jacobi2d", "--multiregion", "--trace", str(trace))
        _, text = run_cli("trace", str(trace))
        rows = engine_rows(text)
        assert set(rows) == {"0", "1"}
        metrics = fold(load_trace(trace)).as_dict()
        counters = [
            (attr, name) for kind, attr, name, _ in FOLDS["engine.batch"]
            if kind == "counter"
        ]
        assert len(counters) == 9
        for attr, name in counters:
            assert sum(row[attr] for row in rows.values()) == metrics[name], name
        assert metrics["repro_engine_configs_total"] > 0

    def test_pipeline_requires_multiregion(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "jacobi2d", "--pipeline")

    def test_multiregion_rejects_energy(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "jacobi2d", "--multiregion", "--energy")

    def test_multiregion_rejects_emit_c(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(
                "tune", "jacobi2d", "--multiregion",
                "--emit-c", str(tmp_path / "x.c"),
            )

    def test_multiregion_rejects_other_optimizers(self):
        with pytest.raises(SystemExit):
            run_cli("tune", "jacobi2d", "--multiregion", "--optimizer", "nsga2")

    def test_tune_file_multiregion_requires_sizes(self, tmp_path):
        src = tmp_path / "twins.c"
        src.write_text(self.TWIN)
        with pytest.raises(SystemExit):
            run_cli("tune-file", str(src), "--multiregion")

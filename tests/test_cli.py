import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bhdimer import cli
from bhdimer.cli import (
    CSV_HEADER,
    PRESETS,
    ScenarioSpec,
    main,
    parse_ratio,
    read_series,
    realize_ratio,
    run_scenario,
    sweep,
)
from bhdimer.model import CouplingConfig

FLOAT_12_SIG = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def small_spec(tmp_path=None, fmt="csv", **overrides):
    base = dict(
        config=CouplingConfig(8, k=1.0, delta_mu=0.0, e_j=4.0),
        initial="fock:8,0",
        t_max=12.0,
        steps=400,
        window=21,
        out=None if tmp_path is None else tmp_path / f"run.{fmt}",
        fmt=fmt,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestParseRatio:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("0.25", 0.25),
            ("1e-4", 1e-4),
            ("1/N", 0.01),
            ("4/N", 0.04),
            ("1/N^2", 1e-4),
            ("1/N**2", 1e-4),
            ("N", 100.0),
            ("N^2", 10000.0),
            ("2*N", 200.0),
            ("3*N^2", 30000.0),
        ],
    )
    def test_tokens(self, token, expected):
        assert parse_ratio(token, 100) == pytest.approx(expected, rel=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_ratio("x/N", 100)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_ratio("1/N", 0)


class TestRealizeRatio:
    def test_small_ratio_fixes_k(self):
        assert realize_ratio(0.25) == (1.0, 4.0)

    def test_large_ratio_fixes_ej(self):
        assert realize_ratio(4.0) == (4.0, 1.0)

    def test_unity(self):
        assert realize_ratio(1.0) == (1.0, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            realize_ratio(bad)


class TestScenarioSpec:
    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            small_spec(steps=1)

    def test_nonpositive_t_max_rejected(self):
        with pytest.raises(ValueError):
            small_spec(t_max=0.0)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            small_spec(fmt="xml")

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            small_spec(window=10)

    def test_initial_must_match_n(self):
        with pytest.raises(ValueError):
            small_spec(initial="fock:9,0")

    @pytest.mark.parametrize(
        "thetas",
        [
            dict(theta_c=0.0),
            dict(theta_c=1.0),
            dict(theta_c=2.0),
            dict(theta_c=math.nan),
            dict(theta_r=0.0),
            dict(theta_r=1.5),
            dict(theta_r=math.nan),
        ],
    )
    def test_thresholds_out_of_range_rejected(self, thetas):
        with pytest.raises(ValueError, match="theta_"):
            small_spec(**thetas)

    def test_theta_r_one_accepted(self):
        assert small_spec(theta_r=1.0).theta_r == 1.0


class TestRunScenario:
    def test_csv_shape_and_format(self, tmp_path):
        spec = small_spec(tmp_path)
        series, summary = run_scenario(spec)
        text = spec.out.read_bytes().decode()
        assert b"\r" not in spec.out.read_bytes()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == spec.steps + 1
        for cell in lines[1].split(",") + lines[-1].split(","):
            assert FLOAT_12_SIG.match(cell), cell
        assert summary["regime"]["phase"] == "delocalized"

    def test_csv_round_trip_full_printed_precision(self, tmp_path):
        spec = small_spec(tmp_path)
        series, _ = run_scenario(spec)
        back = read_series(spec.out)
        for name in ("t", "imbalance", "variance", "entanglement_bits", "energy"):
            printed = np.array([float(f"{v:.11e}") for v in getattr(series, name)])
            np.testing.assert_array_equal(getattr(back, name), printed)

    def test_json_round_trip_exact(self, tmp_path):
        spec = small_spec(tmp_path, fmt="json")
        series, _ = run_scenario(spec)
        back = read_series(spec.out)
        for name in back.COLUMNS:
            np.testing.assert_array_equal(getattr(back, name), getattr(series, name))

    @pytest.mark.parametrize(
        "layout",
        [
            lambda payload: json.dumps(payload),
            lambda payload: json.dumps(
                {"spec": payload["spec"], "summary": payload["summary"]}, indent=2
            )
            + "\n",
            lambda payload: json.dumps(payload, indent=2) + "\n{}\n",
            lambda payload: json.dumps(
                dict(payload, series=[{"t": 0.0}] + payload["series"]), indent=2
            )
            + "\n",
        ],
        ids=["compact", "no-series", "trailing-data", "row-missing-key"],
    )
    def test_json_read_back_requires_the_written_layout(self, tmp_path, layout):
        spec = small_spec(tmp_path, fmt="json")
        run_scenario(spec)
        bad = tmp_path / "bad.json"
        bad.write_text(layout(json.loads(spec.out.read_text())))
        with pytest.raises(ValueError, match="bad.json"):
            read_series(bad)

    @pytest.mark.filterwarnings("ignore:loadtxt")
    @pytest.mark.parametrize(
        "body",
        ["1.0\n" * 14, ",".join(["1.0"] * 14) + "\n", ""],
        ids=["one-per-line", "fourteen-per-line", "header-only"],
    )
    def test_csv_read_back_requires_seven_columns(self, tmp_path, body):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + body)
        with pytest.raises(ValueError, match="bad.csv"):
            read_series(bad)

    def test_json_structure(self, tmp_path):
        spec = small_spec(tmp_path, fmt="json")
        run_scenario(spec)
        payload = json.loads(spec.out.read_text())
        assert set(payload) == {"spec", "summary", "series"}
        assert payload["spec"]["n_total"] == 8
        assert payload["spec"]["initial"] == "fock:8,0"
        assert len(payload["series"]) == spec.steps
        assert "collapse_revival" in payload["summary"]
        assert "envelope" in payload["summary"]["collapse_revival"]

    def test_csv_summary_sidecar(self, tmp_path):
        spec = small_spec(tmp_path)
        run_scenario(spec)
        sidecar = tmp_path / "run.summary.json"
        payload = json.loads(sidecar.read_text())
        assert set(payload) == {"spec", "summary"}
        assert payload["summary"]["regime"]["ratio"] == pytest.approx(0.25)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec_a = small_spec(tmp_path)
        run_scenario(spec_a)
        first = spec_a.out.read_bytes()
        spec_b = small_spec(tmp_path)
        run_scenario(spec_b)
        assert spec_b.out.read_bytes() == first

    def test_empty_system_single_zero_row(self, tmp_path):
        spec = ScenarioSpec(
            config=CouplingConfig(0, k=1.0, delta_mu=0.5, e_j=1.0),
            initial="fock:0,0",
            t_max=10.0,
            steps=100,
            out=tmp_path / "empty.csv",
        )
        series, summary = run_scenario(spec)
        assert len(series) == 1
        assert (
            series.t[0],
            series.imbalance[0],
            series.imbalance_scaled[0],
            series.variance[0],
            series.entanglement_bits[0],
            series.energy[0],
        ) == (0.0,) * 6
        assert summary["collapse_revival"]["reason"] == "series_too_short"
        assert len(spec.out.read_text().splitlines()) == 2


    def test_bad_theta_is_not_reported_as_short_series(self):
        # A long enough series with an out-of-range threshold once came back
        # as "series_too_short" with a zero exit.
        with pytest.raises(ValueError, match="theta_c"):
            run_scenario(
                small_spec(
                    config=CouplingConfig(20, k=1.0, e_j=1.0),
                    initial="fock:20,0",
                    steps=2000,
                    theta_c=2.0,
                )
            )

    def test_short_series_reported(self):
        _, summary = run_scenario(small_spec(steps=50, window=21))
        assert summary["collapse_revival"]["reason"] == "series_too_short"

    def test_detector_errors_propagate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("detector fault")

        monkeypatch.setattr(cli, "collapse_revival_time", fail)
        with pytest.raises(ValueError, match="detector fault"):
            run_scenario(small_spec())


class TestSweep:
    def test_degenerate_sweep_matches_single_run(self, tmp_path):
        base = small_spec()
        single = small_spec(tmp_path / "single", t_max=12.0)
        run_scenario(single)
        summary = sweep(base, ["0.25"], ["fock:8,0"], out_dir=tmp_path / "sweepdir")
        (cell,) = summary["cells"]
        assert cell["status"] == "ok"
        cell_file = tmp_path / "sweepdir" / cell["file"]
        assert cell_file.read_bytes() == single.out.read_bytes()

    def test_cell_failure_recorded_without_aborting(self, tmp_path):
        base = small_spec()
        summary = sweep(
            base,
            ["0.25", "4"],
            ["fock:8,0", "fock:5,0"],  # second initial has the wrong N
            out_dir=tmp_path,
        )
        by_key = {(c["ratio"], c["initial"]): c for c in summary["cells"]}
        assert len(by_key) == 4
        good = by_key[("0.25", "fock:8,0")]
        bad = by_key[("0.25", "fock:5,0")]
        assert good["status"] == "ok"
        assert bad["status"] == "error" and "fixes N" in bad["error"]
        combined = json.loads((tmp_path / "summary.json").read_text())
        assert len(combined["cells"]) == 4

    def test_parallel_matches_serial(self, tmp_path):
        base = small_spec()
        serial = sweep(base, ["0.25", "1"], ["cat", "me"], out_dir=tmp_path / "s", jobs=1)
        parallel = sweep(base, ["0.25", "1"], ["cat", "me"], out_dir=tmp_path / "p", jobs=4)
        for cs, cp in zip(serial["cells"], parallel["cells"]):
            assert (cs["ratio"], cs["initial"]) == (cp["ratio"], cp["initial"])
            assert (tmp_path / "s" / cs["file"]).read_bytes() == (
                tmp_path / "p" / cp["file"]
            ).read_bytes()

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_spec(), [], ["cat"])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_sweep_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            sweep(small_spec(), ["0.25"], ["cat"], jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_program_fault_propagates(self, monkeypatch, jobs):
        def fault(spec):
            raise TypeError("program fault")

        monkeypatch.setattr(cli, "run_scenario", fault)
        with pytest.raises(TypeError, match="program fault"):
            sweep(small_spec(), ["0.25", "1"], ["cat"], jobs=jobs)


class TestMain:
    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_missing_couplings_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "10"])
        assert exc.value.code == 2

    def test_ratio_conflicts_with_absolute_couplings(self):
        with pytest.raises(SystemExit) as exc:
            main(["--ratio", "1", "--k", "1", "--ej", "1"])
        assert exc.value.code == 2

    def test_bad_initial_returns_error(self, capsys):
        rc = main(["--n", "10", "--ratio", "1", "--initial", "fock:3,3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--theta-c", "2.0"],
            ["--theta-r", "0"],
            ["--theta-c", "2.0", "--initials", "fock:20,0;cat"],
        ],
    )
    def test_bad_threshold_returns_error(self, capsys, extra):
        rc = main(["--n", "20", "--ratio", "1", "--steps", "2000", *extra])
        assert rc == 2
        assert "theta_" in capsys.readouterr().err

    def test_single_run_prints_summary(self, tmp_path, capsys):
        rc = main(
            [
                "--n", "8",
                "--ratio", "0.25",
                "--t-max", "12",
                "--steps", "400",
                "--window", "21",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["regime"]["regime"] == "rabi_josephson_crossover"
        assert summary["regime"]["ratio"] == pytest.approx(0.25)
        assert (tmp_path / "out.csv").exists()

    def test_fig_rabi_preset_revives_at_4pi(self, tmp_path, capsys):
        rc = main(["--preset", "fig-rabi", "--out", str(tmp_path / "rabi.json"), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "rabi.json").read_text())
        t_cr = payload["summary"]["collapse_revival"]["t_cr"]
        assert t_cr == pytest.approx(4.0 * math.pi, rel=0.05)
        assert payload["spec"]["e_j"] == 10000.0
        assert payload["spec"]["steps"] == 12000

    def test_fig_selftrap_preset_traps_low_mode(self, tmp_path, capsys):
        rc = main(["--preset", "fig-selftrap", "--out", str(tmp_path / "trap.csv")])
        assert rc == 0
        sidecar = json.loads((tmp_path / "trap.summary.json").read_text())
        assert sidecar["summary"]["time_averages"]["imbalance_scaled"] < -0.5
        assert sidecar["spec"]["initial"] == "fock:0,100"

    def test_sweep_preset_runs_all_cells(self, tmp_path, capsys):
        rc = main(
            [
                "--preset", "fig-threshold-scan",
                "--n", "8",
                "--t-max", "12",
                "--steps", "400",
                "--window", "21",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        combined = json.loads((tmp_path / "summary.json").read_text())
        assert len(combined["cells"]) == 8
        assert all(c["status"] == "ok" for c in combined["cells"])
        table = capsys.readouterr().out
        assert table.count("ratio=") == 8

    def test_sweep_flags_trigger_sweep(self, tmp_path):
        rc = main(
            [
                "--n", "8",
                "--ratios", "0.25,1",
                "--initials", "fock:8,0;cat",
                "--t-max", "12",
                "--steps", "400",
                "--window", "21",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        combined = json.loads((tmp_path / "summary.json").read_text())
        assert {(c["ratio"], c["initial"]) for c in combined["cells"]} == {
            ("0.25", "fock:8,0"),
            ("0.25", "cat"),
            ("1", "fock:8,0"),
            ("1", "cat"),
        }

    def test_sweep_with_failing_cell_returns_nonzero(self, tmp_path):
        rc = main(
            [
                "--n", "8",
                "--ratios", "0.25",
                "--initials", "fock:8,0;fock:4,0",
                "--t-max", "12",
                "--steps", "400",
                "--window", "21",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["--n", "4", "--ratios", "1,2", "--jobs", "-3", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "jobs" in err
        assert list(tmp_path.iterdir()) == []


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in output")


def _poison(monkeypatch, where):
    """Put one NaN into the reduced series or into the envelope."""
    if where == "series":
        real = cli.reduce_blocks

        def poisoned(*args):
            series = real(*args)
            variance = series.variance.copy()
            variance[len(variance) // 2] = math.nan
            return dataclasses.replace(series, variance=variance)

        monkeypatch.setattr(cli, "reduce_blocks", poisoned)
    else:
        real = cli.collapse_revival_time

        def poisoned(*args, **kwargs):
            report = real(*args, **kwargs)
            envelope = report.envelope.copy()
            envelope[-1, 1] = math.nan
            return dataclasses.replace(report, envelope=envelope)

        monkeypatch.setattr(cli, "collapse_revival_time", poisoned)


class TestNonFiniteOutput:
    def test_phase_overflow_is_a_usage_error(self, capsys):
        # k = 1e306 keeps H finite, but max|lambda| * t_max overflows.
        rc = main(["--n", "20", "--k", "1e306", "--ej", "1", "--steps", "200"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "error:" in err and "not finite" in err

    def test_phase_overflow_fails_only_its_sweep_cell(self, tmp_path):
        summary = sweep(small_spec(), ["1e307", "0.25"], ["fock:8,0"], out_dir=tmp_path)
        bad, good = summary["cells"]
        assert bad["status"] == "error" and "not finite" in bad["error"]
        assert good["status"] == "ok"
        json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject_constant)

    def test_summary_maps_non_finite_values_to_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "time_averaged_imbalance", lambda t, x: math.nan)
        spec = small_spec(tmp_path, fmt="json")
        _, summary = run_scenario(spec)
        assert summary["time_averages"] == {
            "imbalance_scaled": None,
            "variance": None,
            "entanglement_bits": None,
        }
        payload = json.loads(spec.out.read_text(), parse_constant=_reject_constant)
        assert payload["summary"]["time_averages"]["variance"] is None

    def test_summary_reports_truncation(self):
        _, summary = run_scenario(small_spec(initial="cat"))
        diag = summary["diagnostics"]
        assert isinstance(diag["kept_components"], int)
        assert 1 <= diag["kept_components"] <= 5  # even sector of N = 8
        assert 0.0 <= diag["dropped_weight"] <= 1e-28

    @pytest.mark.parametrize("where", ["series", "envelope"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_series_refused_before_any_file(self, tmp_path, monkeypatch, where, fmt):
        _poison(monkeypatch, where)
        with pytest.raises(ValueError, match="non-finite"):
            run_scenario(small_spec(tmp_path / "out", fmt=fmt))
        assert not (tmp_path / "out").exists()

    def test_non_finite_series_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        _poison(monkeypatch, "series")
        rc = main(["--n", "8", "--ratio", "0.25", "--steps", "400", "--window", "21",
                   "--out", str(tmp_path / "run.json"), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "error:" in err and "non-finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_series_fails_only_its_sweep_cell(self, tmp_path, monkeypatch):
        _poison(monkeypatch, "series")
        summary = sweep(small_spec(), ["0.25"], ["fock:8,0", "cat"], out_dir=tmp_path)
        assert [c["status"] for c in summary["cells"]] == ["error", "error"]
        assert all("non-finite" in c["error"] for c in summary["cells"])
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
        json.loads((tmp_path / "summary.json").read_text(), parse_constant=_reject_constant)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli_without_warnings(self, tmp_path):
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bhdimer", "--list-presets"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "fig-rabi" in proc.stdout


def _oracle(spec, series, summary) -> dict:
    """File name -> text that the stdlib encoders give for one run: one
    f"{v:.11e}" per CSV value, json.dumps(indent=2) for every JSON file."""
    rows = list(zip(*(getattr(series, name) for name in series.COLUMNS)))
    payload = {"spec": cli._scenario_dict(spec), "summary": summary}
    if spec.fmt == "csv":
        lines = [CSV_HEADER, *(",".join(f"{v:.11e}" for v in row) for row in rows)]
        return {
            spec.out.name: "\n".join(lines) + "\n",
            spec.out.stem + ".summary.json": json.dumps(payload, indent=2) + "\n",
        }
    payload["series"] = [dict(zip(series.COLUMNS, map(float, row))) for row in rows]
    return {spec.out.name: json.dumps(payload, indent=2) + "\n"}


def _written(directory) -> dict:
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def _assert_matches_oracle(spec, series, summary):
    expected = {name: text.encode() for name, text in _oracle(spec, series, summary).items()}
    assert _written(spec.out.parent) == expected


class TestByteFormat:
    """The streamed writer gives exactly the stdlib encoders' bytes."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "steps,window",
        [
            (15, 21),  # series below one chunk, too short for an envelope
            (16, 3),  # series exactly one chunk, envelope below it
            (20, 3),  # series above one chunk, envelope exactly one
            (36, 3),  # envelope an exact multiple of the chunk
            (48, 3),  # series an exact multiple of the chunk
            (400, 21),  # many chunks of both
        ],
    )
    def test_chunk_boundaries(self, tmp_path, monkeypatch, fmt, steps, window):
        monkeypatch.setattr(cli, "ROW_CHUNK", 16)
        spec = small_spec(tmp_path, fmt=fmt, steps=steps, window=window)
        series, summary = run_scenario(spec)
        assert ("envelope" in summary["collapse_revival"]) == (steps >= 3 * window)
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunks", [1, 2.5])
    def test_module_chunk(self, tmp_path, fmt, chunks):
        spec = small_spec(tmp_path, fmt=fmt, steps=int(chunks * cli.ROW_CHUNK))
        _assert_matches_oracle(spec, *run_scenario(spec))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_system(self, tmp_path, fmt):
        spec = ScenarioSpec(
            config=CouplingConfig(0, k=1.0, delta_mu=0.5, e_j=1.0),
            initial="fock:0,0",
            t_max=10.0,
            steps=100,
            out=tmp_path / f"empty.{fmt}",
            fmt=fmt,
        )
        _assert_matches_oracle(spec, *run_scenario(spec))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_null_summary_value(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(cli, "time_averaged_imbalance", lambda t, x: math.nan)
        spec = small_spec(tmp_path, fmt=fmt)
        series, summary = run_scenario(spec)
        assert summary["time_averages"]["variance"] is None
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_directory(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(cli, "ROW_CHUNK", 64)
        base = small_spec(fmt=fmt)
        ratios, initials = ["0.25", "1"], ["fock:8,0", "cat"]
        summary = sweep(base, ratios, initials, out_dir=tmp_path / "sweep", jobs=2)
        expected = {"summary.json": json.dumps(summary, indent=2) + "\n"}
        for ratio in ratios:
            for initial in initials:
                spec = cli._sweep_cell(base, ratio, initial, tmp_path / "single")
                expected.update(_oracle(spec, *run_scenario(spec)))
        assert _written(tmp_path / "sweep") == {k: v.encode() for k, v in expected.items()}

    def test_write_memory_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # tracemalloc sees the text, the float objects and numpy's buffers.
        # Writing ten times the steps may add the seven output columns and a
        # few chunks of rendered rows (about 64 bytes per value), no more.
        real = cli._write_output
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_write_output", traced)
        short, long = 4_000, 40_000
        for steps in (short, short, long):  # the first run warms caches
            run_scenario(small_spec(tmp_path, fmt="json", steps=steps))
        growth = peaks[2] - peaks[1]
        chunk = cli.ROW_CHUNK * 7 * 64
        assert growth <= 7 * 8 * (long - short) + 3 * chunk

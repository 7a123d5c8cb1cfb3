import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bhdimer import cli, files, lapack, observables, pipeline
from bhdimer.analysis import collapse_revival_time, envelope
from bhdimer.cli import main
from bhdimer.files import CSV_HEADER, read_series
from bhdimer.pipeline import ScenarioSpec, check_sweep, run_scenario, sweep
from bhdimer.presets import PRESETS, parse_ratio, realize_ratio
from bhdimer.model import CouplingConfig, build_hamiltonian
from bhdimer.spectral import ConvergenceError, eigendecompose
from bhdimer.observables import ObservableSeries

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
            (".5/N", 0.005),
            ("5./N", 0.05),
            ("1e-3*N", 0.1),
            ("1E+2*N", 10000.0),
            (" 4 / N ", 0.04),
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

    @pytest.mark.parametrize("token", ["./N", "e/N", "1.2.3/N", "+/N", "1e/N", "--1*N"])
    def test_number_part_must_be_a_float_literal(self, token):
        # Refused by the grammar, not by float() with a message that names
        # neither the token nor the grammar.
        with pytest.raises(ValueError, match=rf"^cannot parse ratio token '{re.escape(token)}'$"):
            parse_ratio(token, 100)

    def test_negative_number_part_reaches_the_range_check(self):
        with pytest.raises(ValueError, match="^ratio must be positive and finite, got -0.04$"):
            realize_ratio(parse_ratio("-4/N", 100))


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

    @pytest.mark.parametrize("t_max", [1e-318, 5e-324])
    def test_subnormal_grid_step_rejected(self, t_max):
        # Refused when made: the detector would refuse the grid in every cell.
        with pytest.raises(ValueError, match="grid step is subnormal"):
            small_spec(t_max=t_max)
        assert small_spec(t_max=399 * np.finfo(float).tiny).t_max > 0.0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            small_spec(fmt="xml")

    @pytest.mark.parametrize("initial", ["fock:8,0", "fock:3,0"])
    def test_overflowing_coupling_rejected_before_the_state(self, initial):
        # Finite couplings whose Hamiltonian overflows; the coupling's error
        # wins over a wrong state's.
        config = CouplingConfig(8, k=1e308, e_j=1.0)
        with pytest.raises(ValueError, match="^matrix elements must be finite$"):
            small_spec(config=config, initial=initial)

    def test_even_window_rejected(self):
        # The spec refuses a window as the detector does, with its message.
        t = np.linspace(0.0, 1.0, 100)
        for window in (10, 2, 1, -3):
            message = rf"^window must be odd and >= 3, got {window}$"
            with pytest.raises(ValueError, match=message):
                small_spec(window=window)
            with pytest.raises(ValueError, match=message):
                envelope(t, np.sin(t), window=window)
            with pytest.raises(ValueError, match=message):
                collapse_revival_time(t, np.sin(t), window=window)

    @pytest.mark.parametrize(
        "name,value", [("steps", 400.5), ("steps", 400.0), ("steps", True), ("steps", "400"),
                       ("window", 21.0), ("window", 20.5), ("window", True)],
    )
    def test_non_integer_steps_or_window_rejected(self, name, value):
        # Refused when made, not deep in a run (np.linspace, np.pad) or a sweep.
        message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=message):
            small_spec(**{name: value})
        if name == "window":
            t = np.linspace(0.0, 1.0, 100)
            with pytest.raises(TypeError, match=message):
                envelope(t, np.sin(t), window=value)
            with pytest.raises(TypeError, match=message):
                collapse_revival_time(t, np.sin(t), window=value)

    def test_numpy_integer_steps_and_window_become_int(self, tmp_path):
        spec = small_spec(tmp_path, fmt="json", steps=np.int64(400), window=np.int16(21))
        assert type(spec.steps) is int and type(spec.window) is int
        run_scenario(spec)
        written = json.loads(spec.out.read_text())["spec"]
        assert (written["steps"], written["window"]) == (400, 21)

    @pytest.mark.parametrize("value", [True, "30", None, 3 + 0j, np.bool_(True)])
    def test_non_real_t_max_rejected(self, value):
        # The detector thresholds take the same test.
        for name in ("t_max", "theta_c", "theta_r"):
            message = rf"^{name} must be a real number, got {re.escape(repr(value))}$"
            with pytest.raises(TypeError, match=message):
                small_spec(**{name: value})

    @pytest.mark.parametrize("value", [30, np.int64(30), np.float32(30.0)])
    def test_real_t_max_is_written_as_a_float(self, tmp_path, value):
        spec = small_spec(tmp_path, fmt="json", t_max=value)
        assert type(spec.t_max) is float and spec.t_max == 30.0
        run_scenario(spec)
        assert '"t_max": 30.0' in spec.out.read_text()

    @pytest.mark.parametrize("fmt,name", [("csv", "run.json"), ("json", "run.csv")])
    def test_out_suffix_of_the_other_format_rejected(self, tmp_path, fmt, name):
        # A CSV series in run.json, or JSON in run.csv, would be mistaken for
        # the other format; any other suffix, or none, is the caller's choice.
        message = rf"^out {re.escape(str(tmp_path / name))} ends in \.\w+, not \.{fmt}$"
        with pytest.raises(ValueError, match=message):
            small_spec(fmt=fmt, out=tmp_path / name)
        for other in ("run", "run.txt", f"run.{fmt}"):
            assert small_spec(fmt=fmt, out=tmp_path / other).out == tmp_path / other

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
        # The spec refuses a threshold as the detector does, with its message.
        ((name, value),) = thetas.items()
        interval = {"theta_c": r"\(0, 1\)", "theta_r": r"\(0, 1\]"}[name]
        message = rf"^{name} must be in {interval}, got {value}$"
        with pytest.raises(ValueError, match=message):
            small_spec(**thetas)
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError, match=message):
            collapse_revival_time(t, np.sin(t), **thetas)

    def test_theta_r_one_accepted(self):
        assert small_spec(theta_r=1.0).theta_r == 1.0

    @pytest.mark.parametrize("theta_r", [1, np.int64(1), np.float32(1.0)])
    def test_real_thresholds_are_written_as_floats(self, tmp_path, theta_r):
        spec = small_spec(tmp_path, fmt="json", theta_c=np.float32(0.25), theta_r=theta_r)
        assert (spec.theta_c, spec.theta_r) == (0.25, 1.0)
        assert {type(spec.theta_c), type(spec.theta_r)} == {float}
        run_scenario(spec)
        written = json.loads(spec.out.read_text())
        for member in (written["spec"], written["summary"]["collapse_revival"]):
            assert [repr(member[name]) for name in ("theta_c", "theta_r")] == ["0.25", "1.0"]


def _with_series(change):
    """A layout: the payload as indent=2 JSON with change(series) as its series."""
    return lambda payload: json.dumps(
        dict(payload, series=change(payload["series"])), indent=2
    ) + "\n"


def _halfway(x: float, more: str = "") -> str:
    """The exact decimal halfway between the double x > 0 and the next one up,
    as digits and a power of ten; with the digits `more` appended, just above."""
    half = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    k = half.denominator.bit_length() - 1  # a power of two
    return f"{half.numerator * 5**k}{more}e-{k + len(more)}"


def _with_entries(entries: dict):
    """A layout: the payload as indent=2 JSON with each imbalance entry at an
    index of `entries` written as the text it maps to."""

    def layout(payload):
        column = list(payload["series"]["imbalance"])
        for i in entries:
            column[i] = f"<entry {i}>"
        text = _with_series(lambda s: dict(s, imbalance=column))(payload)
        for i, entry in entries.items():
            text = text.replace(f'"<entry {i}>"', entry)
        return text

    return layout


def _with_entry(entry: str, where: float):
    """A layout: the payload as indent=2 JSON with the imbalance entry at
    `where` (0 first, 0.5 in the middle, 1 last) written as the text `entry`."""

    def layout(payload):
        size = len(payload["series"]["imbalance"])
        return _with_entries({round(where * (size - 1)): entry})(payload)

    return layout


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
        # Numbers the writer never writes read back as float(token), bit for
        # bit: 1E+2 holds no "u" or "l", the letters of the literals; -0 is
        # -0.0, where orjson alone would give the integer 0; the smallest
        # subnormal, the smallest normal and the largest double; decimals
        # exactly halfway between two doubles and just above; 19 significant
        # digits; integers past 2**53 and 2**64; and the exponent -0 that
        # _minus_zero also stops at.
        doubles = (1.0, 0.1, 1e300, 5e-324, 2.0**-1022, 2.0**60)
        halfway = [_halfway(x) for x in doubles]
        tokens = [
            "-0", "5e-324", "2.2250738585072009e-308", "1.7976931348623157e308", "-0.0", "0",
            *halfway, *(f"-{token}" for token in halfway), *(_halfway(x, "1") for x in doubles),
            "1234567890123456789", "-9.999999999999999999e-300", "1.000000000000000111",
            "7.205759403792793599e16", str(2**53 + 1), str(2**63 + 1), str(2**64 - 1),
            str(2**64 + 1), str(2**64 + 2048), str(-(2**64) - 2049), "1E+2", "1e-0", "-1e-0",
            "-0",
        ]
        at = np.linspace(0, series.imbalance.size - 1, len(tokens)).round().astype(int)
        imbalance = series.imbalance.copy()
        imbalance[at] = [float(token) for token in tokens]
        assert np.signbit(imbalance[at[[0, 4, -1]]]).all()  # the -0 and -0.0 tokens
        hand = tmp_path / "hand.json"
        layout = _with_entries(dict(zip(at.tolist(), tokens)))
        hand.write_text(layout(json.loads(spec.out.read_text())))
        _assert_reads_back(hand, dataclasses.replace(series, imbalance=imbalance), _READ_CHUNKS)

    @pytest.mark.parametrize(
        "layout,message",
        [
            pytest.param(lambda payload: json.dumps(payload), "bad.json", id="compact"),
            pytest.param(
                lambda payload: json.dumps(
                    {"spec": payload["spec"], "summary": payload["summary"]}, indent=2
                )
                + "\n",
                "bad.json",
                id="no-series",
            ),
            pytest.param(
                lambda payload: json.dumps(payload, indent=2) + "\n{}\n",
                "bad.json",
                id="trailing-data",
            ),
            pytest.param(
                lambda payload: (text := json.dumps(payload, indent=2))[:-2]
                + ","
                + text[text.index('\n  "series": ') :]
                + "\n",
                "bad.json: the series has more than its columns or is not the last member",
                id="duplicate-series",
            ),
            # Each bad entry first, in the middle and last in its column: at
            # chunks of 1 and 7 bytes the last two are in a later piece.
            *(
                pytest.param(
                    _with_entry(entry, where),
                    f"bad.json: series column imbalance {fault}",
                    id=f"{name}-entry{place}",
                )
                for name, entry, fault in [
                    ("null", "null", "is not a list of numbers"),
                    ("string", '"1.5"', "is not a list of numbers"),
                    ("comma-string", '"1,5"', "is not a list of numbers"),
                    ("boolean", "true", "is not a list of numbers"),
                    ("false", "false", "is not a list of numbers"),
                    ("nan", "NaN", "holds a non-finite value"),
                    ("infinity", "Infinity", "holds a non-finite value"),
                    ("negative-infinity", "-Infinity", "holds a non-finite value"),
                    ("overflow", "1e400", "holds a non-finite value"),
                    ("list", "[1.0]", "is not a list of numbers"),
                    ("pair", "[1.0, 2.0]", "is not a list of numbers"),
                    # A lone surrogate is written as the byte 0xff.
                    ("non-utf-8", "\udcff", r"is not valid UTF-8 at byte \d+$"),
                ]
                for place, where in [("", 0), ("-middle", 0.5), ("-last", 1)]
            ),
            pytest.param(
                _with_series(lambda s: dict(s, imbalance=[])),
                "bad.json: series column imbalance is not a list of numbers",
                id="empty-column",
            ),
            pytest.param(
                _with_series(lambda s: dict(s, t=5)),
                "bad.json: series column t is not a list of numbers",
                id="number-column",
            ),
            pytest.param(
                lambda payload: json.dumps(payload, indent=2).replace(
                    '\n    ],\n    "imbalance"', ',\n    ],\n    "imbalance"'
                )
                + "\n",
                "bad.json: series column t is not valid JSON: Expecting value",
                id="trailing-comma",
            ),
            pytest.param(
                lambda payload: json.dumps(payload, indent=2).replace(
                    '\n    "t": [\n', '\n    "t": [ ,\n'
                )
                + "\n",
                "bad.json: series column t is not valid JSON: Expecting value",
                id="leading-comma",
            ),
            pytest.param(
                _with_series(lambda s: {k: v for k, v in s.items() if k != "energy"}),
                "bad.json.*column energy",
                id="missing-column",
            ),
            pytest.param(
                _with_series(lambda s: dict(s, extra=s["t"])),
                "bad.json.*more than its columns",
                id="extra-column",
            ),
            pytest.param(
                _with_series(lambda s: dict(reversed(s.items()))),
                "bad.json.*column t",
                id="reordered-columns",
            ),
            pytest.param(
                _with_series(lambda s: dict(s, energy=s["energy"][:-1])),
                "bad.json.*length",
                id="unequal-length",
            ),
            pytest.param(
                _with_series(lambda s: dict(s, imbalance=s["imbalance"] + [1.0])),
                "^.*bad.json: the series columns differ in length$",
                id="longer-column",
            ),
            pytest.param(
                _with_series(lambda s: dict(s, variance=s["variance"][:1])),
                "^.*bad.json: the series columns differ in length$",
                id="shorter-column",
            ),
            pytest.param(
                _with_series(lambda s: [dict(zip(s, row)) for row in zip(*s.values())]),
                "bad.json is in the pre-columnar row layout",
                id="row-layout",
            ),
        ],
    )
    def test_json_read_back_requires_the_written_layout(
        self, tmp_path, monkeypatch, layout, message
    ):
        spec = small_spec(tmp_path, fmt="json")
        run_scenario(spec)
        bad = tmp_path / "bad.json"
        text = layout(json.loads(spec.out.read_text())).encode("utf-8", "surrogateescape")
        bad.write_bytes(text)
        # At 1-byte chunks every bad entry of two or more bytes straddles a
        # chunk boundary; 7 and 64 cut the file at other offsets.
        for chunk in (files.READ_CHUNK, *_READ_CHUNKS):
            monkeypatch.setattr(files, "READ_CHUNK", chunk)
            with pytest.raises(ValueError, match=message) as refused:
                read_series(bad)
            if "UTF-8" in message:  # the offset named is the bad byte's in the file
                assert str(refused.value).endswith(f" at byte {text.index(0xFF)}")

    @pytest.mark.parametrize(
        "body",
        [
            "1.0\n" * 14, ",".join(["1.0"] * 14) + "\n", "", " \t ", "\n\n", "\n  \n",
            "nan,inf,1,2,3,4,5\n", "1,2,3,4,5,6,7\n1,2,3,4,5,6,-inf\n", "1,2,3,NaN,5,6,7\n",
            "1,2,3,x,5,6,7\n", "1,2,3,4,5,6,7\n1,2,3,4,5,6\n",
        ],
        ids=[
            "one-per-line", "fourteen-per-line", "header-only", "white-space-only", "blank-lines",
            "blank-lines-with-spaces", "nan-inf", "late-inf", "nan", "not-a-number",
            "six-value-row",
        ],
    )
    def test_csv_read_back_requires_seven_columns(self, tmp_path, body):
        # numpy's own refusals (a value that is no number, a row whose width
        # changes) come out as the reader's, which names the file, and a
        # body with no data row is refused before numpy can warn of it.
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + body)
        message = f"{bad}: the CSV body does not hold rows of 7 finite values"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_series(bad)

    def test_csv_read_back_of_one_row_without_a_final_newline(self, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text(CSV_HEADER + "\n" + ",".join(["1.5"] * 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = read_series(one)
        assert [getattr(series, name).tolist() for name in series.COLUMNS] == [[1.5]] * 7

    @pytest.mark.parametrize(
        "header",
        ["", "imbalance,t", CSV_HEADER.replace(",", ";")],
        ids=["blank", "short", "semicolons"],
    )
    def test_csv_read_back_requires_the_header(self, tmp_path, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n" + ",".join(["1.0"] * 7) + "\n")
        with pytest.raises(ValueError, match="^.*bad.csv does not carry the expected CSV header$"):
            read_series(bad)

    def test_format_member_order_is_pinned(self, tmp_path):
        # Literals on purpose: both orders derive from dataclass fields, so a
        # reordered field would otherwise change the files unnoticed.
        columns = "t,imbalance,imbalance_scaled,variance,entanglement_bits,norm_error,energy"
        assert CSV_HEADER == columns
        spec = small_spec(tmp_path, fmt="json")
        run_scenario(spec)
        payload = json.loads(spec.out.read_text())
        assert list(payload["spec"]) == [
            "n_total", "k", "delta_mu", "e_j", "initial", "t_max", "steps", "window",
            "theta_c", "theta_r", "format",
        ]
        assert ",".join(payload["series"]) == columns

    def test_json_structure(self, tmp_path):
        spec = small_spec(tmp_path, fmt="json")
        run_scenario(spec)
        payload = json.loads(spec.out.read_text())
        assert set(payload) == {"spec", "summary", "series"}
        assert payload["spec"]["n_total"] == 8
        assert payload["spec"]["initial"] == "fock:8,0"
        assert tuple(payload["series"]) == ObservableSeries.COLUMNS
        assert [len(column) for column in payload["series"].values()] == [spec.steps] * 7
        cr = payload["summary"]["collapse_revival"]
        assert list(cr["envelope"]) == ["t", "amplitude"]
        assert [len(column) for column in cr["envelope"].values()] == [cr["envelope_points"]] * 2

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


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_envelope_goes_only_to_the_file(self, tmp_path, fmt):
        spec = small_spec(tmp_path, fmt=fmt)
        series, summary = run_scenario(spec)
        assert summary == run_scenario(small_spec(fmt=fmt))[1]
        assert "envelope" not in summary["collapse_revival"]
        written = spec.out if fmt == "json" else tmp_path / "run.summary.json"
        cr = json.loads(written.read_text())["summary"]["collapse_revival"]
        columns = cr.pop("envelope")
        assert list(columns) == ["t", "amplitude"]
        envelope = np.column_stack([columns["t"], columns["amplitude"]])
        assert cr == summary["collapse_revival"]
        expected = collapse_revival_time(series.t, series.imbalance, window=spec.window)
        assert envelope.shape == expected.envelope.shape
        assert envelope.tobytes() == expected.envelope.tobytes()  # bit for bit

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

        monkeypatch.setattr(pipeline, "collapse_revival_time", fail)
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

    def test_parallel_matches_serial_json(self, tmp_path, monkeypatch):
        # Four threads import and check the JSON list writer anew on first
        # use, then share it.
        monkeypatch.setattr(files, "_list_writer", functools.cache(files._list_writer.__wrapped__))
        base = small_spec(fmt="json")
        parallel = sweep(base, ["0.25", "1"], ["cat", "me"], out_dir=tmp_path / "p", jobs=4)
        serial = sweep(base, ["0.25", "1"], ["cat", "me"], out_dir=tmp_path / "s", jobs=1)
        for cs, cp in zip(serial["cells"], parallel["cells"]):
            assert (cs["ratio"], cs["initial"]) == (cp["ratio"], cp["initial"])
            assert (tmp_path / "s" / cs["file"]).read_bytes() == (
                tmp_path / "p" / cp["file"]
            ).read_bytes()

    def test_cells_sharing_a_file_rejected_before_the_directory(self, tmp_path):
        for refuse in (sweep, check_sweep):
            with pytest.raises(ValueError, match=r"both write r0\.25__cat\.json"):
                refuse(small_spec(fmt="json"), ["0.25", "0.25"], ["cat"], out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        # Without files the repeated cells do not collide.
        cells = [("0.25", "cat"), ("0.25", "cat")]
        assert check_sweep(small_spec(), ["0.25", "0.25"], ["cat"]) == cells
        summary = sweep(small_spec(), ["0.25", "0.25"], ["cat"])
        assert [c["status"] for c in summary["cells"]] == ["ok", "ok"]

    def test_empty_lists_rejected(self):
        for refuse in (sweep, check_sweep):
            for ratios, initials in [([], ["cat"]), (["0.25"], [])]:
                with pytest.raises(ValueError, match="at least one ratio and one initial state"):
                    refuse(small_spec(), ratios, initials)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_sweep_rejects_jobs_below_one(self, jobs):
        for refuse in (sweep, check_sweep):
            with pytest.raises(ValueError, match="jobs"):
                refuse(small_spec(), ["0.25"], ["cat"], jobs=jobs)

    def test_generators_accepted(self, tmp_path):
        ratios, initials = ["0.25", "1"], ["cat", "fock:8,0"]
        expected = sweep(small_spec(), ratios, initials, out_dir=tmp_path / "lists", jobs=2)
        summary = sweep(
            small_spec(), iter(ratios), (i for i in initials), out_dir=tmp_path / "gen", jobs=2
        )
        assert summary["cells"] == expected["cells"]
        assert _written(tmp_path / "gen") == _written(tmp_path / "lists")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_program_fault_propagates(self, monkeypatch, jobs):
        def fault(spec, **kwargs):
            raise TypeError("program fault")

        monkeypatch.setattr(pipeline, "run_scenario", fault)
        with pytest.raises(TypeError, match="program fault"):
            sweep(small_spec(), ["0.25", "1"], ["cat"], jobs=jobs)

    @pytest.mark.parametrize("jobs", [True, 2.5, "2"])
    def test_non_integer_jobs_rejected_before_any_cell(self, tmp_path, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(pipeline, "run_scenario", lambda spec, **kwargs: calls.append(spec))
        for refuse in (sweep, check_sweep):
            with pytest.raises(TypeError, match="jobs must be an integer"):
                refuse(small_spec(), ["0.25", "1"], ["cat"], out_dir=tmp_path / "out", jobs=jobs)
        assert calls == [] and not (tmp_path / "out").exists()

    def test_numpy_integer_jobs_accepted(self):
        ratios, initials = ["0.25", "1"], ["cat", "me"]
        summary = sweep(small_spec(), ratios, initials, jobs=np.int64(2))
        assert summary == sweep(small_spec(), ratios, initials, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kernel_fault_propagates(self, monkeypatch, jobs):
        # A ValueError that no check raises is a program fault, not a cell error.
        def fault(*args):
            raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

        monkeypatch.setattr(observables, "_block_columns", fault)
        with pytest.raises(ValueError, match="could not be broadcast"):
            sweep(small_spec(), ["0.25", "1"], ["cat"], jobs=jobs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ratio", ["1e308", "1e-308"])
    def test_overflowing_hamiltonian_fails_only_its_cells(self, ratio):
        # Finite couplings whose Hamiltonian overflows are an invalid coupling.
        summary = sweep(small_spec(), [ratio, "0.25"], ["fock:8,0", "cat"])
        assert [c["status"] for c in summary["cells"]] == ["error", "error", "ok", "ok"]
        assert all("must be finite" in c["error"] for c in summary["cells"][:2])

    def test_error_cells_alone_start_no_thread(self, monkeypatch):
        # No cell runs, so no worker is started for one to run on.
        made, real = [], threading.Thread

        def thread(*args, **kwargs):
            made.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline.threading, "Thread", thread)
        initials = ["cat", "me", "fock:8,0"]
        summary = sweep(small_spec(), ["bad"], initials, jobs=4)
        assert made == []
        error = "ValueError: cannot parse ratio token 'bad'"
        assert summary["cells"] == [
            {"ratio": "bad", "initial": initial, "status": "error", "error": error}
            for initial in initials
        ]

    def test_one_job_runs_every_cell_on_the_calling_thread(self, monkeypatch):
        seen, real = [], pipeline.run_scenario

        def run(spec, **kwargs):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(spec, **kwargs)

        monkeypatch.setattr(pipeline, "run_scenario", run)
        before = threading.active_count()
        sweep(small_spec(), ["0.25", "1"], ["cat", "me"], jobs=1)
        assert seen == [(threading.current_thread(), before)] * 4

    def test_fault_stops_new_cells_and_joins_the_threads(self, monkeypatch):
        started = []

        def fault(spec, **kwargs):
            started.append(spec.config.ratio)
            raise TypeError(f"program fault at ratio {spec.config.ratio}")

        monkeypatch.setattr(pipeline, "run_scenario", fault)
        before = threading.active_count()
        # The sweep pins BLAS to one thread; the fault must not leave it pinned.
        setter = lapack._library()[1]  # returns the count it replaces
        threads = None if setter is None else setter(2)
        try:
            with pytest.raises(TypeError, match="at ratio 0.25"):
                sweep(small_spec(), ["0.25", "0.5", "1", "2", "4"], ["cat"], jobs=2)
        finally:
            restored = None if setter is None else setter(threads)
        # Each thread stops after its first fault.
        assert 1 <= len(started) <= 2
        assert threading.active_count() == before
        assert setter is None or restored == 2

    @pytest.mark.skipif(
        lapack._library()[1] is None,
        reason="numpy's OpenBLAS exports no openblas_set_num_threads_local",
    )
    def test_threaded_sweep_files_do_not_depend_on_blas_threads(self, tmp_path):
        # The setter sets the whole process's count, so unless the sweep
        # holds one BLAS thread, a cell's gemms run at one or two threads
        # depending on whether another cell is inside dstevd.
        setter = lapack._library()[1]
        base = ScenarioSpec(
            CouplingConfig(200, k=0.0, e_j=1.0), "fock:200,0", steps=2000, fmt="json"
        )
        cells = (["1/N^2", "4/N", "N"], ["fock:200,0", "cat", "me"])
        before = setter(2)
        try:
            for name in ("threaded", "rerun"):
                sweep(base, *cells, out_dir=tmp_path / name, jobs=2)
            with lapack.one_blas_thread():
                sweep(base, *cells, out_dir=tmp_path / "pinned", jobs=1)
        finally:
            restored = setter(before)
        assert restored == 2
        pinned = _written(tmp_path / "pinned")
        assert len(pinned) == 10
        assert _written(tmp_path / "threaded") == pinned
        assert _written(tmp_path / "rerun") == pinned

    def test_earliest_cell_fault_is_raised(self, monkeypatch):
        # The second cell faults first; the first cell's fault is raised.
        second_failed = threading.Event()

        def fault(spec, **kwargs):
            if spec.config.ratio == 0.25:
                second_failed.wait(timeout=30)
                time.sleep(0.05)
                raise TypeError("first cell")
            second_failed.set()
            raise KeyError("second cell")

        monkeypatch.setattr(pipeline, "run_scenario", fault)
        with pytest.raises(TypeError, match="first cell"):
            sweep(small_spec(), ["0.25", "1"], ["cat"], jobs=2)
        assert second_failed.is_set()


def _spy_decompositions(monkeypatch, fails=None):
    """Record every decomposition a sweep makes; raise ConvergenceError(fails[1])
    for the coupling fails[0] instead."""
    calls, real = [], pipeline.eigendecompose

    def spy(h):
        calls.append(h)
        if fails is not None:
            bad = build_hamiltonian(fails[0])
            if np.array_equal(h.diagonal, bad.diagonal) and np.array_equal(h.offdiagonal, bad.offdiagonal):
                raise ConvergenceError(fails[1])
        return real(h)

    monkeypatch.setattr(pipeline, "eigendecompose", spy)
    return calls


class TestSweepSharesDecompositions:
    """The cells of one coupling share one decomposition."""

    def test_one_decomposition_per_coupling(self, monkeypatch):
        calls = _spy_decompositions(monkeypatch)
        summary = sweep(small_spec(), ["0.25", "1", "4"], ["fock:8,0", "cat", "me"], jobs=2)
        assert [c["status"] for c in summary["cells"]] == ["ok"] * 9
        assert len(calls) == 3

    def test_tokens_realizing_one_coupling_share_it(self, monkeypatch):
        calls = _spy_decompositions(monkeypatch)
        base = small_spec(config=CouplingConfig(200, k=1.0, e_j=1.0), initial="cat", steps=100)
        summary = sweep(base, ["4/N", "0.02"], ["cat", "me"], jobs=2)
        assert [c["status"] for c in summary["cells"]] == ["ok"] * 4
        assert len(calls) == 1
        by_ratio = [c["summary"] for c in summary["cells"]]
        assert by_ratio[:2] == by_ratio[2:]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_files_match_a_separate_run_per_cell(self, tmp_path, monkeypatch, fmt, jobs):
        ratios, initials = ["0.25", "2/N", "4"], ["fock:8,0", "cat", "me"]  # 2/N = 0.25
        sweep(small_spec(fmt=fmt), ratios, initials, out_dir=tmp_path / "shared", jobs=jobs)
        real = pipeline.run_scenario
        monkeypatch.setattr(pipeline, "run_scenario", lambda spec, **kwargs: real(spec))
        sweep(small_spec(fmt=fmt), ratios, initials, out_dir=tmp_path / "separate", jobs=jobs)
        shared = _written(tmp_path / "shared")
        assert len(shared) == (19 if fmt == "csv" else 10)
        assert shared == _written(tmp_path / "separate")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_convergence_error_fails_only_its_coupling(self, monkeypatch, jobs):
        message = "LAPACK failed on a 9x9 tridiagonal block: dstevd did not converge (info = 1)"
        bad = CouplingConfig(8, k=1.0, e_j=1.0)
        calls = _spy_decompositions(monkeypatch, fails=(bad, message))
        summary = sweep(small_spec(), ["0.25", "1", "4"], ["fock:8,0", "cat", "me"], jobs=jobs)
        for cell in summary["cells"]:
            if cell["ratio"] == "1":
                assert cell["status"] == "error"
                assert cell["error"] == f"ConvergenceError: {message}"
                assert "summary" not in cell
            else:
                assert cell["status"] == "ok"
        # Each good coupling once; the failing one in each of its cells.
        assert len(calls) == 2 + 3

    def test_each_decomposition_released_after_its_last_cell(
        self, monkeypatch, ratios=("0.25", "1", "4"), decompositions=3, expected=(1,) * 6
    ):
        refs, alive = [], []
        real_decompose, real_run = pipeline.eigendecompose, pipeline.run_scenario

        def decompose(h):
            d = real_decompose(h)
            refs.append(weakref.ref(d))
            return d

        def run(spec, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return real_run(spec, **kwargs)

        monkeypatch.setattr(pipeline, "eigendecompose", decompose)
        monkeypatch.setattr(pipeline, "run_scenario", run)
        sweep(small_spec(), list(ratios), ["cat", "me"], jobs=1)
        assert len(refs) == decompositions
        assert alive == list(expected)
        assert all(ref() is None for ref in refs)

    def test_decomposition_of_non_adjacent_cells_released_after_the_last(self, monkeypatch):
        # 2/N = 0.25 at N = 8: cells 0, 1, 4 and 5 share one decomposition,
        # which outlives the one of cells 2 and 3.
        self.test_each_decomposition_released_after_its_last_cell(
            monkeypatch, ("0.25", "1", "2/N"), 2, (1, 1, 2, 2, 1, 1)
        )

    def test_stress_more_threads_than_cores(self, monkeypatch):
        # Cells of one coupling race for its slot's decomposition.
        calls = _spy_decompositions(monkeypatch)
        ratios = ["0.25", "2/N", "1", "4", "8/N"]  # 2/N = 0.25, 8/N = 1 at N = 8
        initials = [f"fock:{8 - n},{n}" for n in range(9)] + ["cat", "me"]
        base = small_spec(steps=50)
        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: result.update(summary=sweep(base, ratios, initials, jobs=8))
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [c["status"] for c in result["summary"]["cells"]] == ["ok"] * 55
        assert len(calls) == 3
        assert result["summary"] == sweep(base, ratios, initials, jobs=1)


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

    def test_out_suffix_of_the_other_format_is_a_usage_error(self, tmp_path, capsys):
        # Without --format the series is CSV: it does not go into run.json,
        # and no run.summary.json sidecar is made beside it.
        out = tmp_path / "run.json"
        argv = ["--n", "10", "--ratio", "1", "--steps", "700", "--window", "21"]
        rc = main([*argv, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert rc == 2 and stdout == ""
        assert err == f"error: out {out} ends in .json, not .csv\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_couplings_are_a_usage_error(self, tmp_path, capsys):
        argv = ["--n", "1000", "--k", "1e308", "--ej", "1", "--steps", "200"]
        rc = main([*argv, "--out", str(tmp_path / "run.csv")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: matrix elements must be finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_solver_failure_exits_one(self, monkeypatch, capsys):
        def fail(h):
            raise ConvergenceError("dstevd did not converge (info = 1)")

        monkeypatch.setattr(pipeline, "eigendecompose", fail)
        rc = main(["--n", "8", "--ratio", "0.25", "--steps", "100"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "solver failure: dstevd did not converge (info = 1)\n"

    @pytest.mark.parametrize(
        "argv",
        [["--ratio", "0.25"], ["--ratios", "0.25,1", "--jobs", "1"],
         ["--ratios", "0.25,1", "--jobs", "2"]],
        ids=["single", "sweep-jobs1", "sweep-jobs2"],
    )
    def test_kernel_fault_propagates(self, monkeypatch, capsys, argv):
        # A ValueError that no check raises is a program fault, not refused input.
        def fault(*args):
            raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

        monkeypatch.setattr(observables, "_block_columns", fault)
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["--n", "8", *argv, "--steps", "100"])
        assert capsys.readouterr().err == ""

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

    def test_output_file_that_is_a_directory_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["--n", "4", "--ratio", "1", "--steps", "100", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_directory_that_is_a_file_is_a_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["--n", "4", "--ratios", "1,2", "--steps", "100", "--out", str(taken)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error:") and str(taken) in err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == ""


class TestPresets:
    @pytest.mark.parametrize(
        "n,menu",
        [
            (1, ["fock:1,0", "fock:0,1"]),
            (2, ["fock:2,0", "fock:1,1"]),
            (4, ["fock:4,0", "fock:3,1", "fock:2,2"]),
            (100, ["fock:100,0", "fock:90,10", "fock:74,26", "fock:60,40", "fock:50,50"]),
        ],
    )
    @pytest.mark.parametrize("preset", ["fig-initials-rabi", "fig-initials-josephson"])
    def test_initial_menu_has_no_repeats(self, preset, n, menu):
        assert PRESETS[preset].build(n)["initials"] == menu


def _spec_dict(n, k, e_j, initial, delta_mu=0.0, t_max=30.0, steps=10_000,
               window=201, theta_c=0.1, theta_r=0.5, fmt="csv"):
    return {
        "n_total": n, "k": k, "delta_mu": delta_mu, "e_j": e_j, "initial": initial,
        "t_max": t_max, "steps": steps, "window": window, "theta_c": theta_c,
        "theta_r": theta_r, "format": fmt,
    }


def _base_dict(n, **run):
    """A sweep summary's "base": the spec dict without what each cell sets."""
    spec = _spec_dict(n, None, None, None, **run)
    return {key: value for key, value in spec.items() if key not in ("k", "e_j", "initial")}


class TestFlagsToSpec:
    """Which spec a preset and the given flags make: a flag overrides the
    preset's value, and an unset one falls back to the preset, then to the
    ScenarioSpec default."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--n", "6", "--ratio", "0.25"], _spec_dict(6, 1.0, 4.0, "fock:6,0")),
            (["--preset", "fig-rabi", "--n", "4"],
             _spec_dict(4, 1.0, 16.0, "fock:4,0", steps=12_000)),
            (["--preset", "fig-selftrap", "--n", "4", "--steps", "500", "--format", "json"],
             _spec_dict(4, 2.0, 1.0, "fock:0,4", t_max=6.4, steps=500, fmt="json")),
            (["--preset", "milburn-timescale", "--n", "8", "--t-max", "3", "--steps", "100",
              "--window", "5"],
             _spec_dict(8, 1.0, 1.0, "fock:0,8", t_max=3.0, steps=100, window=5)),
            (["--preset", "paper-timescale", "--n", "4", "--k", "2", "--ej", "3", "--dmu",
              "0.5", "--initial", "cat", "--t-max", "5", "--steps", "300", "--window", "11",
              "--theta-c", "0.3", "--theta-r", "0.6"],
             _spec_dict(4, 2.0, 3.0, "cat", delta_mu=0.5, t_max=5.0, steps=300, window=11,
                        theta_c=0.3, theta_r=0.6)),
            (["--preset", "fig-rabi", "--n", "4", "--ratio", "2", "--initial", "me"],
             _spec_dict(4, 2.0, 1.0, "me", steps=12_000)),
            (["--k", "1", "--ej", "2", "--steps", "200"],
             _spec_dict(100, 1.0, 2.0, "fock:100,0", steps=200)),
            # One coupling and one initial state replace both of the preset's lists.
            (["--preset", "fig-rabi-fock-sweep", "--n", "4", "--k", "1", "--ej", "1",
              "--initial", "cat", "--steps", "300"],
             _spec_dict(4, 1.0, 1.0, "cat", steps=300)),
        ],
    )
    def test_single_run(self, tmp_path, capsys, argv, expected):
        out = tmp_path / f"run.{expected['format']}"
        assert main([*argv, "--out", str(out)]) == 0
        written = out if expected["format"] == "json" else tmp_path / "run.summary.json"
        assert json.loads(written.read_text())["spec"] == expected

    @pytest.mark.parametrize(
        "argv,base,cells",
        [
            (["--preset", "fig-threshold-scan", "--n", "4", "--steps", "300", "--window", "21"],
             _base_dict(4, t_max=100.0, steps=300, window=21),
             [(r, "fock:4,0", f"r{s}__fock-4-0.csv") for r, s in [
                 ("1/N", "1overN"), ("2/N", "2overN"), ("3/N", "3overN"), ("4/N", "4overN"),
                 ("5/N", "5overN"), ("10/N", "10overN"), ("50/N", "50overN"), ("1", "1")]]),
            (["--preset", "fig-threshold-scan", "--n", "4", "--ratio", "1", "--steps", "300"],
             _base_dict(4, t_max=100.0, steps=300),
             [("1", "fock:4,0", "r1__fock-4-0.csv")]),
            (["--preset", "fig-initials-rabi", "--n", "4", "--initial", "cat", "--steps",
              "300", "--format", "json"],
             _base_dict(4, steps=300, fmt="json"),
             [("1/N^2", "cat", "r1overN2__cat.json"), ("1/N", "cat", "r1overN__cat.json")]),
            (["--n", "4", "--ratios", "0.25, 1", "--initials", "cat; fock:4,0", "--format",
              "json", "--dmu", "0.1", "--steps", "300"],
             _base_dict(4, delta_mu=0.1, steps=300, fmt="json"),
             [("0.25", "cat", "r0.25__cat.json"), ("0.25", "fock:4,0", "r0.25__fock-4-0.json"),
              ("1", "cat", "r1__cat.json"), ("1", "fock:4,0", "r1__fock-4-0.json")]),
            (["--preset", "fig-rabi", "--n", "4", "--ratios", "N"],
             _base_dict(4, steps=12_000),
             [("N", "fock:4,0", "rN__fock-4-0.csv")]),
            (["--n", "4", "--ratio", "1", "--initials", "me;cat", "--steps", "300"],
             _base_dict(4, steps=300),
             [("1", "me", "r1__me.csv"), ("1", "cat", "r1__cat.csv")]),
            (["--preset", "fig-fluct-cat", "--n", "4", "--t-max", "3", "--steps", "100",
              "--window", "11"],
             _base_dict(4, t_max=3.0, steps=100, window=11),
             [(r, "cat", f"r{s}__cat.csv") for r, s in [
                 ("1/N^2", "1overN2"), ("1/N", "1overN"), ("4/N", "4overN"),
                 ("10/N", "10overN"), ("1", "1")]]),
            # At N=4 the five-state menu rounds to three distinct states.
            (["--preset", "fig-initials-josephson", "--n", "4", "--steps", "300"],
             _base_dict(4, steps=300),
             [(r, f"fock:{m},{4 - m}", f"r{r}__fock-{m}-{4 - m}.csv")
              for r in ("1", "N") for m in (4, 3, 2)]),
        ],
    )
    def test_sweep(self, tmp_path, capsys, argv, base, cells):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["base"] == base
        assert [(c["ratio"], c["initial"], c["file"]) for c in summary["cells"]] == cells
        names = {"summary.json"} | {f for _, _, f in cells}
        if base["format"] == "csv":
            names |= {f.replace(".csv", ".summary.json") for _, _, f in cells}
        assert {p.name for p in tmp_path.iterdir()} == names
        assert capsys.readouterr().out.count("ratio=") == len(cells)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "4", "--ratios", ""],
            ["--n", "4", "--ratios", " , "],
            ["--n", "4", "--ratio", "1", "--initials", ""],
            ["--preset", "fig-threshold-scan", "--n", "4", "--k", "1", "--ej", "1"],
            ["--n", "4", "--initials", "cat"],
            ["--n", "4", "--k", "1"],
            ["--n", "4", "--ej", "1"],
            ["--n", "4"],
            ["--preset", "fig-selftrap", "--n", "0"],
            ["--preset", "milburn-timescale", "--n", "0"],
            ["--preset", "fig-threshold-scan", "--n", "4", "--ej", "2"],
            ["--n", "4", "--k", "1", "--ej", "1", "--steps", "50", "--jobs", "0"],
        ],
    )
    def test_usage_errors(self, tmp_path, capsys, argv):
        try:
            rc = main([*argv, "--out", str(tmp_path / "out")])
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "error:" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--preset", "fig-threshold-scan", "--n", "4", "--ej", "2"],
            ["--preset", "fig-threshold-scan", "--n", "4", "--k", "1", "--ej", "1"],
        ],
    )
    def test_sweep_rejects_absolute_couplings(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "a sweep takes its couplings from --ratio/--ratios" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ratios", "1", "--initials", "fock:4,0;fock: 4,0"],
            ["--ratios", "1,1"],
        ],
    )
    def test_sweep_cells_sharing_a_file_are_refused(self, tmp_path, capsys, argv):
        assert main(["--n", "4", *argv, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: two sweep cells would both write r1__fock-4-0.csv" in err
        assert list(tmp_path.iterdir()) == []


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name} in output")


def _poison(monkeypatch, where):
    """Put one NaN into the reduced series or into the envelope."""
    if where == "series":
        real = pipeline.compute_series

        def poisoned(*args):
            series = real(*args)
            variance = series.variance.copy()
            variance[len(variance) // 2] = math.nan
            return dataclasses.replace(series, variance=variance)

        monkeypatch.setattr(pipeline, "compute_series", poisoned)
    else:
        real = pipeline.collapse_revival_time

        def poisoned(*args, **kwargs):
            report = real(*args, **kwargs)
            envelope = report.envelope.copy()
            envelope[-1, 1] = math.nan
            return dataclasses.replace(report, envelope=envelope)

        monkeypatch.setattr(pipeline, "collapse_revival_time", poisoned)


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
        monkeypatch.setattr(pipeline, "time_averaged_imbalance", lambda t, x: math.nan)
        spec = small_spec(tmp_path, fmt="json")
        _, summary = run_scenario(spec)
        assert summary["time_averages"] == {
            "imbalance_scaled": None,
            "variance": None,
            "entanglement_bits": None,
        }
        payload = json.loads(spec.out.read_text(), parse_constant=_reject_constant)
        assert payload["summary"]["time_averages"]["variance"] is None

    def test_summary_reports_eigensolver_and_level_gap(self, monkeypatch):
        spec = small_spec(initial="cat")
        _, summary = run_scenario(spec)
        diag = summary["diagnostics"]
        assert diag["eigensolver"] == ("eigh" if lapack.dstevd_symbol() is None else "dstevd")
        lam = eigendecompose(build_hamiltonian(spec.config)).eigenvalues
        assert diag["min_level_gap"] == np.diff(lam).min() > 0.0
        empty = small_spec(config=CouplingConfig(0, k=1.0), initial="fock:0,0")
        assert run_scenario(empty)[1]["diagnostics"]["min_level_gap"] is None
        monkeypatch.setattr(lapack, "dstevd_symbol", lambda: None)
        _, fallback = run_scenario(spec)
        assert fallback["diagnostics"] == dict(diag, eigensolver="eigh")

    def test_summary_reports_truncation(self):
        _, summary = run_scenario(small_spec(initial="cat"))
        diag = summary["diagnostics"]
        assert isinstance(diag["kept_components"], int)
        assert 1 <= diag["kept_components"] <= 5  # even sector of N = 8
        assert diag["kept_per_parity"] == [diag["kept_components"], 0]
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
    f"{v:.11e}" per CSV value, json.dumps(indent=2) for every JSON file, the
    series and the envelope as one list per column, the diagnostics'
    kept_per_parity as a two-item list or null."""
    columns = {name: getattr(series, name).tolist() for name in series.COLUMNS}
    if len(series) >= 3 * spec.window:  # the detector's envelope closes the report
        report = collapse_revival_time(series.t, series.imbalance, window=spec.window)
        envelope = dict(zip(["t", "amplitude"], report.envelope.T.tolist()))
        cr = dict(summary["collapse_revival"], envelope=envelope)
        summary = dict(summary, collapse_revival=cr)
    payload = {"spec": pipeline._scenario_dict(spec), "summary": summary}
    if spec.fmt == "csv":
        rows = zip(*columns.values())
        lines = [CSV_HEADER, *(",".join(f"{v:.11e}" for v in row) for row in rows)]
        return {
            spec.out.name: "\n".join(lines) + "\n",
            spec.out.stem + ".summary.json": json.dumps(payload, indent=2) + "\n",
        }
    payload["series"] = columns
    return {spec.out.name: json.dumps(payload, indent=2) + "\n"}


def _written(directory) -> dict:
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


# READ_CHUNK sizes every checked file is also read back at.
_READ_CHUNKS = (1, 7, 64)


def _assert_matches_oracle(spec, series, summary, read_chunks=_READ_CHUNKS):
    expected = {name: text.encode() for name, text in _oracle(spec, series, summary).items()}
    assert _written(spec.out.parent) == expected
    _assert_reads_back(spec.out, series, read_chunks)


def _assert_reads_back(path, series, read_chunks):
    """`path` reads back the same bits at the module's READ_CHUNK and at each
    of `read_chunks`: the series itself from JSON, its print from CSV."""
    expected = {name: getattr(series, name) for name in ObservableSeries.COLUMNS}
    if path.suffix == ".csv":
        expected = {
            name: np.array([float(f"{v:.11e}") for v in column.tolist()])
            for name, column in expected.items()
        }
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (files.READ_CHUNK, *read_chunks):
            patch.setattr(files, "READ_CHUNK", chunk)
            back = read_series(path)
            for name, column in expected.items():
                assert getattr(back, name).tobytes() == column.tobytes(), (chunk, name)


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
            # A JSON list is streamed 7 * ROW_CHUNK = 112 values a chunk.
            (112, 3),  # series columns exactly one chunk, envelope columns below it
            (116, 3),  # series columns above one chunk, envelope columns exactly one
            (224, 3),  # series columns an exact multiple of the chunk
            (228, 3),  # envelope columns an exact multiple of the chunk
        ],
    )
    def test_chunk_boundaries(self, tmp_path, monkeypatch, fmt, steps, window):
        monkeypatch.setattr(files, "ROW_CHUNK", 16)
        spec = small_spec(tmp_path, fmt=fmt, steps=steps, window=window)
        series, summary = run_scenario(spec)
        assert ("envelope_points" in summary["collapse_revival"]) == (steps >= 3 * window)
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunks", [1, 2.5])
    def test_module_chunk(self, tmp_path, fmt, chunks):
        # A CSV chunk holds ROW_CHUNK rows, a JSON one 7 * ROW_CHUNK values of a column.
        rows = files.ROW_CHUNK * (7 if fmt == "json" else 1)
        spec = small_spec(tmp_path, fmt=fmt, steps=int(chunks * rows))
        # Read back at 64-byte chunks only: at 1-byte chunks the reader's
        # Python loop costs about 3 us a byte (2-vCPU x86 VM), and these
        # files reach 4 MB.
        _assert_matches_oracle(spec, *run_scenario(spec), read_chunks=(64,))

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

    def test_empty_system_json_has_one_row_columns(self, tmp_path):
        spec = ScenarioSpec(
            config=CouplingConfig(0, k=1.0, delta_mu=0.5, e_j=1.0),
            initial="fock:0,0",
            steps=100,
            out=tmp_path / "empty.json",
            fmt="json",
        )
        series, summary = run_scenario(spec)
        columns = json.loads(spec.out.read_text())["series"]
        assert columns == {name: [0.0] for name in ObservableSeries.COLUMNS}
        _assert_matches_oracle(spec, series, summary)

    def test_json_run_too_short_for_an_envelope(self, tmp_path):
        spec = small_spec(tmp_path, fmt="json", steps=50, window=21)
        series, summary = run_scenario(spec)
        cr = json.loads(spec.out.read_text())["summary"]["collapse_revival"]
        assert cr["reason"] == "series_too_short" and "envelope" not in cr
        _assert_matches_oracle(spec, series, summary)

    def test_csv_sidecar_carries_the_envelope_columns(self, tmp_path):
        spec = small_spec(tmp_path)
        series, summary = run_scenario(spec)
        sidecar = json.loads((tmp_path / "run.summary.json").read_text())
        envelope = sidecar["summary"]["collapse_revival"]["envelope"]
        assert list(envelope) == ["t", "amplitude"]
        points = summary["collapse_revival"]["envelope_points"]
        assert [len(column) for column in envelope.values()] == [points] * 2
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("dmu", [0.0, 0.5])  # split product, whole product
    def test_kept_per_parity(self, tmp_path, fmt, dmu):
        spec = small_spec(tmp_path, fmt=fmt, config=CouplingConfig(8, k=1.0, delta_mu=dmu, e_j=4.0))
        series, summary = run_scenario(spec)
        diag = summary["diagnostics"]
        if dmu:
            assert diag["kept_per_parity"] is None
        else:
            assert sum(diag["kept_per_parity"]) == diag["kept_components"]
        sidecar = tmp_path / ("run.summary.json" if fmt == "csv" else "run.json")
        written = json.loads(sidecar.read_text())["summary"]["diagnostics"]
        assert written["kept_per_parity"] == diag["kept_per_parity"]
        _assert_matches_oracle(spec, series, summary)

    def test_three_digit_exponents(self, tmp_path, capsys):
        spec = small_spec(tmp_path, t_max=1e-300)
        argv = ["--n", "8", "--k", "1", "--ej", "4", "--t-max", "1e-300", "--steps", "400"]
        assert main([*argv, "--window", "21", "--out", str(spec.out)]) == 0
        capsys.readouterr()
        series, summary = run_scenario(dataclasses.replace(spec, out=None))
        assert series.t[1] < 1e-99
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_null_summary_value(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(pipeline, "time_averaged_imbalance", lambda t, x: math.nan)
        spec = small_spec(tmp_path, fmt=fmt)
        series, summary = run_scenario(spec)
        assert summary["time_averages"]["variance"] is None
        _assert_matches_oracle(spec, series, summary)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_directory(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(files, "ROW_CHUNK", 64)
        base = small_spec(fmt=fmt)
        ratios, initials = ["0.25", "1"], ["fock:8,0", "cat"]
        summary = sweep(base, ratios, initials, out_dir=tmp_path / "sweep", jobs=2)
        expected = {"summary.json": json.dumps(summary, indent=2) + "\n"}
        for ratio in ratios:
            for initial in initials:
                k, e_j = realize_ratio(parse_ratio(ratio, 8))
                spec = dataclasses.replace(
                    base,
                    config=CouplingConfig(8, k=k, delta_mu=base.config.delta_mu, e_j=e_j),
                    initial=initial,
                    out=tmp_path / "single" / pipeline._cell_file(ratio, initial, fmt),
                )
                series, cell_summary = run_scenario(spec)
                expected.update(_oracle(spec, series, cell_summary))
                _assert_reads_back(tmp_path / "sweep" / spec.out.name, series, _READ_CHUNKS)
        assert _written(tmp_path / "sweep") == {k: v.encode() for k, v in expected.items()}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_read_memory_is_bounded_by_the_columns(self, tmp_path, fmt, steps=50_000):
        # Beside the seven float64 columns it returns, the reader may hold a
        # few chunks of text and their decoded values, whatever the steps.
        rng = np.random.default_rng(18)
        series = ObservableSeries(*rng.standard_normal((7, steps)))
        out = tmp_path / f"run.{fmt}"
        files.write_output(out, fmt, {}, series, {}, None)
        tracemalloc.start()
        try:
            back = read_series(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 8 * steps + 8 * files.READ_CHUNK
        if fmt == "json":
            for name in ObservableSeries.COLUMNS:
                assert getattr(back, name).tobytes() == getattr(series, name).tobytes()

    def test_json_read_memory_is_bounded_by_the_columns_at_200000_steps(self, tmp_path):
        # A second copy of any one column would pass the bound at 50,000
        # steps but not here.
        self.test_read_memory_is_bounded_by_the_columns(tmp_path, "json", steps=200_000)

    def test_write_memory_does_not_grow_with_steps(
        self, tmp_path, monkeypatch, fmt="json", per_step=7 * 8
    ):
        # tracemalloc sees the text, the float objects and numpy's buffers.
        # Writing ten times the steps may add `per_step` bytes a step (here
        # the seven output columns) and a few chunks of rendered rows (about
        # 64 bytes per value), no more.
        real = pipeline.write_output
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                real(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(pipeline, "write_output", traced)
        short, long = 4_000, 40_000
        for steps in (short, short, long):  # the first run warms caches
            run_scenario(small_spec(tmp_path, fmt=fmt, steps=steps))
        growth = peaks[2] - peaks[1]
        chunk = files.ROW_CHUNK * 7 * 64
        assert growth <= per_step * (long - short) + 3 * chunk

    def test_csv_write_memory_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # CSV rows are stacked a chunk at a time, never for the whole series.
        self.test_write_memory_does_not_grow_with_steps(tmp_path, monkeypatch, "csv", 0)

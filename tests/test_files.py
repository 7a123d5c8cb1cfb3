"""The CSV and JSON value renderers against Python's own f"{v:.11e}" and
repr(float(v))."""

import functools
import json
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhdimer import files
from bhdimer.cli import main
from bhdimer.observables import ObservableSeries

# np.float64 as the working type stands for a platform whose long double is
# a plain double: more values go to Python, the bytes must not change.
WORKS = [np.longdouble, np.float64]

LARGEST = np.finfo(np.float64).max
POWERS = np.array([10.0**k for k in range(-323, 309)])

# The widths in which the renderers have files._python format a value: a CSV
# slot less its separator, and a JSON value's words.
CSV_WIDTH, JSON_WIDTH = files._LAYOUT.itemsize - 1, 8 * files._WORDS


@pytest.fixture
def sent(monkeypatch):
    """How many values have gone to files._python so far at a slot width:
    CSV_WIDTH for _Scientific, JSON_WIDTH for _Shortest."""
    sizes = {CSV_WIDTH: [], JSON_WIDTH: []}
    python = files._python

    def counted(values, form, width):
        sizes[width].append(values.size)  # one append per call, safe across threads
        return python(values, form, width)

    monkeypatch.setattr(files, "_python", counted)
    return lambda width: sum(sizes[width])


@functools.cache
def renderer(work) -> files._Scientific:
    return files._Scientific(work)


def expected(values) -> bytes:
    return "".join(f"{v:.11e}\n" for v in values).encode()


def render(work, values) -> bytes:
    return renderer(work)(np.asarray(values, dtype=np.float64))


def finite(bits) -> np.ndarray:
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("work", WORKS)
class TestScientific:
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_arbitrary_bit_patterns(self, work, bits):
        values = finite(bits)
        assert render(work, values) == expected(values)

    def test_many_random_bit_patterns(self, work):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = finite(bits)
        assert render(work, values) == expected(values)

    def test_zeros_subnormals_and_extremes(self, work):
        subnormals = [5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0)]
        values = [0.0, -0.0, 2.2250738585072014e-308, LARGEST, *subnormals]
        values += [-v for v in values]
        assert render(work, values) == expected(values)

    def test_powers_of_ten_and_neighbours(self, work):
        values = np.concatenate(
            [POWERS, np.nextafter(POWERS, np.inf), np.nextafter(POWERS, 0), -POWERS]
        )
        assert render(work, values) == expected(values)

    def test_exact_multiples_of_powers_of_ten(self, work):
        rng = np.random.default_rng(7)
        digits = np.concatenate([[1, 9, 10**11, 10**12 - 1], rng.integers(1, 10**12, 2000)])
        values = [float(d) * 10.0**k for d in digits for k in (-30, -11, -1, 0, 3, 11, 40)]
        assert render(work, values) == expected(values)

    def test_rounding_boundaries_and_ties(self, work):
        boundary = np.array([9.999999999995 * 10.0**k for k in range(-300, 300)])
        ties = [123456789012.5, 123456789013.5, 100000000000.5, 999999999999.5, 0.5, 2.5]
        values = np.concatenate(
            [boundary, np.nextafter(boundary, np.inf), np.nextafter(boundary, 0), ties]
        )
        assert render(work, values) == expected(values)

    def test_every_value_sent_to_python(self, work, sent):
        scientific = files._Scientific(work)
        scientific.band = 1.0  # every scaled fraction lies within 1 of 1/2
        rng = np.random.default_rng(11)
        values = np.concatenate([finite(rng.integers(0, 2**64, 693, dtype=np.uint64)), POWERS])
        rows = values[: len(values) // 7 * 7].reshape(-1, 7)
        lines = [",".join(f"{v:.11e}" for v in row) + "\n" for row in rows]
        assert scientific(*rows.T) == "".join(lines).encode()
        assert sent(CSV_WIDTH) == rows.size


def test_fig_rabi_is_rendered_without_python(tmp_path, capsys, sent):
    # A band wide enough to send every value to Python still gives the right
    # bytes, only about 3x slower; this count is what shows it. The sidecar's
    # JSON values are not counted: near-ties go to repr there by design.
    assert main(["--preset", "fig-rabi", "--n", "400", "--out", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert sent(CSV_WIDTH) == 0


@functools.cache
def shortest_renderer(work) -> files._Shortest:
    return files._Shortest(work)


def shortest(work, values) -> bytes:
    words = shortest_renderer(work)(np.asarray(values, dtype=np.float64)[:, None])
    newline = np.full((len(words), 1), ord("\n"), "<u8")  # "\n" and seven 0 bytes
    return files._squeeze(np.hstack([words, newline]).view(np.uint8))


def reprs(values) -> bytes:
    return "".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, 0)])


def exact_ties() -> np.ndarray:
    """Doubles q / 2**(k + 1), q odd, that times 10**k are an integer of 17
    digits plus 1/2: exact ties at the last digit, for k from 1 to 24."""
    values = []
    for k in range(1, 25):
        q = -(-2 * 10**16 // 5**k) | 1  # the least odd q with q * 5**k / 2 >= 1e16
        values += [math.ldexp(q + i, -k - 1) for i in range(0, 8, 2) if (q + i) * 5**k < 2e17]
    return np.array(values)


@pytest.mark.parametrize("work", WORKS)
class TestShortest:
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_arbitrary_bit_patterns(self, work, bits):
        values = finite(bits)
        assert shortest(work, values) == reprs(values)

    def test_many_random_bit_patterns(self, work):
        bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = finite(bits)
        assert shortest(work, values) == reprs(values)

    def test_zeros_subnormals_and_extremes(self, work):
        subnormals = [5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0)]
        values = [0.0, -0.0, 2.2250738585072014e-308, LARGEST, *subnormals]
        values += [-v for v in values]
        assert shortest(work, values) == reprs(values)

    def test_every_power_of_two(self, work):
        # 2**-52 and 2**-51 fill the norm_error column; a power of two has a
        # neighbour twice as close below as above.
        values = 2.0 ** np.arange(-1074, 1024)
        assert shortest(work, values) == reprs(values)
        assert shortest(work, -values) == reprs(-values)

    def test_powers_of_ten_and_neighbours(self, work):
        values = with_neighbours(POWERS)
        assert shortest(work, values) == reprs(values)

    def test_exact_ties_and_their_neighbours(self, work):
        values = with_neighbours(exact_ties())
        assert shortest(work, values) == reprs(values)

    def test_fixed_and_scientific_switch(self, work):
        values = with_neighbours([1e-4, 1e-5, 1e15, 1e16, 9.9999e-5, 1.5e16, 123456789012345.6])
        values = np.concatenate([values, -values])
        assert shortest(work, values) == reprs(values)

    def test_integers_and_every_digit_count(self, work):
        rng = np.random.default_rng(5)
        integers = [1.0, 9.0, 10.0, 100.0, 8.0, 1234.0, 2.0**53, 2.0**53 + 2, 1e22, 1e23]
        digits = [float(rng.integers(1, 10**n)) for n in range(1, 18) for _ in range(40)]
        values = [d * 10.0**k for d in integers + digits for k in (-20, -7, -3, 0, 2, 9, 30)]
        assert shortest(work, values) == reprs(values)

    def test_every_value_sent_to_python(self, work, sent):
        renderer = files._Shortest(work)
        renderer.band = 1e17  # every scaled value lies within 1e17 of a tie
        rng = np.random.default_rng(13)
        values = np.concatenate([finite(rng.integers(0, 2**64, 693, dtype=np.uint64)), POWERS])
        values = values[values != 0]  # a zero never goes to Python
        text = renderer(values[:, None]).view(np.uint8).reshape(len(values), -1)
        assert [bytes(row).replace(b"\0", b"") for row in text] == [
            repr(v).encode() for v in values.tolist()
        ]
        assert sent(JSON_WIDTH) == values.size


def test_near_ties_of_17_digits_are_settled_without_python(sent):
    # |v| * 10**k within band of an integer plus 1/2, but not on it, with 17
    # digits in repr: settled exactly in numpy. Exact ties go to Python.
    rng = np.random.default_rng(29)
    near = []
    for v in rng.uniform(1.0, 1000.0, 20_000).tolist():
        s = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
        if 0 < abs(s - math.floor(s) - Fraction(1, 2)) < 0.02 and len(repr(v)) == 18:
            near.append(v)
    renderer = files._Shortest()
    assert renderer.band < 1 / 3 and len(near) > 100
    text = renderer(np.array(near)).view(np.uint8).reshape(len(near), -1)
    assert sent(JSON_WIDTH) == 0
    assert [bytes(row).replace(b"\0", b"") for row in text] == [repr(v).encode() for v in near]
    ties = exact_ties()
    renderer(ties)
    assert 0 < sent(JSON_WIDTH) <= ties.size


def test_renderers_share_their_tables():
    assert files._Shortest().powers is files._Scientific().powers
    assert files._Scientific().four is files._four_digits()


def test_fallback_count_kept_across_threads(sent):
    # Eight threads share one renderer, as a sweep's cells do: each gets the
    # words of a serial render, and every value reaches files._python once.
    renderer = files._Shortest()
    renderer.band = 1e17
    values = POWERS[:50, None]
    serial = renderer(values)
    before = sent(JSON_WIDTH)
    results = [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda out=out: out.extend(renderer(values) for _ in range(20)))
            for out in results
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sent(JSON_WIDTH) - before == 8 * 20 * values.size
    assert all(np.array_equal(words, serial) for out in results for words in out)
    assert [len(out) for out in results] == [20] * 8


def test_fig_selftrap_is_rendered_mostly_without_python(tmp_path, capsys, sent):
    # A JSON run at N=100: exact ties, and multiples near an end of the
    # rounding interval whose search level falls by one, go to Python, about
    # 0.2% of the series and envelope values; far more means the fast path
    # broke.
    out = tmp_path / "s.json"
    argv = ["--preset", "fig-selftrap", "--n", "100", "--steps", "4000", "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    written = json.loads(out.read_text())
    envelope = written["summary"]["collapse_revival"]["envelope"]
    values = sum(len(column) for column in [*written["series"].values(), *envelope.values()])
    assert len(envelope["t"]) > 0
    assert sent(JSON_WIDTH) <= 0.005 * values


def test_multiples_near_an_interval_end_are_settled_without_python(sent):
    # repr's multiple d of 10**j lies within band inside an end of the
    # rounding interval of |v| * 10**k, and no multiple of 10**(j + 1) lies
    # within 2 band of the interval (which the widened search would pick
    # instead): settled exactly in numpy. With v = M * 2**E, the ends times
    # 2**(2 - E) are (4M -+ 2) * 10**k, or (4M - 1) * 10**k below a power of
    # two.
    renderer = files._Shortest()
    band = Fraction(renderer.band)
    rng = np.random.default_rng(31)
    near = []
    for v in rng.uniform(1.0, 1000.0, 100_000).tolist():
        k = 16 - math.floor(math.log10(v))
        mantissa, exponent = math.frexp(v)
        m, scale = int(mantissa * 2**53), 2 ** (55 - exponent)
        text = repr(v)
        d = int(text.replace(".", "")) * 10 ** (k - len(text) + text.index(".") + 1)
        ends = ((4 * m - 1 - (m != 2**52)) * 10**k, (4 * m + 2) * 10**k)
        gaps = (d * scale - ends[0], ends[1] - d * scale)
        if not 0 < min(gaps) <= band * scale:
            continue
        j = next(j for j in range(17, -1, -1) if d % 10**j == 0)
        wide, low, high = 10 ** (j + 1), Fraction(ends[0], scale), Fraction(ends[1], scale)
        if (high + 2 * band) // wide * wide <= low - 2 * band:
            near.append(v)
    assert renderer.band < 1 / 3 and len(near) > 100
    text = renderer(np.array(near)).view(np.uint8).reshape(len(near), -1)
    assert sent(JSON_WIDTH) == 0
    assert [bytes(row).replace(b"\0", b"") for row in text] == [repr(v).encode() for v in near]


def test_a_band_near_one_third_is_settled_exactly(sent):
    # A band of 0.3, still under the 1/3 that exact settling takes, flags
    # far more near-ties and multiples near an end than the long double's
    # does: those settled in integers must still give repr's bytes. Where
    # 0 <= k < 28, most flagged values are settled so.
    renderer = files._Shortest()
    renderer.band = 0.3
    rng = np.random.default_rng(37)
    uniform = rng.uniform(1e-3, 1e3, 50_000)
    others = np.concatenate(
        [finite(rng.integers(0, 2**64, 50_000, dtype=np.uint64)), 2.0 ** np.arange(-60, 60)]
    )
    for values in (uniform, others):
        text = renderer(values[:, None]).view(np.uint8).reshape(len(values), -1)
        assert [bytes(row).replace(b"\0", b"") for row in text] == [
            repr(v).encode() for v in values.tolist()
        ]
        if values is uniform:
            assert sent(JSON_WIDTH) < 0.05 * values.size


def test_runs_of_equal_values_across_chunks(tmp_path, monkeypatch, sent):
    # Equal bits recur within and across the 7 * ROW_CHUNK chunks of a
    # streamed list, in runs and apart: 0.0 and -0.0 stay apart, in a run
    # and alternating, the smallest subnormal repeats, two values alternate
    # across a chunk boundary, and a value the renderer hands to Python
    # opens and closes the list and recurs mid-chunk.
    chunk = 7 * files.ROW_CHUNK
    slow = 0.10490011715303971
    renderer = files._json_renderer()
    renderer(np.array([[slow]]))
    assert sent(JSON_WIDTH) > 0
    column = np.arange(2 * chunk + 6) * 0.25
    column[:3] = slow
    column[100:140] = np.where(np.arange(40) % 2, 0.0, -0.0)
    column[500:4000:700] = slow
    column[chunk - 30 : chunk + 30] = np.where(np.arange(60) % 2, 1.5, -2.75)
    column[chunk - 2 : chunk + 2] = [0.0, -0.0, -0.0, 0.0]
    column[2 * chunk - 3 : 2 * chunk + 3] = 5e-324
    column[2 * chunk + 3 :] = slow
    columns = {name: np.roll(column, 3 * i) for i, name in enumerate(ObservableSeries.COLUMNS)}
    columns["imbalance"] = -column
    envelope = np.column_stack([column, column[::-1]])  # strided columns
    rendered = []

    def counted(rows, lead):
        rendered.append(rows.size)
        return renderer(rows, lead)

    monkeypatch.setattr(files, "_json_renderer", lambda: counted)
    out = tmp_path / "runs.json"
    summary = {"collapse_revival": {"detected": False}}
    files.write_output(out, "json", {}, ObservableSeries(**columns), summary, envelope)
    lists = {"t": column, "amplitude": column[::-1]}
    payload = {
        "spec": {},
        "summary": {"collapse_revival": {"detected": False, "envelope": lists}},
        "series": columns,
    }
    assert out.read_text() == json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
    # Each chunk renders each of its distinct bit patterns once, no more.
    distinct = 0
    for values in [*columns.values(), *lists.values()]:
        for start in range(0, values.size, chunk):
            distinct += np.unique(values[start : start + chunk].view(np.int64)).size
    assert sum(rendered) == distinct < 9 * column.size


def test_chunks_with_and_without_the_exponent_word(tmp_path):
    # A value takes _WORDS words in every chunk of a streamed list, whatever
    # its notation. Chunks: all fixed notation, one scientific value first,
    # one last, and only zeros of either sign. The envelope's items are led
    # by a two-word separator, the series' by one.
    chunk = 7 * files.ROW_CHUNK
    column = np.linspace(1.0, 2.0, 4 * chunk)
    column[chunk] = 1e-7
    column[3 * chunk - 1] = -2.5e16
    column[3 * chunk :] = np.where(np.arange(chunk) % 3, 0.0, -0.0)
    columns = {name: column * (i + 1) for i, name in enumerate(ObservableSeries.COLUMNS)}
    envelope = np.column_stack([column, -column])
    out = tmp_path / "layout.json"
    summary = {"collapse_revival": {"detected": False}}
    files.write_output(out, "json", {}, ObservableSeries(**columns), summary, envelope)
    lists = {"t": column, "amplitude": -column}
    payload = {
        "spec": {},
        "summary": {"collapse_revival": {"detected": False, "envelope": lists}},
        "series": columns,
    }
    assert out.read_text() == json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
    renderer = files._json_renderer()
    widths = [renderer(column[i : i + chunk]).shape[1] for i in range(0, column.size, chunk)]
    assert widths == [files._WORDS] * 4

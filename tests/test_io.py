"""File formats: exact CSV round trips, graymaps, configuration parsing."""

import dataclasses
import io
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pacavity as pv
from pacavity import csvtext
from pacavity import io as pio

from helpers import graded, smooth_random_field


class TestFieldFiles:
    def test_zero_field_round_trip(self, tmp_path):
        g = pv.Grid2D(17)
        path = tmp_path / "zero.csv"
        pio.write_field(path, pv.ScalarField.zeros(g))
        back = pio.read_field(path)
        assert back.grid.n == 17
        assert np.array_equal(back.values, np.zeros((17, 17)))

    def test_random_field_round_trip_bit_identical(self, tmp_path):
        g = pv.Grid2D(33)
        rng = np.random.default_rng(0)
        f = pv.ScalarField(g, rng.standard_normal((33, 33)) * 10.0 ** rng.integers(-8, 8, (33, 33)))
        path = tmp_path / "field.csv"
        pio.write_field(path, f)
        back = pio.read_field(path)
        assert np.array_equal(back.values, f.values)

    def test_graymap_constant_field(self, tmp_path):
        g = pv.Grid2D(9)
        path = tmp_path / "const.pgm"
        pio.write_field(path, pv.ScalarField.constant(g, 4.2))
        data = path.read_bytes()
        assert data.startswith(b"P5")
        pixels = np.frombuffer(data[data.index(b"65535\n") + 6:], dtype=">u2")
        assert pixels.size == 81
        assert np.all(pixels == pixels[0])

    def test_graymap_deterministic(self, tmp_path):
        g = pv.Grid2D(17)
        f = smooth_random_field(g, np.random.default_rng(1))
        pio.write_field(tmp_path / "a.pgm", f)
        pio.write_field(tmp_path / "b.pgm", f)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# pacavity field v1\n# n = 4\n1,2,3,4\n1,oops,3,4\n0,0,0,0\n0,0,0,0\n")
        with pytest.raises(pio.ParseError, match=r":4"):
            pio.read_field(path)

    @pytest.mark.parametrize("text, message", [
        ("# pacavity field v1\n1.0,2.0\n3.0,4.0\n", r"missing '# n = \.\.\.' header"),
        ("# pacavity field v1\n# n = 2.5\n1.0,2.0\n3.0,4.0\n", "header 'n' is not an integer"),
        ("# pacavity field v1\n# n = 4\n" + "1,2,3,4\n" * 3, "expected 4 data rows, got 3"),
        ("# pacavity field v1\n# n = 2\n1.0,2.0\n3.0,4.0\n", r"header 'n': .*>= 4, got 2"),
        ("# pacavity field v1\n# n = 4\n" + "1,2,3,4\n" * 3 + "1,nan,3,4\n", "non-finite"),
        # n is refused before the rows, which would be refused too
        ("# pacavity field v1\n# n = -1\n" + "oops\n" * 3, r"header 'n': .*got -1$"),
        ("# pacavity field v1\n# n = 1000000000\n" + "oops\n" * 3,
         r"header 'n': .*got 1000000000$"),
    ], ids=["no_n", "non_integer_n", "row_count", "too_small_n", "non_finite", "negative_n",
            "huge_n"])
    def test_bad_field_file_names_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(pio.ParseError, match=message) as info:
            pio.read_field(path)
        assert str(info.value).startswith(f"{path}:")

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "field.csv"
        pio.write_field(path, pv.ScalarField.zeros(pv.Grid2D(9)))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4].replace(b"e", b"\xe9", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(pio.ParseError, match="can't decode byte 0xe9") as info:
            pio.read_field(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_unknown_extension(self, tmp_path):
        g = pv.Grid2D(9)
        with pytest.raises(pv.ConfigError):
            pio.write_field(tmp_path / "f.npy", pv.ScalarField.zeros(g))
        with pytest.raises(pv.ConfigError):
            pio.read_field(tmp_path / "f.pgm")


class TestTraceFiles:
    def test_empty_trace_header_only(self, tmp_path):
        # no trace holds fewer than 3 time levels (2 steps), so write_trace
        # cannot make this file: it is written by hand
        path = tmp_path / "empty.csv"
        path.write_text("# pacavity trace v4; n = 9; dt = 0.125; gamma = full; lambda = 1.0\n")
        with pytest.raises(pio.ParseError, match="0 time levels") as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}:")

    def test_synthesized_trace_round_trip(self, tmp_path):
        g = pv.Grid2D(17)
        bs = pv.BoundarySpec.left_bottom(g)
        f = smooth_random_field(g, np.random.default_rng(2))
        trace = pv.synthesize_data(f, bs, 1.0, g.dt)
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        back = pio.read_trace(path)
        assert back.dt == trace.dt
        assert np.array_equal(back.samples, trace.samples)
        # writing again reproduces the file byte for byte
        pio.write_trace(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_header_carries_dt_gamma_and_lambda(self, tmp_path):
        g = pv.Grid2D(17, dt=0.3 * pv.Grid2D(17).dx)
        bs = graded(g)
        trace = pv.synthesize_data(smooth_random_field(g, np.random.default_rng(3)),
                                   bs, 60 * g.dt, g.dt)
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        back = pio.read_trace(path)
        assert back.grid == g and back.dt == g.dt
        # a trace has no time step of its own: dt is always its grid's
        assert "dt" not in {fld.name for fld in dataclasses.fields(back)}
        assert np.array_equal(back.bspec.gamma, bs.gamma)
        assert np.array_equal(back.bspec.lam, bs.lam)
        assert np.array_equal(back.samples, trace.samples)

    def test_forward_solve_trace_keeps_its_boundary_spec(self, tmp_path):
        g = pv.Grid2D(17)
        bs = graded(g)
        s0 = pv.StatePair(smooth_random_field(g, np.random.default_rng(4)),
                          pv.ScalarField.zeros(g))
        trace = pv.forward_solve(s0, pv.ScalarField.constant(g, 1.0), bs, 1.0).trace
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        back = pio.read_trace(path)
        assert back.bspec == bs
        assert np.array_equal(back.samples, trace.samples)

    @pytest.mark.parametrize("entry, message", [("dt = soon", "'dt'"),
                                                ("gamma = 0,99", "'gamma'"),
                                                ("gamma = full; lambda = 1,2", "'lambda'"),
                                                ("gamma = 0,1; lambda = -1", "'lambda'"),
                                                ("gamma = 0,1; lambda = 0,1", "'lambda'"),
                                                ("gamma = 5,3,4", "'gamma'"),
                                                ("gamma = 3,3,4", "'gamma'"),
                                                ("dt", "'dt'"),
                                                ("gamma", "'gamma'"),
                                                ("lambda", "'lambda'"),
                                                ("n", r"missing '# n = \.\.\.' header"),
                                                ("n = nine", "'n' is not an integer: 'nine'"),
                                                ("n = 3", r"header 'n': .*<= 8193 and >= 4, got 3$"),
                                                ("n = 8194",
                                                 r"header 'n': .*<= 8193 and >= 4, got 8194$"),
                                                # the rows are n = 9's
                                                ("n = 10", ":2: expected 36 values per row, got 32")])
    def test_bad_header_entry_names_key(self, tmp_path, entry, message):
        # each entry replaces the written one of its key; a bare key drops it
        g = pv.Grid2D(9)
        path = tmp_path / "trace.csv"
        pio.write_trace(path, pv.BoundaryTrace(pv.BoundarySpec.full(g), np.ones((3, 32))))
        text = path.read_text().splitlines()
        header = {"n": "9", "dt": repr(g.dt), "gamma": "full", "lambda": "1.0"}
        for part in entry.split("; "):
            name, _, value = part.partition(" = ")
            header[name] = value
        text[0] = "# pacavity trace v4; " + "; ".join(f"{k} = {v}" for k, v in header.items() if v)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(pio.ParseError, match=message) as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}:")

    @pytest.mark.parametrize("line", [0, 3], ids=["header_comment", "data_row"])
    def test_undecodable_byte_names_file(self, tmp_path, line):
        path = tmp_path / "trace.csv"
        pio.write_trace(path, pv.BoundaryTrace(pv.BoundarySpec.full(pv.Grid2D(9)),
                                               np.ones((3, 32))))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line] = lines[line].replace(b"e", b"\xe9", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(pio.ParseError, match="can't decode byte 0xe9") as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_wrong_column_count_rejected(self, tmp_path):
        # n = 9 has 32 boundary nodes
        path = tmp_path / "bad.csv"
        path.write_text("# pacavity trace v4; n = 9; dt = 0.125; gamma = full; lambda = 1.0\n"
                        + ",".join(["0"] * 7) + "\n")
        with pytest.raises(pio.ParseError, match=":2: expected 32 values per row, got 7") as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}:")

    def test_too_few_node_columns_is_a_column_error(self, tmp_path):
        # 8 node columns would be n = 3, below the smallest grid: the error
        # is about the header's n, not about its dt
        path = tmp_path / "small.csv"
        path.write_text("# pacavity trace v4; n = 3; dt = 0.5; gamma = full; lambda = 1.0\n"
                        + ",".join(["0"] * 8) + "\n")
        with pytest.raises(pio.ParseError, match=r"header 'n': .*got 3$") as info:
            pio.read_trace(path)
        assert "'dt'" not in str(info.value)

    def test_v2_trace_is_refused(self, tmp_path):
        # a v2 trace has a time column and a t,node_0,... row, and no n entry
        path = tmp_path / "v2.csv"
        path.write_text("# pacavity trace v2; dt = 0.125; gamma = full; lambda = 1.0\n"
                        "t," + ",".join(f"node_{b}" for b in range(32)) + "\n"
                        + "".join(f"{j * 0.125!r}," + ",".join(["0"] * 32) + "\n"
                                  for j in range(3)))
        with pytest.raises(pio.ParseError, match=r"missing '# n = \.\.\.' header") as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}:")

    @pytest.mark.parametrize("gamma", ["left_bottom", "node_list"])
    def test_parent_layout_partial_trace_is_refused(self, tmp_path, gamma):
        # v3 wrote all 4n - 4 nodes a row, zeros off Gamma, under the same
        # header; a row now holds Gamma's values only, so its width is wrong
        g = pv.Grid2D(33)
        bs = (pv.BoundarySpec.left_bottom(g) if gamma == "left_bottom"
              else pv.BoundarySpec.from_node_list(g, range(0, 128, 3)))
        path = tmp_path / "v3.csv"
        pio.write_trace(path, pv.BoundaryTrace(bs, np.ones((3, bs.gamma.size))))
        header = path.read_bytes().split(b"\n", 1)[0].replace(b"trace v4", b"trace v3")
        rows = np.zeros((3, 128))
        rows[:, bs.gamma] = 1.0
        with open(path, "wb") as fh:
            fh.write(header + b"\n")
            csvtext.write_rows(fh, rows)
        width = {"left_bottom": 65, "node_list": 43}[gamma]
        with pytest.raises(pio.ParseError,
                           match=f":2: expected {width} values per row, got 128") as info:
            pio.read_trace(path)
        assert str(info.value).startswith(f"{path}:")

    def test_ragged_row_rejected(self, tmp_path):
        g = pv.Grid2D(9)
        trace = pv.BoundaryTrace(pv.BoundarySpec.full(g), np.ones((3, 32)))
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        text = path.read_text().splitlines()
        text[2] = text[2].rsplit(",", 1)[0]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(pio.ParseError, match=r":3"):
            pio.read_trace(path)


def _expected_csv(rows) -> bytes:
    return b"".join(b",".join(b"%.16e" % v for v in row) + b"\n" for row in rows)


def _token(digits: int, exponent: int) -> str:
    """The '%.16e' token of digits * 10**(exponent - 16), digits < 10**17."""
    text = f"{digits:017d}"
    return f"{text[0]}.{text[1:]}e{exponent:+03d}"


def _tokens_around(value: Fraction, spread: int = 2) -> list[str]:
    """The 17-digit tokens nearest a positive value, and `spread` more on
    each side."""
    exponent = math.floor(math.log10(value))
    digits = math.floor(value / Fraction(10) ** (exponent - 16))
    if digits >= 10 ** 17:  # log10 rounded up across a power of ten
        exponent += 1
        digits = math.floor(value / Fraction(10) ** (exponent - 16))
    return [_token(d, exponent) for d in range(digits - spread, digits + spread + 2)
            if 0 < d < 10 ** 17]


def _read_tokens(tokens) -> np.ndarray:
    return csvtext.read_rows(io.BytesIO((",".join(tokens) + "\n").encode()), len(tokens))


@pytest.mark.filterwarnings("error")
class TestExactWriter:
    """The CSV writer's bytes are '%.16e' of every value, which reloads bit
    for bit, and the reader parses them back exactly; warnings are errors."""

    @staticmethod
    def sample():
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2 ** 64, 1 << 16, dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
        special = np.concatenate([
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            rng.integers(1, 2 ** 52, 512, dtype=np.uint64).view(np.float64),  # subnormals
            [0.0, 5e-324, tiny, np.nextafter(tiny, 0), huge, np.nextafter(huge, 0),
             1000000000000000.25, 3 * 2.0 ** -24],  # the last two are rounding ties
        ])
        values = np.concatenate([bits[np.isfinite(bits)], special])
        return np.concatenate([values, -values])

    @pytest.mark.parametrize("cols", [1024, 7, 1])
    def test_bytes_equal_percent_16e(self, cols):
        # 1024 columns make blocks of 32 rows, so several blocks are written
        values = self.sample()
        rows = values[:values.size - values.size % cols].reshape(-1, cols)
        buf = io.BytesIO()
        csvtext.write_rows(buf, rows)
        assert buf.getvalue() == _expected_csv(rows)

    def test_views_write_the_bytes_of_their_copies(self):
        # write_rows formats views of the caller's rows, not copies of them
        values = self.sample()
        rows = values[:values.size - values.size % 14].reshape(-1, 14)
        for view in (rows[:, ::2], rows[::3], rows.T[:, :1000]):
            assert not view.flags.c_contiguous
            buf, copy = io.BytesIO(), io.BytesIO()
            csvtext.write_rows(buf, view)
            csvtext.write_rows(copy, view.copy())
            assert buf.getvalue() == copy.getvalue() == _expected_csv(view)

    def test_write_trace_leaves_the_samples_alone(self, tmp_path):
        values = self.sample()
        samples = values[:values.size - values.size % 32].reshape(-1, 32)
        before = samples.copy()
        trace = pv.BoundaryTrace(pv.BoundarySpec.full(pv.Grid2D(9)), samples)
        pio.write_trace(tmp_path / "trace.csv", trace)
        assert trace.samples.tobytes() == before.tobytes()

    @pytest.mark.parametrize("cols", [1024, 7, 1])
    def test_read_rows_bit_for_bit(self, cols, monkeypatch):
        # in 1000-byte chunks tokens straddle chunks, and a row of 1024
        # values is longer than a chunk
        values = self.sample()
        rows = values[:values.size - values.size % cols].reshape(-1, cols)
        buf = io.BytesIO()
        csvtext.write_rows(buf, rows)
        for chunk in (csvtext._READ_CHUNK, 1000):
            monkeypatch.setattr(csvtext, "_READ_CHUNK", chunk)
            buf.seek(0)
            back = csvtext.read_rows(buf, cols)
            assert back.shape == rows.shape and back.tobytes() == rows.tobytes()

    def test_sample_field_and_trace_read_back_bit_for_bit(self, tmp_path):
        values = self.sample()
        n = math.isqrt(values.size)
        field = pv.ScalarField(pv.Grid2D(n), values[:n * n].reshape(n, n))
        pio.write_field(tmp_path / "field.csv", field)
        assert pio.read_field(tmp_path / "field.csv").values.tobytes() == field.values.tobytes()
        # 1024 node columns: n = 257
        samples = values[:values.size - values.size % 1024].reshape(-1, 1024)
        trace = pv.BoundaryTrace(pv.BoundarySpec.full(pv.Grid2D(257)), samples)
        pio.write_trace(tmp_path / "trace.csv", trace)
        assert pio.read_trace(tmp_path / "trace.csv").samples.tobytes() == samples.tobytes()

    def test_grammar_edges_read_as_python_float(self):
        rng = np.random.default_rng(17)
        random17 = [int(d) for d in rng.integers(10 ** 16, 10 ** 17, 6)]
        tokens = [_token(d, e) for d in [10 ** 16, 10 ** 17 - 1, *random17]
                  # the fast range's ends, 3-digit exponents, subnormals, overflow
                  for e in (-255, -254, -200, -100, -99, 99, 100, 280, 281, 308, -320, 400)]
        for k in (-840, -300, -53, -1, 0, 1, 52, 53, 54, 200, 900):
            # next to 2**k from below: the midpoints on either side of the
            # double just below 2**k
            below = Fraction(2) ** k
            for m in (below * (1 - Fraction(1, 2 ** 54)), below * (1 - Fraction(3, 2 ** 54))):
                tokens += _tokens_around(m)
        # exact ties between two doubles, which round to even
        tokens += ["9.0071992547409930e+15", "9.0071992547409950e+15", "1.8014398509481983e+16",
                   "7.2057594037927936e+39",
                   "0.0000000000000000e+00", "0.0000000000000001e-254", "0.5000000000000000e+00"]
        tokens += ["-" + t for t in tokens]
        back = _read_tokens(tokens)
        expected = np.array([[float(t) for t in tokens]])
        assert back.tobytes() == expected.tobytes()

    def test_rounding_ties_go_to_python_float(self, monkeypatch):
        # an exact tie between two doubles, and the tie below 2**54, where the
        # gap is half the gap above, are read by float; their neighbours are not
        seen = []
        monkeypatch.setattr(csvtext, "float", lambda t: seen.append(t) or float(t),
                            raising=False)
        ties = ["9.0071992547409930e+15", "1.8014398509481983e+16"]
        back = _read_tokens(ties + ["9.0071992547409940e+15", "1.8014398509481984e+16"])
        assert back.tolist() == [[2.0 ** 53, 2.0 ** 54, 2.0 ** 53 + 2, 2.0 ** 54]]
        assert seen == [t.encode() for t in ties]

    @pytest.mark.parametrize("text", [
        b"", b"\n", b"1.0\n", b"nan\n", b"+1.0000000000000000e+00\n", b" 1.0000000000000000e+00\n",
        b"1.0000000000000000E+00\n", b"1.0000000000000000e+00\r\n", b"1.0000000000000000e+00",
        b"1.0000000000000000e+00,1.0000000000000000e+00\n1.0000000000000000e+00\n",
        b"1.0000000000000000e+00\n# comment\n", b"1.0000000000000000e+00\n\n",
        b"1.0000000000000000e+0\n", b"1.0000000000000000e+0000\n", b"1.000000000000000e+00\n",
        b"1.00000000000000000e+00\n", b"1,0000000000000000e+00\n", b"1.0000000000000000e*00\n",
        b"1.000000000000000/e+00\n", b"1.00000000:0000000e+00\n", b"1.0000000000000000e+0:\n",
        b"--1.0000000000000000e+00\n", b"\xff" * 23 + b"\n", b"1.0000000000000000e+00;2\n",
    ], ids=lambda text: repr(text)[2:-1][:40])
    def test_read_rows_refuses_other_text(self, text, monkeypatch):
        # the width of the first line, so that each text is refused for its syntax
        width = text.split(b"\n", 1)[0].count(b",") + 1
        for chunk in (csvtext._READ_CHUNK, 1000):
            monkeypatch.setattr(csvtext, "_READ_CHUNK", chunk)
            assert csvtext.read_rows(io.BytesIO(text), width) is None

    @pytest.mark.parametrize("shape", [(2, 1), (2, 3), (1, 4)])
    def test_read_rows_refuses_another_width(self, shape):
        # rows the writer wrote, read as rows of two values: a row of another
        # width, the first included, is outside the grammar
        buf = io.BytesIO()
        csvtext.write_rows(buf, np.ones(shape))
        buf.seek(0)
        assert csvtext.read_rows(buf, 2) is None
        buf.seek(0)
        assert csvtext.read_rows(buf, shape[1]).shape == shape

    @pytest.mark.parametrize("gamma", ["full", "left_bottom"])
    def test_trace_round_trip_bit_identical(self, tmp_path, gamma):
        g = pv.Grid2D(33)
        bs = getattr(pv.BoundarySpec, gamma)(g)
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((200, 128)) * 10.0 ** rng.integers(-30, 30, (200, 128))
        trace = pv.BoundaryTrace(bs, samples[:, bs.gamma])
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        back = pio.read_trace(path)
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.bspec == bs

    def test_trace_written_by_savetxt_reads_bit_identically(self, tmp_path):
        # rows as earlier versions wrote them: np.savetxt with '%.17g'
        g = pv.Grid2D(17)
        trace = pv.synthesize_data(smooth_random_field(g, np.random.default_rng(6)),
                                   pv.BoundarySpec.left_bottom(g), 1.0, g.dt)
        path = tmp_path / "trace.csv"
        gamma = ",".join(str(b) for b in trace.bspec.gamma)
        with open(path, "w") as fh:
            fh.write(f"# pacavity trace v4; n = 17; dt = {g.dt!r}; gamma = {gamma}; "
                     "lambda = 1.0\n")
            np.savetxt(fh, trace.samples, fmt="%.17g", delimiter=",")
        back = pio.read_trace(path)
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.bspec == trace.bspec

    def test_memory_below_the_samples(self, tmp_path):
        # the n = 257, T = 5 trace: 1281 levels of 1024 nodes, 10.5 MB of samples
        g = pv.Grid2D(257)
        samples = np.random.default_rng(7).standard_normal((1281, 1024))
        trace = pv.BoundaryTrace(pv.BoundarySpec.full(g), samples)
        tracemalloc.start()
        try:
            pio.write_trace(tmp_path / "trace.csv", trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.nbytes

    def test_read_memory_near_the_samples(self, tmp_path):
        # the same trace, read back: the array is sized before it is filled
        g = pv.Grid2D(257)
        samples = np.random.default_rng(7).standard_normal((1281, 1024))
        pio.write_trace(tmp_path / "trace.csv", pv.BoundaryTrace(pv.BoundarySpec.full(g), samples))
        tracemalloc.start()
        try:
            back = pio.read_trace(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.samples.tobytes() == samples.tobytes()
        assert peak < 1.4 * samples.nbytes


@pytest.mark.filterwarnings("error")
class TestGeneralParserFallback:
    """Data outside the writer's grammar are read again from the first data
    line, a line at a time, with the same values; a bad row is named by its
    line."""

    @staticmethod
    def written_trace(tmp_path):
        g = pv.Grid2D(9)
        samples = np.random.default_rng(8).standard_normal((5, 32))
        trace = pv.BoundaryTrace(pv.BoundarySpec.full(g), samples)
        path = tmp_path / "trace.csv"
        pio.write_trace(path, trace)
        return path, trace

    @pytest.mark.parametrize("edit", ["crlf", "comment", "blank", "plus"])
    def test_trace_outside_the_grammar_reads_the_same(self, tmp_path, edit):
        path, trace = self.written_trace(tmp_path)
        lines = path.read_bytes().split(b"\n")  # header, 5 rows, b""
        if edit == "plus":
            lines[3] = b"+" + lines[3]  # the first value of row 2 is positive
        elif edit != "crlf":
            lines.insert(4, b"# a note" if edit == "comment" else b"")
        path.write_bytes((b"\r\n" if edit == "crlf" else b"\n").join(lines))
        data = path.read_bytes().split(b"\n", 1)[1]
        assert csvtext.read_rows(io.BytesIO(data), 32) is None
        back = pio.read_trace(path)
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.bspec == trace.bspec

    @pytest.mark.parametrize("kind", ["trace", "field"])
    def test_lone_cr_line_ends_are_refused(self, tmp_path, kind):
        # a file is read in binary, where only LF ends a line
        if kind == "trace":
            path, _ = self.written_trace(tmp_path)
        else:
            path = tmp_path / "field.csv"
            pio.write_field(path, smooth_random_field(pv.Grid2D(9), np.random.default_rng(9)))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        with pytest.raises(pio.ParseError) as info:
            (pio.read_trace if kind == "trace" else pio.read_field)(path)
        assert str(info.value).startswith(f"{path}:")

    @pytest.mark.parametrize("kind, line", [("trace", 2), ("field", 3)])
    def test_lone_cr_rows_name_their_first_line(self, tmp_path, kind, line):
        # the header lines end in LF and the rows in CR: the rows are one line
        if kind == "trace":
            path, _ = self.written_trace(tmp_path)
        else:
            path = tmp_path / "field.csv"
            pio.write_field(path, smooth_random_field(pv.Grid2D(9), np.random.default_rng(9)))
        *header, rows = path.read_bytes().split(b"\n", line - 1)
        path.write_bytes(b"\n".join([*header, rows.replace(b"\n", b"\r")]))
        with pytest.raises(pio.ParseError,
                           match=f"^{re.escape(str(path))}:{line}: .*lone CR: rows must end"):
            (pio.read_trace if kind == "trace" else pio.read_field)(path)

    def test_ragged_crlf_row_is_not_blamed_on_its_line_end(self, tmp_path):
        # a CR that ends its line with LF after it is a CRLF ending
        path, _ = self.written_trace(tmp_path)
        header, first, rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\r\n".join([header, first.rsplit(b",", 1)[0], rest]))
        with pytest.raises(pio.ParseError, match=f"^{re.escape(str(path))}:2: expected") as info:
            pio.read_trace(path)
        assert "CR" not in str(info.value)

    def test_crlf_trace_memory_near_the_samples(self, tmp_path):
        # the n = 257, T = 5 trace with CRLF line ends: the exact reader
        # refuses its first chunk before it makes an array, and the line
        # reader sizes its array from the lines before it is filled
        g = pv.Grid2D(257)
        samples = np.random.default_rng(7).standard_normal((1281, 1024))
        path = tmp_path / "trace.csv"
        pio.write_trace(path, pv.BoundaryTrace(pv.BoundarySpec.full(g), samples))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        tracemalloc.start()
        try:
            back = pio.read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.samples.tobytes() == samples.tobytes()
        assert peak < 1.05 * samples.nbytes

    def test_long_row_over_blank_lines_is_refused_by_its_line(self, tmp_path):
        # 2.4 MB: a first row of 200 000 values over 2 000 000 blank lines
        # would size a 2.9 TiB array from the first row and the line count
        path = tmp_path / "trace.csv"
        path.write_bytes(b"# pacavity trace v4; n = 9; dt = 0.125; gamma = full; lambda = 1.0\n"
                         + b",".join([b"0"] * 200_000) + b"\n" * 2_000_001)
        tracemalloc.start()
        try:
            with pytest.raises(pio.ParseError,
                               match=f"^{re.escape(str(path))}:2: expected 32 values per row"):
                pio.read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

    def test_field_with_nan_token_is_refused(self, tmp_path):
        f = smooth_random_field(pv.Grid2D(9), np.random.default_rng(9))
        path = tmp_path / "field.csv"
        pio.write_field(path, f)
        text = path.read_bytes()
        token = b"%.16e" % f.values[4, 4]
        assert text.count(token) == 1
        path.write_bytes(text.replace(token, b"nan"))
        with pytest.raises(pio.ParseError, match="non-finite") as info:
            pio.read_field(path)
        assert str(info.value).startswith(f"{path}:")


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        cfg = pio.parse_config(path)
        assert cfg.n == 257
        assert cfg.dt_factor == 0.5
        assert cfg.T == 5.0
        assert cfg.gamma == "full"
        assert cfg.noise == 0.0
        assert cfg.iterations == 1
        assert cfg.snap_time is False

    def test_partial_preset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gamma = left_bottom\n")
        assert pio.parse_config(path).gamma == "left_bottom"

    def test_node_list_gamma(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("gamma = 0, 1, 2, 5\n")
        cfg = pio.parse_config(path)
        assert cfg.gamma == [0, 1, 2, 5]
        bs = cfg.make_bspec(pv.Grid2D(9))
        assert bs.gamma.tolist() == [0, 1, 2, 5]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        # 'phantom' is not a key: bumps sets the phantom, the six-bump one by default
        # nor are 'taper', 'lambda' and 'subspace': a run inverts with lambda = 1
        # on Gamma (a trace with its recorded lambda) and iterates on H1
        for key, value in (("gamm", "full"), ("phantom", "paper-six"), ("taper", "-1"),
                           ("lambda", "1"), ("subspace", "H1")):
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(pv.ConfigError, match=f"unknown key '{key}'"):
                pio.parse_config(path)

    def test_readme_lists_every_key_with_its_default(self, tmp_path):
        # the README's key = value block documents the table and is itself a
        # valid configuration file that gives the defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Keys and defaults:", 1)[1].split("```")[1]
        documented = [line.partition("=")[0].strip() for line in block.strip().splitlines()]
        assert documented == list(pio.CONFIG_KEYS)
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert pio.parse_config(path) == pio.RunConfig()
        # and every RunConfig field is set by the key of its name
        assert (sorted(pio.CONFIG_KEYS)
                == sorted(fld.name for fld in dataclasses.fields(pio.RunConfig)))

    def test_config_keys_in_order(self):
        assert list(pio.CONFIG_KEYS) == ["n", "dt_factor", "T", "gamma", "bumps", "noise",
                                         "seed", "iterations", "out", "snap_time"]

    @pytest.mark.parametrize("entry, key", [("n = -5", "'n'"), ("seed = -1", "'seed'"),
                                            ("n = 4.5", "'n'"),
                                            ("T = inf", "'T'"),
                                            ("noise = -0.1",
                                             "'noise': value -0.1 out of range"),
                                            ("T = 0", "'T': value 0.0 out of range"),
                                            ("dt_factor = 0",
                                             "'dt_factor': value 0.0 out of range"),
                                            ("gamma = a,b", "'gamma': expected 'full'"),
                                            ("bumps = 0,0,0.2",
                                             "'bumps': bump 0 must be 'cx,cy,radius,"),
                                            ("dt_factor = 0.8", "'dt_factor'"),
                                            ("bumps = 0.1,x,0.2,1.0", "'bumps'"),
                                            ("snap_time = maybe", "'snap_time'"),
                                            # unknown keys now, still named in the error
                                            ("lambda = 0", "'lambda'"),
                                            ("subspace = H2", "'subspace'"),
                                            ("taper = -1", "'taper'"),
                                            ("n 65", "expected 'key = value'")])
    def test_out_of_range_n(self, tmp_path, entry, key):
        path = tmp_path / "c.cfg"
        path.write_text(entry + "\n")
        with pytest.raises(pv.ConfigError, match=key) as info:
            pio.parse_config(path)
        assert str(info.value).startswith(f"{path}:1: ")

    def test_seed_beyond_int64_accepted(self):
        # only a float is tested for finiteness: np.isfinite cannot take this int
        cfg = pio.RunConfig()
        pio.apply_config_entry(cfg, "seed", "12345678901234567890123")
        assert cfg.seed == 12345678901234567890123

    @pytest.mark.parametrize("entry, key", [("gamma = 0,99", "'gamma'"),
                                            ("gamma = ,", "'gamma'")])
    def test_boundary_spec_error_names_key(self, tmp_path, entry, key):
        path = tmp_path / "c.cfg"
        path.write_text(f"n = 9\n{entry}\n")
        cfg = pio.parse_config(path)
        with pytest.raises(pv.ConfigError, match=key):
            cfg.make_bspec(cfg.make_grid())

    def test_type_mismatch_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("T = soon\n")
        with pytest.raises(pv.ConfigError, match="'T'"):
            pio.parse_config(path)

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"n = 33  # caf\xe9\n")
        with pytest.raises(pv.ConfigError, match="can't decode byte 0xe9") as info:
            pio.parse_config(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = 65\nn = 129\n")
        with pytest.raises(pv.ConfigError, match="duplicate"):
            pio.parse_config(path)

    def test_bumps_parse_and_validate(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bumps = 0.1,0.2,0.15,1.0; -0.3,-0.3,0.2,0.5\n")
        cfg = pio.parse_config(path)
        assert len(cfg.bumps) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("bumps = 0.95,0.0,0.2,1.0\n")
        with pytest.raises(pv.ConfigError, match="bump 0"):
            pio.parse_config(bad)

    def test_non_finite_bump_names_key_and_bump(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bumps = 0.1,0.2,0.15,1.0; 0,0,nan,1\n")
        with pytest.raises(pv.ConfigError, match=r"c.cfg:1: key 'bumps': bump 1: .*finite"):
            pio.parse_config(path)

    def test_empty_bumps_give_the_six_bump_phantom(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bumps =\n")
        assert pio.parse_config(path).bumps == pv.PAPER_SIX
        path.write_text("bumps = ;\n")
        with pytest.raises(pv.ConfigError, match="no bumps given"):
            pio.parse_config(path)

    def test_snap_time_resolution(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n = 257\nT = 1.6\nsnap_time = true\n")
        cfg = pio.parse_config(path)
        grid = cfg.make_grid()
        assert cfg.resolve_T(grid.dt) == 410 * grid.dt
        cfg.snap_time = False
        with pytest.raises(pv.ConfigError):
            cfg.resolve_T(grid.dt)

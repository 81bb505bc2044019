"""File formats: exact CSV round trips, PPM parsing, manifests."""

import functools
import json
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from gramoverlap import LabelPartition, fileio
from gramoverlap.linalg import as_matrix
from gramoverlap.fileio import (
    image_to_points,
    luminance,
    read_labels,
    read_matrix_csv,
    read_partition_csv,
    read_ppm,
    write_labels,
    write_manifest,
    write_matrix_csv,
    write_partition_csv,
    write_ppm,
)


def parent_write_matrix_csv(path, m):
    """The reference: one format() call per value."""
    m = as_matrix(m, "matrix")
    lines = [",".join(format(v, ".17g") for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def parent_write_partition_csv(path, partition):
    """The reference: one indexed mask read per line."""
    mask = partition.inlier_mask()
    lines = [f"{i},{'G' if mask[i] else 'B'}" for i in range(partition.n)]
    Path(path).write_text("\n".join(lines) + "\n")


def written(write, tmp_path, *args):
    """The bytes a writer wrote, or the type and message of what it raised."""
    path = tmp_path / "out"
    path.unlink(missing_ok=True)
    try:
        write(path, *args)
    except ValueError as exc:
        return type(exc), str(exc)
    return path.read_bytes()


class TestWritersMatchTheParentWriters:
    def test_matrix_csv(self, tmp_path):
        rng = np.random.default_rng(4040)
        tiny, big = 5e-324, np.finfo(np.float64).max
        cases = [
            np.array([[-0.0, 0.0, tiny, -tiny, big, -big, 2.2250738585072014e-308]]),
            np.array([[1.0]]),
            [[1, 2, 3], [4, 5, 6]],
            np.arange(6.0).reshape(6, 1),
            np.float32([[0.1, 1e-8]]),
            np.array([[1.0, np.nan]]),
            np.array([[1.0, np.inf]]),
            np.zeros((0, 3)),
            np.ones(3),
        ]
        for _ in range(40):
            shape = tuple(rng.integers(1, 12, 2))
            m = rng.standard_normal(shape) * np.exp(rng.uniform(-650, 650, shape))
            m[rng.random(shape) < 0.1] = -0.0
            cases += [m, m + 1e6, np.ldexp(m, int(rng.integers(-60, 61)))]
        for m in cases:
            want = written(parent_write_matrix_csv, tmp_path, m)
            assert written(write_matrix_csv, tmp_path, m) == want

    def test_partition_csv(self, tmp_path):
        rng = np.random.default_rng(5050)
        masks = [np.zeros(0, bool), [True], [False], np.ones(7, bool), np.zeros(7, bool)]
        masks += [rng.random(int(rng.integers(1, 3000))) < rng.random() for _ in range(20)]
        # the lines of one digit width are built as one block: the blocks
        # must join at 9|10, 99|100, ...
        for n in (1, 9, 10, 11, 99, 100, 101, 1000, 4000, 10**5):
            masks += [rng.random(n) < 0.5, np.ones(n, bool)]
        for mask in masks:
            part = LabelPartition(mask)
            want = written(parent_write_partition_csv, tmp_path, part)
            assert written(write_partition_csv, tmp_path, part) == want


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        assert np.array_equal(m, back)

    def test_deterministic_bytes(self, tmp_path):
        m = np.random.default_rng(2).standard_normal((3, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(a, m)
        write_matrix_csv(b, m)
        assert a.read_bytes() == b.read_bytes()

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# d x n matrix\n1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,x\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_a_byte_that_is_not_utf8_names_its_line_and_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2,3\n4,5,\xe96\n")
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}:2: field 3 is not a number: '\\udce96'"


# Spellings that Python's int reads as 1 (or 2, or -1) but that are not
# ASCII decimal digits.
NON_DIGIT_INDICES = ["0_1", "0_2", "\u0661", "\uff11", "+1", "-1", "1.0"]


class TestLabels:
    def test_round_trip_sorted(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, [5, 1, 3])
        assert path.read_text() == "1\n3\n5\n"
        assert np.array_equal(read_labels(path), [1, 3, 5])

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_labels(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\nfoo\n")
        with pytest.raises(ValueError):
            read_labels(path)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"1\n\xe9\n")
        with pytest.raises(ValueError) as exc:
            read_labels(path)
        assert str(exc.value) == f"{path}:2: not an integer: '\\udce9'"

    def test_index_beyond_intp_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n" + "9" * 30 + "\n")
        with pytest.raises(ValueError, match=":2: index out of range"):
            read_labels(path)

    @pytest.mark.parametrize("bad", NON_DIGIT_INDICES)
    def test_only_ascii_digits_are_indices(self, tmp_path, bad):
        path = tmp_path / "labels.csv"
        path.write_text(f"0\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_labels(path)
        assert str(exc.value) == f"{path}:2: not an integer: {bad!r}"


class TestPartitionCsv:
    def test_round_trip(self, tmp_path):
        part = LabelPartition([True, False, True, False, False])
        path = tmp_path / "partition.csv"
        write_partition_csv(path, part)
        assert path.read_text() == "0,G\n1,B\n2,G\n3,B\n4,B\n"
        assert read_partition_csv(path) == part

    def test_missing_index_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("0,G\n2,B\n")
        with pytest.raises(ValueError, match="cover"):
            read_partition_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_text("0,G\n1,X\n")
        with pytest.raises(ValueError):
            read_partition_csv(path)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "partition.csv"
        path.write_bytes(b"0,G\n\xe91,B\n")
        with pytest.raises(ValueError) as exc:
            read_partition_csv(path)
        assert str(exc.value) == f"{path}:2: bad index '\\udce91'"

    @pytest.mark.parametrize("bad", NON_DIGIT_INDICES + ["1 ", ""])
    def test_only_ascii_digits_are_indices(self, tmp_path, bad):
        path = tmp_path / "partition.csv"
        path.write_text(f"0,G\n{bad},B\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_partition_csv(path)
        assert str(exc.value) == f"{path}:2: bad index {bad!r}"


class TestPpm:
    def test_header_parses_to_3x2_points(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6 2 1 255 " + bytes([1, 2, 3, 4, 5, 6]))
        img = read_ppm(path)
        assert img.shape == (1, 2, 3)
        points = image_to_points(img)
        assert points.shape == (3, 2)
        assert np.array_equal(points, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])

    def test_round_trip(self, tmp_path):
        img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_comments_and_newlines_allowed(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert read_ppm(path).shape == (1, 2, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5 1 1 255 " + bytes(1))
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6 1 1 65535 " + bytes(6))
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(path)

    def test_short_payload(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6 2 2 255 " + bytes(5))
        with pytest.raises(ValueError, match="payload"):
            read_ppm(path)

    @pytest.mark.parametrize(
        "header, field",
        [
            (b"P6\n+2 1_0\n2_55\n", b"+2"),
            (b"P6 2 1_0 255 ", b"1_0"),
            (b"P6 2 10 2_55 ", b"2_55"),
            (b"P6 2 10 +255 ", b"+255"),
        ],
    )
    def test_header_fields_take_ascii_digits_only(self, tmp_path, header, field):
        # int() would read each of these as a valid 10x2 header
        path = tmp_path / "img.ppm"
        path.write_bytes(header + bytes(60))
        with pytest.raises(ValueError) as info:
            read_ppm(path)
        assert str(info.value) == f"{path}: bad header field {field!r}"

    def test_luminance_rec601(self):
        img = np.array([[[255, 0, 0], [0, 255, 0]]], dtype=np.uint8)
        luma = luminance(img)
        assert luma.tolist() == [[round(0.299 * 255), round(0.587 * 255)]]


class TestManifest:
    def test_round_trip(self, tmp_path):
        payload = {"tool": "gramoverlap", "options": {"n": 4, "r": 0.5}}
        path = tmp_path / "manifest.json"
        write_manifest(path, payload)
        assert json.loads(path.read_text()) == payload


def line_by_line_read_matrix_csv(path):
    """The matrix CSV reader as it was before its values were converted in
    one ``np.loadtxt`` call: the reference of the differential test below."""
    from pathlib import Path

    path = Path(path)
    rows = []
    width = None
    with path.open() as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if lineno == 1:
                    continue
                raise ValueError(f"{path}:{lineno}: '#' lines only allowed as header")
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    m = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: non-finite values")
    return m


# Fields that Python's float() accepts and numpy's loadtxt does not: digit
# group underscores and non-ASCII digits.  These are the only inputs the two
# readers are allowed to disagree on; the vectorized reader rejects them.
PYTHON_ONLY_SPELLINGS = ("1_0", "1_000.25", "2e1_0", "١", "３.5", "-१")

# Atoms of the differential fuzz: finite numbers in every accepted spelling
# (float64's extremes and underflow included), then non-finite words and
# near misses.
FINITE_ATOMS = (
    "0", "-0", "-0.0", "1", "-1", "+2.5", ".5", "5.", "1e3", "-1.5E-7", "1E+2",
    "0.1", "3.141592653589793", "1.7976931348623157e308", "4.9e-324", "1e-400",
    " 3 ", "\t4", "\xa07", "8\x0c",
)
OTHER_ATOMS = (
    "1e500", "nan", "NaN", "-inf", "Infinity", "+INF", "x", "", " ", "1e", ".",
    "--1", "0x10", "1 2", "1d5", "#", "1#2", "inf inity", "1.5.2", "e5",
)


def fuzz_csv(rng) -> bytes:
    width = int(rng.integers(1, 5))
    lines = []
    if rng.random() < 0.3:
        lines.append("# header " + str(rng.integers(100)))
    for _ in range(int(rng.integers(0, 6))):
        kind = rng.random()
        if kind < 0.08:
            lines.append("")
        elif kind < 0.14:
            lines.append(str(rng.choice([" ", "\t", "  \t ", "\xa0", "\x0c"])))
        elif kind < 0.17:
            lines.append("# stray comment")
        else:
            w = width if rng.random() < 0.9 else int(rng.integers(1, 6))
            pool = FINITE_ATOMS + OTHER_ATOMS if rng.random() < 0.2 else FINITE_ATOMS
            lines.append(",".join(str(rng.choice(pool)) for _ in range(w)))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    return text.encode()


def outcome(reader, path):
    """``("ok", shape, bytes)`` or ``("error", "path:line")``."""
    try:
        m = reader(path)
    except ValueError as exc:
        location = str(exc).split(": ")[0]
        return ("error", location)
    return ("ok", m.shape, m.dtype.str, m.tobytes())


@pytest.fixture(params=[None, 16], ids=["64KiB-blocks", "row-blocks"])
def block_chars(request, monkeypatch):
    """The reader's block size as it is, then so small that every row is a
    block of its own."""
    if request.param is not None:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", request.param)


class TestMatrixCsvFuzz:
    def test_differential_against_the_line_by_line_reader(
        self, tmp_path, block_chars
    ):
        rng = np.random.default_rng(20260101)
        path = tmp_path / "m.csv"
        kinds = {"ok": 0, "error": 0}
        for case in range(4000):
            data = fuzz_csv(rng)
            path.write_bytes(data)
            expected = outcome(line_by_line_read_matrix_csv, path)
            got = outcome(read_matrix_csv, path)
            assert got == expected, (case, data)
            kinds[got[0]] += 1
        # the fuzz reaches both sides
        assert min(kinds.values()) > 500

    @pytest.mark.parametrize("spelling", PYTHON_ONLY_SPELLINGS)
    def test_python_only_spellings_are_rejected(self, tmp_path, spelling):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n3,{spelling}\n", encoding="utf-8")
        assert line_by_line_read_matrix_csv(path).shape == (2, 2)
        with pytest.raises(ValueError, match=rf"^{path}:2: field 2 "):
            read_matrix_csv(path)

    def test_error_names_the_first_bad_line_and_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# h\n1,2,3\n\n4,,6\n7,8\n")
        with pytest.raises(ValueError, match=rf"^{path}:4: field 2 is not a number: ''$"):
            read_matrix_csv(path)
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(ValueError, match=rf"^{path}:3: expected 2 fields, got 1$"):
            read_matrix_csv(path)

    def test_whitespace_only_lines_and_crlf_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"# h\r\n1, 2\r\n \t \r\n\r\n3 ,4\r\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_single_row_and_single_column_shapes(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n")
        assert read_matrix_csv(path).shape == (1, 3)
        path.write_text("1\n2\n3\n")
        assert read_matrix_csv(path).shape == (3, 1)


class TestStreamingRead:
    def test_peak_memory_stays_below_the_file_size(self, tmp_path):
        # the file is never held whole: one read holds the values, one block
        # of text and, as the blocks are joined, a second copy of the values
        m = np.random.default_rng(50).standard_normal((50, 1000))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        tracemalloc.start()
        try:
            got = read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == m.tobytes()
        assert peak < path.stat().st_size

    def test_bad_value_before_a_later_ragged_row_is_the_one_named(self, tmp_path):
        # 10000 rows span several blocks: the bad value is converted, and
        # refused, before the read reaches the ragged row
        rows = ["0.25,0.5"] * 10000
        rows[3] = "0.25,x"
        rows[9000] = "0.25"
        path = tmp_path / "m.csv"
        path.write_text("\n".join(rows) + "\n")
        assert fileio._BLOCK_CHARS < len("\n".join(rows[:9000]))
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}:4: field 2 is not a number: 'x'"


def _ulp_neighbours(d: float) -> tuple[Decimal, Decimal]:
    """``d`` and the next double away from zero, exactly."""
    return Decimal(d), Decimal(float(np.nextafter(d, np.copysign(np.inf, d))))


@functools.cache
def decimal_corpus() -> dict[str, list[str]]:
    """Fields of the plain-decimal differential test, by case."""
    rng = np.random.default_rng(14014)
    big, tiny = np.finfo(np.float64).max, np.finfo(np.float64).tiny
    exps = rng.integers(-1074, 1021, 600)
    signs = rng.choice([-1, 1], exps.size)
    doubles = np.ldexp(rng.uniform(0.5, 1.0, exps.size), exps) * signs
    doubles = np.concatenate([
        doubles,
        np.ldexp(rng.random(200), rng.integers(-1074, -1022, 200)),  # subnormals
        [5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0), big, -big],
        [np.nextafter(big, 0), -np.nextafter(big, 0), 1.7976931348623155e308],
    ])
    cases = {"%.17g": ["%.17g" % v for v in doubles] + ["4.9e-324", "-4.9e-324"]}
    cases["%.17g"] += ["1.7976931348623157e308", "-1.7976931348623157e308"]
    cases["digits"] = [
        f"{rng.choice(['', '-', '+'])}{rng.integers(1, 10)}."
        + "".join(str(x) for x in rng.integers(0, 10, k - 1))
        + f"e{rng.integers(-340, 300)}"
        for k in range(1, 26)
        for _ in range(40)
    ]
    near = [float(v) for v in doubles[:150]]
    near += [tiny, -tiny, np.nextafter(tiny, 0), 5e-324, 1.0, 0.1, 2.0**53]
    near += [np.nextafter(big, 0)]
    # the last pair is the one between 0 and the smallest subnormal
    pairs = [_ulp_neighbours(d) for d in near] + [(Decimal(0), Decimal(5e-324))]
    with localcontext() as ctx:
        ctx.prec = 2000
        fields = []
        for lo, hi in pairs:
            mid = (lo + hi) / 2
            step = (hi - lo) * Decimal("1e-12")
            fields += [str(mid), str(mid + step), str(mid - step), str(-mid - step)]
    cases["midpoints"] = fields
    cases["zeros"] = ["-0", "0e999", "-0e999", "0", "0.0", "-0.0", "0e-999", "00.000e+5"]
    return cases


def csv_of(fields, width) -> str:
    rows = [",".join(fields[i : i + width]) for i in range(0, len(fields), width)]
    if len(rows) > 1 and rows[-1].count(",") != rows[0].count(","):
        rows.pop()
    return "\n".join(rows) + "\n"


# Rows that strtold or numpy's fromstring would read, each with the field
# that today's message names.
PLAIN_PATH_REFUSALS = {
    "3,0x1p3": (2, "0x1p3"),
    "1e,4": (1, "1e"),
    "1,,2": (2, ""),
    "1,2,": (3, ""),
    "5,\u0661": (2, "\u0661"),
}


class TestPlainDecimalPath:
    @pytest.fixture(params=[True, False], ids=["x87", "loadtxt"])
    def gate(self, request, monkeypatch):
        if request.param and not fileio._X87_LONG_DOUBLE:
            pytest.skip("long double is not x87 extended precision")
        monkeypatch.setattr(fileio, "_X87_LONG_DOUBLE", request.param)

    @pytest.mark.parametrize("case", ["%.17g", "digits", "midpoints", "zeros"])
    @pytest.mark.parametrize("width", [1, 3, 7, 300, 5000])
    def test_same_bytes_as_the_line_by_line_reader(
        self, tmp_path, gate, block_chars, case, width
    ):
        path = tmp_path / "m.csv"
        path.write_text(csv_of(decimal_corpus()[case], width))
        expected = outcome(line_by_line_read_matrix_csv, path)
        assert expected[0] == "ok"
        assert outcome(read_matrix_csv, path) == expected

    @pytest.mark.skipif(not fileio._X87_LONG_DOUBLE, reason="long double is not x87")
    def test_midpoints_need_the_second_conversion(self):
        """Casting the 64-bit value alone gets some of the corpus wrong."""
        fields = decimal_corpus()["midpoints"]
        wide = np.fromstring(",".join(fields), dtype=np.longdouble, sep=",")
        cast = wide.astype(np.float64)
        right = np.array([float(f) for f in fields])
        assert (cast != right).sum() > 50

    # the last is the midpoint between the largest double and 2**1024
    @pytest.mark.parametrize(
        "field", ["1.8e308", "-1.8e308", "1e99999", str(2**1024 - 2**970)]
    )
    def test_overflow_is_non_finite_without_a_warning(self, tmp_path, gate, field):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n" + f"3,{field}\n" * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{path}: non-finite values$"):
                read_matrix_csv(path)

    @pytest.mark.skipif(not fileio._X87_LONG_DOUBLE, reason="long double is not x87")
    def test_benchmark_shape_takes_the_plain_path(self, tmp_path, monkeypatch):
        m = np.random.default_rng(50).standard_normal((50, 1000))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)

        def no_loadtxt(rows):
            raise AssertionError("fell back to loadtxt")

        monkeypatch.setattr(fileio, "_parse_rows", no_loadtxt)
        assert read_matrix_csv(path).tobytes() == m.tobytes()

    @pytest.mark.parametrize("bad", sorted(PLAIN_PATH_REFUSALS))
    @pytest.mark.parametrize("bad_row", [0, 7000])
    def test_refusals_keep_their_message(
        self, tmp_path, gate, block_chars, bad, bad_row
    ):
        good = ",".join(["0.25"] * (bad.count(",") + 1))
        # 8000 rows span several blocks: row 7000 lies in a later one
        rows = [good] * 8000
        rows[bad_row] = bad
        path = tmp_path / "m.csv"
        path.write_text("# header\n" + "\n".join(rows) + "\n", encoding="utf-8")
        col, field = PLAIN_PATH_REFUSALS[bad]
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        lineno = bad_row + 2
        assert str(exc.value) == (
            f"{path}:{lineno}: field {col} is not a number: {field!r}"
        )

    @pytest.mark.parametrize("bad", ["1,,2", "1,2-3", "1,e5", "--1,2", "1.2.3,4"])
    @pytest.mark.parametrize("stops", [False, True], ids=["raises", "stops"])
    def test_a_file_of_only_malformed_rows_is_refused(
        self, tmp_path, monkeypatch, gate, block_chars, bad, stops
    ):
        """Every row is bad the same way, so no row's width disagrees.  With
        ``stops``, ``np.fromstring`` acts as numpy 1.x does: it returns the
        values before the bad field (with a warning that is silent by
        default) instead of raising."""
        path = tmp_path / "m.csv"
        path.write_text((bad + "\n") * 8000)
        expected = outcome(line_by_line_read_matrix_csv, path)
        assert expected == ("error", f"{path}:1")
        if stops:
            fromstring = np.fromstring

            def stopping_fromstring(text, dtype, sep):
                try:
                    return fromstring(text, dtype=dtype, sep=sep)
                except ValueError:
                    values = []
                    for field in text.split(sep.encode()):
                        try:
                            values.append(float(field))
                        except ValueError:
                            break
                    return np.array(values, dtype=dtype)

            monkeypatch.setattr(np, "fromstring", stopping_fromstring)
        assert outcome(read_matrix_csv, path) == expected


def mutate(data: bytes, rng) -> bytes:
    """One random byte-level edit: flip, insert, delete, truncate, repeat a
    chunk, or insert a long run of digits."""
    b = bytearray(data)
    pos = int(rng.integers(0, len(b) + 1))
    op = int(rng.integers(0, 6))
    if op == 0 and b:
        b[min(pos, len(b) - 1)] = int(rng.integers(0, 256))
    elif op == 1:
        b[pos:pos] = bytes([int(rng.choice(list(b"0123456789-+,.#eGB \n\r\t\xff")))])
    elif op == 2:
        del b[pos : pos + int(rng.integers(1, 4))]
    elif op == 3:
        del b[pos:]
    elif op == 4:
        b[pos:pos] = b[pos : pos + int(rng.integers(1, 16))]
    else:
        b[pos:pos] = b"9" * int(rng.integers(19, 40))
    return bytes(b)


class TestReadersRaiseOnlyValueError:
    def test_mutated_inputs(self, tmp_path):
        rng = np.random.default_rng(7)
        seeds = {}
        path = tmp_path / "f"
        write_matrix_csv(path, rng.standard_normal((3, 4)))
        seeds[read_matrix_csv] = path.read_bytes()
        write_labels(path, [0, 3, 17, 200])
        seeds[read_labels] = path.read_bytes()
        part = LabelPartition([False, True, False, False, True, False])
        write_partition_csv(path, part)
        seeds[read_partition_csv] = path.read_bytes()
        write_ppm(path, rng.integers(0, 256, (2, 3, 3), dtype=np.uint8))
        seeds[read_ppm] = path.read_bytes()
        for reader, seed in seeds.items():
            for _ in range(600):
                data = seed
                for _ in range(int(rng.integers(1, 4))):
                    data = mutate(data, rng)
                path.write_bytes(data)
                try:
                    reader(path)
                except ValueError:
                    pass

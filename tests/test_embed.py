import gzip
import hashlib
import inspect
import math
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from posscore.core import Token
from posscore.embed import (
    EmbeddingTable,
    SentenceVector,
    average_embedding,
    cosine,
    load_vec,
)

from conftest import vec_words
from oracles import rowwise_load_vec, sequential_average


def toks(*words):
    return [Token(w) for w in words]


class TestLoadVec:
    def test_basic(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 3\na 1.0 0.0 0.0\nb 0.0 1.0 0.0\n")
        table = load_vec(p, vec_words(p))
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.0, 0.0])

    def test_arity_error_names_line(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 3\na 1.0 0.0 0.0\nb 0.0 1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_vec(p, vec_words(p))

    def test_vocab_filter(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 2\na 1.0 0.0\nb 0.0 1.0\n")
        table = load_vec(p, vocab_filter={"a"})
        assert len(table) == 1 and "a" in table and "b" not in table

    def test_a_vocabulary_is_required(self, tmp_path):
        # a load holds the rows its vocabulary can look up, never the whole file
        p = tmp_path / "t.vec"
        p.write_text("1 2\na 1.0 0.5\n")
        with pytest.raises(TypeError):
            load_vec(p)

    def test_filtered_out_row_arity_still_checked(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("3 2\na 1.0 0.0\nzzz 0.5\nb 0.0 1.0\n")
        with pytest.raises(ValueError, match="line 3: expected 2 values, got 1"):
            load_vec(p, vocab_filter={"a"})

    def test_trailing_space_row_accepted(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 2\na 1.0 0.5 \nb 0.0 1.0\n")
        table = load_vec(p, vocab_filter={"a", "b"})
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.5])
        np.testing.assert_array_equal(table.get("b"), [0.0, 1.0])

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 2\nb 0.0 1.0\na 1.0 x\n")
        with pytest.raises(ValueError, match=r"t\.vec: line 3: .*'x'"):
            load_vec(p, vec_words(p))

    def test_filtered_out_row_values_not_parsed(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 2\nzzz 1.0 x\na 1.0 0.0\n")
        table = load_vec(p, vocab_filter={"a"})
        assert len(table) == 1 and "a" in table

    def test_duplicates_keep_first_under_filter(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("4 2\nzzz 5.0 5.0\nParis 1.0 0.0\nPARIS 9.0 9.0\nparis 8.0 8.0\n")
        table = load_vec(p, vocab_filter={"paris"})
        assert len(table) == 1
        np.testing.assert_array_equal(table.get("paris"), [1.0, 0.0])

    def test_duplicates_keep_first(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("3 2\na 1.0 0.0\nA 9.0 9.0\nb 0.0 1.0\n")
        table = load_vec(p, vec_words(p))
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.0])

    def test_keys_casefolded(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("1 2\nParis 1.0 2.0\n")
        assert "paris" in load_vec(p, vec_words(p))

    def test_gzip_variant(self, tmp_path):
        p = tmp_path / "t.vec.gz"
        with gzip.open(p, "wt", encoding="utf-8") as fh:
            fh.write("1 2\na 1.0 0.5\n")
        table = load_vec(p, vec_words(p))
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.5])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("nonsense\na 1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_vec(p, vec_words(p))

    @pytest.mark.parametrize("header, problem", [
        ("1 x", "non-integer dimension 'x'"),
        ("1 0", "dimension must be >= 1"),
    ])
    def test_bad_header_dimension(self, tmp_path, header, problem):
        p = tmp_path / "t.vec"
        p.write_text(f"{header}\na 1.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 1: {problem}$"):
            load_vec(p, vec_words(p))

    # "unfiltered" keeps every word of the file, "filtered" looks one up that it lacks
    @pytest.mark.parametrize("vocab", [{"a"}, {"a", "b"}], ids=["unfiltered", "filtered"])
    def test_a_huge_header_dimension_is_refused_at_its_first_row(self, tmp_path, vocab):
        # rows of the header's dimension once were allocated before any row
        # was read: hundreds of GiB here, and an internal error
        p = tmp_path / "t.vec"
        p.write_text("1 100000000000\na 1\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(p))}: line 2: expected 100000000000 values, got 1$"
        ):
            load_vec(p, vocab)

    @pytest.mark.parametrize("vocab", [{"a"}, {"a", "b"}], ids=["unfiltered", "filtered"])
    def test_a_header_alone_loads_an_empty_table(self, tmp_path, vocab):
        p = tmp_path / "t.vec"
        p.write_text("0 100000000000\n")
        table = load_vec(p, vocab)
        assert table.index == {} and table.matrix.shape == (0, 100000000000)
        assert table.get("a") is None

    def test_squared_norm_past_float_range_names_line(self, tmp_path):
        # every value is finite, but cosine could not square them
        p = tmp_path / "t.vec"
        p.write_text("2 2\na 1e154 1e153\nb 1e200 0\n")
        with pytest.raises(ValueError, match=r"line 3: squared norm past the float range in 'b'"):
            load_vec(p, vec_words(p))
        assert load_vec(p, vocab_filter={"a"}).get("a")[0] == 1e154

    def test_rows_are_read_only_decoded_copies(self, tmp_path):
        # a float64 table (scale 1.0) and an int32 one read from decimals
        # both hand out read-only float64 copies of the decoded rows
        p = tmp_path / "t.vec"
        for c, scale in [("0.1 1e-20", 1.0), ("0.5 0.5", 10.0)]:
            p.write_text(f"3 2\na 1.0 0.0\nb 0.0 1.0\nc {c}\n")
            table = load_vec(p, vocab_filter={"c", "a", "z"})
            assert table.matrix.shape == (2, 2) and table.index == {"a": 0, "c": 1}
            assert table.scale == scale
            row = table.get("c")
            assert row.dtype == np.float64 and not row.flags.writeable
            assert row.tobytes() == float_rows(table)[1].tobytes()
            np.testing.assert_array_equal(row, [float(x) for x in c.split()])
            with pytest.raises(ValueError):
                row[0] = 9.0

    def test_unfiltered_load_grows_past_its_first_capacity(self, tmp_path):
        # the file's 2,500 distinct words all kept, plus one casefold
        # collision whose first row must win
        rng = np.random.default_rng(21)
        values = rng.normal(size=(2500, 3)).round(6)
        p = tmp_path / "t.vec"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("2501 3\n")
            for i, row in enumerate(values):
                fh.write(f"w{i} " + " ".join(repr(float(x)) for x in row) + "\n")
            fh.write("W7 9.0 9.0 9.0\n")
        table = load_vec(p, vec_words(p))
        assert len(table) == 2500 and table.matrix.shape == (2500, 3)
        assert table.index == {f"w{i}": i for i in range(2500)}
        assert (float_rows(table) + 0.0).tobytes() == (values + 0.0).tobytes()
        assert not table.matrix.flags.writeable

    def test_filtered_load_holds_the_rows_once(self, tmp_path):
        # every filtered word has a row, so its values are 2,000 x 128 x 8
        # bytes as float64 (the int32 table takes half); a loader that builds
        # one array per row and stacks them at the end peaks above twice that
        words = [f"word{i}" for i in range(2000)]
        dim = 128
        rng = np.random.default_rng(22)
        p = tmp_path / "t.vec"
        tokens = [t for i, w in enumerate(words) for t in ([w, f"filler{i}"] if i % 10 == 0 else [w])]
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(f"{len(tokens)} {dim}\n")
            for token in tokens:
                fh.write(token + " " + " ".join(f"{x:.4f}" for x in rng.normal(size=dim)) + "\n")
        wanted = set(words)
        tracemalloc.start()
        try:
            table = load_vec(p, vocab_filter=wanted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == len(wanted)
        assert peak < 1.5 * len(wanted) * dim * 8


def float_rows(table):
    """The table's rows as float64 values: its matrix divided by its scale."""
    return table.matrix / table.scale


def load_both(path, vocab_filter=None):
    """What load_vec and the row-wise oracle make of one file: (index, shape,
    bytes of the float64 rows) or the ValueError text, for each; `+ 0.0`
    turns a -0.0 into 0.0, the one value an int32 table does not keep. A
    warning fails the test. Without vocab_filter both keep every word.
    """
    if vocab_filter is None:
        vocab_filter = vec_words(path)
    out = []
    for load in (load_vec, rowwise_load_vec):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = load(path, vocab_filter)
        except ValueError as exc:
            out.append(str(exc))
            continue
        index, rows = (got.index, float_rows(got)) if isinstance(got, EmbeddingTable) else got
        out.append((dict(index), rows.shape, (rows + 0.0).tobytes()))
    return out


class TestLoadVecMatchesRowwiseOracle:
    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_every_code_point_in_a_value(self, tmp_path, where):
        # one file per code point, its value between two good rows of one
        # block; blank lines pad every file to the same length, so it is
        # rewritten in place (a truncating write per file is much slower)
        p = tmp_path / "t.vec"
        p.write_bytes(b"")
        fd = os.open(p, os.O_WRONLY)
        accepted = 0
        try:
            for cp in range(0x3100):
                c = chr(cp)
                if c in "\n\r ":
                    continue
                value = {"start": c + "1.5", "middle": "1" + c + ".5", "end": "1.5" + c}[where]
                data = f"3 3\na 1 2 3\nB 4 {value} 6\nc 7 8 9\n".encode()
                os.pwrite(fd, data + b"\n" * (3 - len(c.encode())), 0)
                new, old = load_both(p)
                assert new == old, repr(c)
                accepted += isinstance(old, tuple)
        finally:
            os.close(fd)
        # digits of many scripts anywhere, and whitespace at either end
        assert accepted > 100

    @pytest.mark.parametrize("kept_row", [1, 64, 65])
    @pytest.mark.parametrize("bad", ["x", "nan", "1\x1c", "1e200", "1_0"])
    def test_value_at_a_block_edge(self, tmp_path, kept_row, bad):
        # 130 kept rows between skipped and duplicate ones, some padded with
        # a trailing space; the value sits in the first or last row of a block
        rng = np.random.default_rng(kept_row)
        lines = []
        for i in range(1, 131):
            values = [repr(float(x)) for x in rng.normal(size=3)]
            if i == kept_row:
                values[1] = bad
                bad_line = len(lines) + 3  # after the header and its skipped row
            lines += [f"skip{i} x x x", f"w{i} " + " ".join(values) + " " * (i % 3 == 0)]
            lines += [f"W{i} 9 9 9"] * (i % 5 == 0)
        p = tmp_path / "t.vec"
        p.write_text(f"{len(lines)} 3\n" + "\n".join(lines) + "\n", encoding="utf-8")
        new, old = load_both(p, {f"w{i}" for i in range(1, 131)} | {"absent"})
        assert new == old
        if bad == "1_0":  # float() reads it as 10.0
            assert len(new[0]) == 130
        else:
            assert f": line {bad_line}: " in new

    def test_earlier_bad_value_wins_over_a_later_count_mismatch(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("4 2\na 1 2\nb 1 x\nc 3 4\nd 5\n")
        new, old = load_both(p)
        assert new == old == f"{p}: line 3: could not convert string to float: 'x'"

    @pytest.mark.parametrize("text", ["1 1\na  \n", "2 1\na  \nb 1\n", "2 2\na   \nb 1 2\n"])
    def test_empty_values_are_refused(self, tmp_path, text):
        # loadtxt skips an empty row, with a warning when no row is left, and
        # the next row's values would broadcast into its place
        p = tmp_path / "t.vec"
        p.write_text(text)
        new, old = load_both(p)
        assert new == old == f"{p}: line 2: could not convert string to float: ''"

    @pytest.mark.parametrize("kept", [0, 64, 128])
    def test_no_row_left_for_the_last_block(self, tmp_path, kept):
        p = tmp_path / "t.vec"
        p.write_text(f"{kept + 1} 2\n" + "".join(f"w{i} {i} 1\n" for i in range(kept)) + "skip x x\n")
        new, old = load_both(p, {f"w{i}" for i in range(kept)})
        assert new == old and len(new[0]) == kept

    def test_unit_separator_is_not_stripped(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("2 2\ncat 1\x1c 2\ndog 3 4\n")
        new, old = load_both(p)
        assert new == old == f"{p}: line 2: could not convert string to float: '1\\x1c'"


#: Storage cases: name -> the scale of the int32 table the file should
#: give, or None for a float64 table (whose scale is 1.0).
#: Each file has 200 rows of 4-decimal values in (-2, 2) unless its name
#: says otherwise; row 180 is in the third block of kept rows unfiltered and
#: in the second filtered.
STORAGE_CASES = {
    **{f"decimals-{d}": 10.0**d for d in range(10)},
    "negative-zero": 1e4,  # every third row starts with -0.0000
    "exponent": 1e4,  # 1e-3 and -2.5E+2 in the first block
    "dim-1": 1e4,
    "past-int32": None,  # 214748.3648 is the code 2**31 at scale 1e4
    "past-int32-later": None,  # the same value in row 180
    "more-decimals-later": None,  # 0.12345 in row 180
}


def storage_rows(case, rng):
    """(dim, value texts of the 200 rows) of a storage case."""
    dim = 1 if case == "dim-1" else 5
    decimals = int(case.split("-")[1]) if case.startswith("decimals-") else 4
    rows = [[f"{x:.{decimals}f}" for x in rng.uniform(-2, 2, dim)] for _ in range(200)]
    if case == "negative-zero":
        for row in rows[::3]:
            row[0] = "-0.0000"
    elif case == "exponent":
        rows[2][0], rows[4][1] = "1e-3", "-2.5E+2"
    elif case == "past-int32":
        rows[0][0] = "214748.3648"
    elif case == "past-int32-later":
        rows[180][0] = "214748.3648"
    elif case == "more-decimals-later":
        rows[180][0] = "0.12345"
    return dim, rows


class TestStoragePaths:
    @pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
    @pytest.mark.parametrize("case", STORAGE_CASES)
    def test_each_storage_matches_the_rowwise_oracle(self, tmp_path, case, filtered):
        # int32 codes when one power of ten holds every value exactly, else
        # float64; either way the averages are the oracle's to the bit
        seed = list(STORAGE_CASES).index(case)
        dim, rows = storage_rows(case, np.random.default_rng(seed))
        words = [f"w{i}" for i in range(len(rows))]
        p = tmp_path / "t.vec"
        p.write_text(
            f"{len(rows)} {dim}\n" + "".join(f"{w} {' '.join(r)}\n" for w, r in zip(words, rows)),
            encoding="utf-8",
        )
        vocab = set(words[::2]) | {"absent"} if filtered else set(words)
        table = load_vec(p, vocab)
        index, matrix = rowwise_load_vec(p, vocab)
        scale = STORAGE_CASES[case]
        assert table.index == index and table.scale == (1.0 if scale is None else scale)
        assert table.matrix.dtype == (np.float64 if scale is None else np.int32)
        assert table.matrix.nbytes == (8 if scale is None else 4) * len(index) * dim
        assert (float_rows(table) + 0.0).tobytes() == (matrix + 0.0).tobytes()
        oracle_rows = {w: matrix[i] for w, i in index.items()}
        pick = random.Random(seed)
        for _ in range(200):
            norms = [pick.choice(words[:8] + ["oov"]) for _ in range(pick.choice([0, 1, 2, 5, 30]))]
            norms += pick.sample(words, pick.randint(0, 40))
            got = average_embedding(toks(*norms), table)
            assert got.values.tobytes() == sequential_average(norms, oracle_rows, dim).tobytes()

    def test_a_decimal_file_takes_four_bytes_a_value(self, tmp_path):
        p = tmp_path / "t.vec"
        p.write_text("3 4\nchess 0.1 0.2 0.3 0.4\nlove 0.0 0.5 0.5 -0.0\nfun 0.9 0.1 0.0 0.2\n")
        table = load_vec(p, vec_words(p))
        assert table.matrix.dtype == np.int32 and table.scale == 10.0
        assert table.matrix.nbytes == 4 * 3 * 4
        assert table.get("love").tobytes() == np.array([0.0, 0.5, 0.5, 0.0]).tobytes()

    @pytest.mark.parametrize(
        "dtype, scale",
        [(np.int32, None), (np.float64, 10.0), (np.int32, 3.0), (np.int32, 1e10),
         (np.int64, 10.0), (np.float32, 1.0), (np.float64, None)],
    )
    def test_a_matrix_and_scale_that_do_not_pair_are_refused(self, dtype, scale):
        with pytest.raises(ValueError, match="float64 matrix with scale 1.0 or an int32 one"):
            EmbeddingTable({"a": 0}, np.ones((1, 2), dtype), scale)


class TestFromDict:
    @pytest.mark.parametrize(
        "row, problem",
        [([math.nan, 0.0], "non-finite value"), ([0.0, -math.inf], "non-finite value"),
         ([1e300, 0.0], "squared norm past the float range")],
        ids=["nan", "inf", "squared-norm"],
    )
    def test_rejects_what_load_vec_rejects(self, row, problem):
        with pytest.raises(ValueError, match=f"{problem} in 'cat'"):
            EmbeddingTable.from_dict({"dog": [0.0, 1.0], "cat": row})

    @pytest.mark.parametrize(
        "row",
        [1.0, [[1.0, 2.0], [3.0, 4.0]], [], [[1.0], [2.0, 3.0]], "1.0 2.0", None],
        ids=["scalar", "nested", "empty", "ragged", "text", "none"],
    )
    def test_rejects_a_row_that_is_not_a_flat_list_of_numbers(self, row):
        # the first three once died with IndexError, TypeError and a
        # message that named no word
        with pytest.raises(ValueError, match="not a non-empty flat list of numbers in 'cat'"):
            EmbeddingTable.from_dict({"dog": [0.0, 1.0], "cat": row})

    @pytest.mark.parametrize("word", ["Paris", "STRASSE", "straße"])
    def test_rejects_a_key_that_no_lookup_reaches(self, word):
        # lookups go by Token.norm, which is casefolded: such a key once
        # made its word silently out of vocabulary
        with pytest.raises(ValueError, match=f"^{word!r} is not casefolded"):
            EmbeddingTable.from_dict({"dog": [0.0, 1.0], word: [1.0, 0.0]})
        table = EmbeddingTable.from_dict({word.casefold(): [1.0, 0.0]})
        assert average_embedding(toks(word), table).support == 1

    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError, match=r"inconsistent vector lengths: \[2, 3\]"):
            EmbeddingTable.from_dict({"dog": [0.0, 1.0], "cat": [1.0, 2.0, 3.0]})

    @pytest.mark.parametrize("shape", [(2, 3), (1, 0), (3,)], ids=["rows", "dim-0", "1-d"])
    def test_constructor_refuses_a_matrix_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"need 1 rows of dim >= 1"):
            EmbeddingTable({"a": 0}, np.zeros(shape))

    def test_empty_dict(self):
        table = EmbeddingTable.from_dict({})
        assert len(table) == 0 and table.dim == 1 and table.get("a") is None


class TestAverageEmbedding:
    @pytest.fixture
    def table(self):
        return EmbeddingTable.from_dict({"a": [1.0, 0.0], "b": [0.0, 1.0]})

    def test_singleton(self, table):
        v = average_embedding(toks("a"), table)
        np.testing.assert_array_equal(v.values, [1.0, 0.0])
        assert v.support == 1

    def test_two_point_mean(self, table):
        v = average_embedding(toks("a", "b"), table)
        np.testing.assert_array_equal(v.values, [0.5, 0.5])
        assert v.support == 2

    def test_oov_skipped(self, table):
        v = average_embedding(toks("z"), table)
        np.testing.assert_array_equal(v.values, [0.0, 0.0])
        assert v.support == 0
        mixed = average_embedding(toks("a", "z"), table)
        assert mixed.support == 1
        np.testing.assert_array_equal(mixed.values, [1.0, 0.0])

    def test_lookup_uses_norm(self, table):
        v = average_embedding(toks("A"), table)
        assert v.support == 1

    def test_duplication_invariance_bit_exact(self):
        rng = random.Random(5)
        words = [f"w{i}" for i in range(12)]
        npr = np.random.default_rng(5)
        table = EmbeddingTable.from_dict(
            {w: npr.uniform(-1, 1, size=7) for w in words}
        )
        for _ in range(200):
            seq = toks(*(rng.choice(words) for _ in range(rng.randint(1, 9))))
            once = average_embedding(seq, table)
            twice = average_embedding(seq + seq, table)
            assert once.values.tobytes() == twice.values.tobytes()
            assert twice.support == 2 * once.support

    @pytest.mark.parametrize("dim", [1, 2, 3, 17])
    def test_matches_sequential_oracle_bit_for_bit(self, dim):
        # magnitudes from 1e-6 to 1e6 make the sum depend on its order: a
        # pairwise or BLAS sum differs in the last bits, and a sum that
        # does not start from +0.0 keeps a column of -0.0 components negative
        rng = random.Random(31 + dim)
        npr = np.random.default_rng(31 + dim)
        for _ in range(40):
            words = [f"w{i}" for i in range(rng.randint(1, 40))]
            rows = {}
            for w in words:
                row = npr.normal(size=dim) * 10.0 ** npr.uniform(-6, 6, size=dim)
                row[npr.random(dim) < 0.3] = -0.0
                rows[w] = -np.zeros(dim) if rng.random() < 0.1 else row
            table = EmbeddingTable.from_dict(rows)
            for _ in range(10):
                pool = rng.sample(words, rng.randint(1, len(words))) + ["oov", "OOV2"]
                norms = [rng.choice(pool) for _ in range(rng.choice([0, 1, 3, 30, 120]))]
                got = average_embedding(toks(*norms), table)
                want = sequential_average(norms, rows, dim)
                assert got.values.tobytes() == want.tobytes(), norms
                assert got.support == sum(n in rows for n in norms)
                twice = average_embedding(toks(*norms, *norms), table)
                assert twice.values.tobytes() == want.tobytes()


class TestCosine:
    def vec(self, values, support=1):
        return SentenceVector(values=np.asarray(values, dtype=np.float64), support=support)

    def test_identity(self):
        assert cosine(self.vec([1.0, 0.0]), self.vec([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(self.vec([1.0, 0.0]), self.vec([0.0, 1.0])) == 0.0

    def test_closed_form(self):
        got = cosine(self.vec([1.0, 0.0]), self.vec([0.5, 0.5]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_zero_support_rule(self):
        zero = self.vec([0.0, 0.0], support=0)
        assert cosine(zero, self.vec([1.0, 0.0])) == 0.0
        assert cosine(self.vec([1.0, 0.0]), zero) == 0.0

    def test_tiny_norm_rule(self):
        tiny = self.vec([1e-13, 0.0])
        assert cosine(tiny, self.vec([1.0, 0.0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine(self.vec([1.0, 0.0]), self.vec([1.0, 0.0, 0.0]))

    def test_symmetry_and_bounds(self):
        npr = np.random.default_rng(9)
        for _ in range(100):
            u = self.vec(npr.normal(size=5))
            v = self.vec(npr.normal(size=5))
            assert cosine(u, v) == cosine(v, u)
            assert -1.0 <= cosine(u, v) <= 1.0
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "u, v",
        [([1e300, 0.0], [1e300, 1e300]), ([1.0, 1.0], [1e300, 0.0]),
         ([math.nan, 0.0], [1.0, 0.0])],
        ids=["both-huge", "one-huge", "nan"],
    )
    def test_values_past_float_range_raise(self, u, v):
        # clamping once turned the NaN of an overflowed norm into 1.0; the
        # first pair scaled to 1 has cosine 0.7071; numpy's overflow warning,
        # an error under this suite's filters, must not come first
        with pytest.raises(ValueError, match="float range"):
            cosine(self.vec(u), self.vec(v))

    def test_scale_invariance(self):
        base = EmbeddingTable.from_dict({"a": [0.3, 0.4], "b": [0.5, 0.1]})
        scaled = EmbeddingTable.from_dict({"a": [3.0, 4.0], "b": [5.0, 1.0]})
        u1 = average_embedding(toks("a"), base)
        v1 = average_embedding(toks("a", "b"), base)
        u2 = average_embedding(toks("a"), scaled)
        v2 = average_embedding(toks("a", "b"), scaled)
        assert cosine(u1, v1) == pytest.approx(cosine(u2, v2), abs=1e-12)

    def test_same_bytes_under_every_blas_kernel_this_cpu_runs(self, cli_workspace, tmp_path):
        # a BLAS dot product sums in an order that depends on the CPU kernel,
        # which once gave three sets of bytes for one score run
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"OpenBLAS kernels are named here for x86-64, not {platform.machine()}")
        config = openblas("config")
        if config is None or "DYNAMIC_ARCH" not in config.split():
            pytest.skip(f"numpy's BLAS is not OpenBLAS built with DYNAMIC_ARCH ({config})")
        flags = cpu_flags()
        kernels = [kernel for kernel, needs in BLAS_KERNELS.items() if needs <= flags]
        src = str(Path(__file__).parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        ws = cli_workspace
        argv = ["score", "--corpus", str(ws / "corpus.jsonl"), "--tags", str(ws / "tags.tsv"),
                "--embeddings", str(ws / "vectors.vec"), "--metrics", "posscore,ea", "--out"]
        procs = {
            kernel: subprocess.Popen(
                [sys.executable, "-c", KERNEL_SCRIPT, *argv, str(tmp_path / f"{kernel}.csv")],
                env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": pythonpath},
                stdout=subprocess.PIPE, text=True)
            for kernel in kernels
        }
        ran, outputs = {}, {}
        for kernel, proc in procs.items():
            ran[kernel] = proc.communicate()[0].strip()
            assert proc.returncode == 0, kernel
            outputs[kernel] = hashlib.sha256((tmp_path / f"{kernel}.csv").read_bytes()).hexdigest()
        # OpenBLAS ran a different core for each (Prescott may call itself Katmai)
        assert len(set(ran.values())) == len(kernels), ran
        assert len(set(outputs.values())) == 1, outputs


def openblas(query):
    """What numpy's OpenBLAS answers to openblas_get_<query> ("config" or
    "corename"), or None when this process has no OpenBLAS loaded that it finds.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        # wheels rename the symbols: openblas64_ adds 64_, scipy-openblas scipy_ as well
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            function = getattr(lib, f"{prefix}openblas_get_{query}{suffix}", None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return None


def cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return set(next(line for line in fh if line.startswith("flags")).split(":")[1].split())
    except (OSError, StopIteration):
        return set()


#: The OpenBLAS kernels the test runs, with the CPU flags each needs.
BLAS_KERNELS = {"Prescott": set(), "Haswell": {"avx2", "fma"}, "SkylakeX": {"avx512f"}}

#: Runs the CLI on its arguments, then prints the kernel OpenBLAS ran.
KERNEL_SCRIPT = inspect.getsource(openblas) + """
import sys
from posscore.cli import main

code = main(sys.argv[1:])
print(openblas("corename"))
sys.exit(code)
"""


class TestSentenceVector:
    def test_zero_support_must_be_zero_vector(self):
        with pytest.raises(ValueError):
            SentenceVector(values=np.array([1.0]), support=0)
        with pytest.raises(ValueError):
            SentenceVector(values=np.array([0.0]), support=-1)

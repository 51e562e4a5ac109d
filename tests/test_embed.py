import math
import re

import numpy as np
import pytest

from relkit.embed import (EmbeddingTable, cosine, embed_phrase,
                          load_embeddings, save_embeddings)
from relkit.errors import FormatError, NumericError, OutOfVocabularyError


def table_of(**vectors) -> EmbeddingTable:
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in vectors.items()}
    dim = len(next(iter(arrays.values())))
    return EmbeddingTable(dimension=dim, vectors=arrays)


class TestLoad:
    def test_dimension_inferred(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.0 0.0\n")
        table = load_embeddings(path)
        assert table.dimension == 2
        assert np.array_equal(table.vectors["cat"], [1.0, 0.0])

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.0 0.0\ndog 1.0 0.0 2.0\n")
        with pytest.raises(FormatError, match=":2"):
            load_embeddings(path)

    def test_repeated_token_names_its_first_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\nb 3 4\na 5 6\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}:3: token 'a' repeats line 1")):
            load_embeddings(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("cat 1.0 oops\n")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"cat 1.0 0.0\nd\x80g 1.0 0.0\n")
        with pytest.raises(FormatError, match=":2: byte 13: not UTF-8"):
            load_embeddings(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = table_of(**{f"w{i}": rng.normal(size=5) for i in range(20)})
        path = tmp_path / "v.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        assert loaded.dimension == table.dimension
        for token, vec in table.vectors.items():
            assert np.array_equal(loaded.vectors[token], vec)


class TestEmbedPhrase:
    def test_single_token(self):
        table = table_of(cat=[1.0, 2.0])
        vec, known = embed_phrase(table, "cat")
        assert known and np.array_equal(vec, [1.0, 2.0])

    def test_mean_of_two(self):
        table = table_of(standing=[1.0, 0.0], by=[0.0, 1.0])
        vec, _ = embed_phrase(table, "standing by")
        assert np.array_equal(vec, [0.5, 0.5])

    def test_all_oov_strict_raises(self):
        table = table_of(cat=[1.0, 0.0])
        with pytest.raises(OutOfVocabularyError):
            embed_phrase(table, "dog wolf", strict=True)

    def test_all_oov_lenient_flags(self):
        table = table_of(cat=[1.0, 0.0])
        vec, known = embed_phrase(table, "dog", strict=False)
        assert not known and np.array_equal(vec, [0.0, 0.0])

    def test_order_insensitive(self):
        rng = np.random.default_rng(1)
        table = table_of(a=rng.normal(size=3), b=rng.normal(size=3),
                         c=rng.normal(size=3))
        v1, _ = embed_phrase(table, "a b c")
        v2, _ = embed_phrase(table, "c a b")
        assert np.array_equal(v1, v2)


class TestCosine:
    def test_self_similarity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.normal(size=6)
            assert math.isclose(cosine(u, u), 1.0, abs_tol=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 3.0]) == 0.0

    def test_antiparallel(self):
        assert cosine([1.0, 0.0], [-2.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert math.isclose(cosine([1.0, 0.0], [1.0, 1.0]),
                            0.7071067811865475, abs_tol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            cosine([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        for u, v in (([bad, 1.0], [1.0, 0.0]), ([1.0, 0.0], [bad, 1.0])):
            with pytest.raises(NumericError, match="^cosine undefined for a zero "
                                                   "or non-finite vector$"):
                cosine(u, v)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericError, match=r"^cosine shape mismatch: \(2,\) vs \(3,\)$"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha, beta = rng.uniform(0.1, 10, size=2)
            assert math.isclose(cosine(u, v), cosine(v, u), abs_tol=1e-12)
            assert math.isclose(cosine(alpha * u, beta * v), cosine(u, v),
                                abs_tol=1e-12)


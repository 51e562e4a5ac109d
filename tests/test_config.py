import dataclasses
import math
import sys

import pytest

from relkit.config import (RunConfig, apply_overrides, load_config,
                           load_vocab, save_vocab)
from relkit.core import Vocabulary
from relkit.errors import ConfigError, FormatError
from relkit.relhead import Toggles, TrainConfig


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.graph_constraint and not cfg.micro_recall

    def test_k_exceeding_m_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(m_candidates=3, k_candidates=4)

    @pytest.mark.parametrize("k, m", [(0, 5), (-1, 5), (0, 0), (1, 0)])
    def test_k_or_m_below_one_rejected(self, k, m):
        with pytest.raises(ConfigError, match="1 <= K <= M"):
            RunConfig(m_candidates=m, k_candidates=k)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda2=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)
                                      if f.type in ("float", float)])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_temperature_at_or_below_zero_rejected(self, value):
        with pytest.raises(ConfigError, match="zeroshot_temperature must be > 0"):
            RunConfig(zeroshot_temperature=value)

    def test_subnormal_temperature_rejected(self):
        with pytest.raises(ConfigError, match="zeroshot_temperature must be > 0"):
            RunConfig(zeroshot_temperature=1e-320)
        assert RunConfig(zeroshot_temperature=sys.float_info.min)

    @pytest.mark.parametrize("value", [0, -5])
    def test_longtail_threshold_below_one_rejected(self, value):
        with pytest.raises(ConfigError, match=f"longtail_threshold must be >= 1, "
                                              f"got {value}$"):
            RunConfig(longtail_threshold=value)

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("epochs", -1), ("learning_rate", -0.5)])
    def test_negative_head_setting_rejected(self, name, value):
        with pytest.raises(ConfigError, match="must be >= 0"):
            RunConfig(**{name: value})

    def test_keys_types_and_defaults(self):
        assert {f.name: (f.type, f.default)
                for f in dataclasses.fields(RunConfig)} == {
            "learning_rate": ("float", 0.5), "epochs": ("int", 100),
            "m_candidates": ("int", 10), "k_candidates": ("int", 5),
            "seed": ("int", 0), "orm_backoff": ("bool", True),
            "strict_oov": ("bool", False), "object_attention": ("bool", True),
            "geometric_encoding_objects": ("bool", True),
            "geometric_encoding_relationships": ("bool", True),
            "subject_object_attention": ("bool", True),
            "attention_mean": ("bool", True), "d": ("int", 16),
            "r": ("int", 4), "e": ("int", 8), "lambda1": ("float", 1.0),
            "lambda2": ("float", 1.0), "lambda3": ("float", 1.0),
            "sigma": ("float", 0.1), "micro_recall": ("bool", False),
            "graph_constraint": ("bool", True),
            "zeroshot_temperature": ("float", 1.0),
            "synonym_threshold": ("float", 0.6),
            "longtail_threshold": ("int", 1024)}

    def test_train_config_holds_no_switches(self):
        # the switches live on the parameters the head is trained with
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "learning_rate", "epochs", "m_candidates", "k_candidates", "seed",
            "orm_backoff", "strict_oov"]
        assert not hasattr(TrainConfig(), "toggles")

    def test_head_settings_inherited_from_train_config(self):
        cfg = RunConfig(geometric_encoding_objects=False, attention_mean=False)
        assert isinstance(cfg, TrainConfig)
        assert cfg.toggles == Toggles(geometric_objects=False,
                                      attention_mean=False)

    def test_nan_from_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("synonym_threshold = nan\n")
        with pytest.raises(ConfigError, match="synonym_threshold must be finite"):
            load_config(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(d=4, epochs=7, lambda3=0.25, orm_backoff=False,
                        object_attention=False)
        path = tmp_path / "run.cfg"
        path.write_text("d = 4\nepochs = 7\nlambda3 = 0.25\n"
                        "orm_backoff = false\nobject_attention = false\n")
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nepochs = 3  # trailing\nseed = 5\n")
        cfg = load_config(path)
        assert cfg.epochs == 3 and cfg.seed == 5

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 3\nepohcs = 4\n")
        with pytest.raises(FormatError, match=":2"):
            load_config(path)

    def test_min_count_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 3\nmin_count = 2\n")
        with pytest.raises(FormatError, match=":2: unknown key 'min_count'"):
            load_config(path)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"epochs = 3\nseed = \xff\n")
        with pytest.raises(FormatError, match=":2: byte 18: not UTF-8"):
            load_config(path)

    def test_bool_spellings(self, tmp_path):
        path = tmp_path / "run.cfg"
        for raw, expected in (("true", True), ("no", False), ("1", True),
                              ("False", False)):
            path.write_text(f"strict_oov = {raw}\n")
            assert load_config(path).strict_oov is expected

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("strict_oov = maybe\n")
        with pytest.raises(FormatError):
            load_config(path)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nepochs = seven\n")
        with pytest.raises(FormatError, match=":2"):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(FormatError):
            load_config(path)


class TestOverrides:
    def test_none_values_keep_file_settings(self):
        cfg = RunConfig(epochs=9)
        out = apply_overrides(cfg, {"epochs": None, "seed": 4})
        assert out.epochs == 9 and out.seed == 4

    def test_every_field_overridable(self):
        cfg = RunConfig()
        for f in dataclasses.fields(RunConfig):
            if f.name in ("m_candidates", "k_candidates"):
                continue
            current = getattr(cfg, f.name)
            if f.type in ("bool", bool):
                new = not current
            else:
                new = current + 1
            assert getattr(apply_overrides(cfg, {f.name: new}), f.name) == new


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary.make([("wearing", 54), ("riding", 7), ("on", 1)])
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.labels == vocab.labels
        assert loaded.counts == vocab.counts

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("wearing\t54\nriding seven\n")
        with pytest.raises(FormatError, match=":2"):
            load_vocab(path)

    def test_bad_count_named(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("wearing\tfifty\n")
        with pytest.raises(FormatError, match=":1"):
            load_vocab(path)

    def test_negative_count_named(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t1\nb\t-2\n")
        with pytest.raises(FormatError, match=f"{path}:2: count -2 must be >= 0"):
            load_vocab(path)

    def test_repeated_label_named(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("wearing\t54\nriding\t7\n\nwearing\t2\n")
        with pytest.raises(FormatError, match=f"{path}:4: label 'wearing' "
                                              f"repeats line 1"):
            load_vocab(path)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes("café\t3\n".encode() + b"b\xffd\t2\n")
        with pytest.raises(FormatError, match=":2: byte 9: not UTF-8"):
            load_vocab(path)

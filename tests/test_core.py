import json
import re

import numpy as np
import pytest

from helpers import random_instance
from relkit.core import (BoundingBox, SceneGraph, SceneInstance, Vocabulary,
                         load_scenes, save_scenes, scene_from_dict,
                         scene_to_dict, validate_scene)
from relkit.errors import FormatError, InvalidBoxError


class TestBoundingBox:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(InvalidBoxError):
            BoundingBox(0, 0, 0, 1)
        with pytest.raises(InvalidBoxError):
            BoundingBox(0, 0, 1, -2)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidBoxError):
            BoundingBox(float("nan"), 0, 1, 1)
        with pytest.raises(InvalidBoxError):
            BoundingBox(0, float("inf"), 1, 1)


class TestValidateScene:
    def _box(self):
        return BoundingBox(0, 0, 1, 1)

    def test_well_formed(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng)
        assert validate_scene(inst) == []

    def test_self_loop_edge(self):
        g = SceneGraph.make([(0, self._box()), (1, self._box())], [(1, 1, 0)])
        violations = validate_scene(SceneInstance.make(g))
        assert len(violations) == 1
        assert "subject index equals object index" in violations[0]

    def test_duplicate_pair_edge(self):
        g = SceneGraph.make([(0, self._box()), (1, self._box())],
                            [(0, 1, 0), (0, 1, 1)])
        violations = validate_scene(SceneInstance.make(g))
        assert any("duplicate" in v for v in violations)

    def test_out_of_range_edge(self):
        g = SceneGraph.make([(0, self._box())], [(0, 5, 0)])
        violations = validate_scene(SceneInstance.make(g))
        assert any("out of range" in v for v in violations)

    def test_feature_count_mismatch(self):
        g = SceneGraph.make([(0, self._box()), (1, self._box())], [])
        inst = SceneInstance.make(g, [[1.0, 2.0]])
        assert any("one feature per object" in v for v in validate_scene(inst))

    def test_ragged_features(self):
        g = SceneGraph.make([(0, self._box()), (1, self._box())], [])
        inst = SceneInstance.make(g, [[1.0, 2.0], [1.0]])
        assert any("uniform" in v for v in validate_scene(inst))


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(FormatError):
            Vocabulary.make([("a", 1), ("a", 2)])

    def test_rejects_negative_counts(self):
        with pytest.raises(FormatError):
            Vocabulary.make([("a", -1)])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        scenes = [random_instance(rng) for _ in range(5)]
        path = tmp_path / "scenes.jsonl"
        save_scenes(scenes, path)
        assert load_scenes(path) == scenes

    def test_features_optional_on_read(self):
        doc = {"objects": [{"label": 0, "box": [0, 0, 1, 1]},
                           {"label": 1, "box": [2, 2, 1, 1]}],
               "edges": [[0, 1, 3]]}
        inst = scene_from_dict(doc)
        assert inst.object_features == ()
        assert inst.graph.edges == ((0, 1, 3),)

    def test_dict_round_trip_preserves_pair_features(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        assert scene_from_dict(json.loads(json.dumps(scene_to_dict(inst)))) == inst

    @pytest.mark.parametrize("doc", [
        {"objects": [{"box": [0, 0, 1, 1]}]},
        {"objects": [{"label": 0, "box": [0, 0, 1, 1]},
                     {"label": 1, "box": [2, 2, 1, 1]}],
         "object_features": [[1.0, 2.0], [3.0]]},  # ragged rows
    ])
    def test_malformed_document(self, doc):
        with pytest.raises(FormatError, match="malformed scene document"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("line", ["not json",
                                      '{"objects": [{"box": [0, 0, 1, 1]}]}'])
    def test_malformed_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"objects": []}\n' + line + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ")):
            load_scenes(path)

    @pytest.mark.parametrize("edge", [[0, 1], [0, 1, 2, 3], 5])
    def test_edge_without_three_entries_is_format_error(self, edge):
        doc = {"objects": [{"label": 0, "box": [0, 0, 1, 1]},
                           {"label": 1, "box": [2, 2, 1, 1]}],
               "edges": [edge]}
        with pytest.raises(FormatError, match="malformed scene document"):
            scene_from_dict(doc)

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"objects": []}\n{"objects": [\xff]}\n')
        with pytest.raises(FormatError, match=":2: byte 29: not UTF-8"):
            load_scenes(path)

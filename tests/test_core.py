import json
import re

import numpy as np
import pytest

from helpers import random_instance
from relkit.core import (BoundingBox, SceneGraph, SceneInstance, Vocabulary,
                         load_scenes, save_scenes, scene_from_dict, scene_to_dict)
from relkit.errors import FormatError, InvalidBoxError


def scene_line(**changes):
    """A well-formed two-object scene as a JSONL line; a change to None
    drops the field."""
    doc = {"objects": [{"label": 0, "box": [0, 0, 1, 1]},
                       {"label": 1, "box": [2, 2, 1, 1]}],
           "edges": [[0, 1, 3]],
           "object_features": [[1.0, 2.0], [3.0, 4.0]],
           "pair_features": {"0,1": [0.5, 0.5]}}
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


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


class TestVocabulary:
    def test_rejects_duplicates(self):
        with pytest.raises(FormatError):
            Vocabulary.make([("a", 1), ("a", 2)])

    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\rb"])
    def test_rejects_a_label_that_breaks_a_tsv_line(self, label):
        with pytest.raises(FormatError, match="tab or line break"):
            Vocabulary.make([("x", 1), (label, 2)])

    def test_rejects_an_empty_label(self):
        with pytest.raises(FormatError, match="labels must not be empty"):
            Vocabulary.make([("x", 1), ("", 2)])

    def test_rejects_negative_counts(self):
        with pytest.raises(FormatError):
            Vocabulary.make([("a", -1)])

    @pytest.mark.parametrize("counts", [(1,), (1, 2, 3)])
    def test_rejects_labels_and_counts_of_unequal_length(self, counts):
        with pytest.raises(FormatError, match="labels/counts length mismatch"):
            Vocabulary(("a", "b"), counts)


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
               "edges": [[0, 1, 3]],
               "object_features": [[1.0, 2.0], [3.0, 4.0]]}
        inst = scene_from_dict(doc)
        assert inst.pair_features == ()
        assert inst.graph.edges == ((0, 1, 3),)

    def test_dict_round_trip_preserves_pair_features(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        assert scene_from_dict(json.loads(json.dumps(scene_to_dict(inst)))) == inst

    @pytest.mark.parametrize("doc", [
        {"objects": [{"box": [0, 0, 1, 1]}]},
        {"objects": [], "pair_features": []},
        {"objects": [{"label": 1e400, "box": [0, 0, 1, 1]}]},
    ])
    def test_malformed_document(self, doc):
        with pytest.raises(FormatError, match="malformed scene document"):
            scene_from_dict(doc)

    @pytest.mark.parametrize("line, message", [
        ("not json", "invalid JSON"),
        (scene_line(objects=[{"box": [0, 0, 1, 1]}]), "malformed scene document"),
        (scene_line(edges=[[1, 1, 0]]), "[1, 1, 0] needs two distinct objects"),
        (scene_line(edges=[[0, 1, 0], [0, 1, 1]]),
         "two edges join the same (subject, object) pair"),
        (scene_line(edges=[[0, 5, 0]]), "[0, 5, 0] needs two distinct objects "
                                        "in [0, 2)"),
        (scene_line(object_features=[[1.0, 2.0]]),
         "scene has 2 objects but 1 object_features rows"),
        (scene_line(object_features=[[1.0, 2.0], [1.0]]),
         "object_features rows differ in length"),
        (scene_line(objects=[{"label": -1, "box": [0, 0, 1, 1]},
                             {"label": 1, "box": [2, 2, 1, 1]}]),
         "object 0: label -1 must be >= 0"),
        (scene_line(edges=[[0, 1, -1]]), "a predicate id >= 0"),
        (scene_line(pair_features={"0,9": [0.5, 0.5]}),
         "pair_features key 0,9: not two distinct objects in [0, 2)"),
        (scene_line(object_features=None),
         "scene has 2 objects but no object_features rows"),
        (scene_line(object_features=[[1.0, float("nan")], [3.0, 4.0]]),
         "non-finite feature value"),
        (scene_line(pair_features={"0,1": [float("inf"), 0.5]}),
         "non-finite feature value"),
        (scene_line(objects=[{"label": 1.9, "box": [0, 0, 1, 1]},
                             {"label": 1, "box": [2, 2, 1, 1]}]),
         "id 1.9 is not an integer"),
        (scene_line(objects=[{"label": True, "box": [0, 0, 1, 1]},
                             {"label": 1, "box": [2, 2, 1, 1]}]),
         "id True is not an integer"),
        (scene_line(edges=[[0, 1, 2.7]]), "id 2.7 is not an integer"),
        (scene_line(edges=[[0, True, 2]]), "id True is not an integer"),
        (scene_line(pair_features={"0,1": [1.0], "00,1": [2.0]}),
         "pair_features key '00,1' repeats (0, 1)"),
        (scene_line(objects=[{"label": 0, "box": [0, 0, True, 1]},
                             {"label": 1, "box": [2, 2, 1, 1]}]),
         "value True is not a number"),
        (scene_line(objects=[{"label": 0, "box": [0, "2.5", 1, 1]},
                             {"label": 1, "box": [2, 2, 1, 1]}]),
         "value '2.5' is not a number"),
        (scene_line(object_features=[[1.0, 2.0], [False, 4.0]]),
         "value False is not a number"),
        (scene_line(object_features=[[1.0, "3"], [3.0, 4.0]]),
         "value '3' is not a number"),
        (scene_line(pair_features={"0,1": ["1e0", 0.5]}),
         "value '1e0' is not a number"),
        (scene_line(pair_features={"0,1": [0.5, None]}),
         "value None is not a number"),
        ('{"objects":[{"label":0,"box":[true,"2.5",1,1]},{"label":1,"box":[0,0,1,1]}],'
         '"edges":[[0,1,0]],"object_features":[[true,"3"],[1,2]],'
         '"pair_features":{"0,1":["1e0",false]}}', "value True is not a number"),
    ], ids=["json", "no-label", "self-loop", "duplicate-pair", "edge-range",
            "feature-count", "ragged-features", "negative-label",
            "negative-predicate", "pair-key-range", "no-object-features",
            "nan-object-feature", "inf-pair-feature", "float-label",
            "bool-label", "float-edge-entry", "bool-edge-entry",
            "repeated-pair-key", "bool-box", "string-box", "bool-feature",
            "string-feature", "string-pair-feature", "null-pair-feature",
            "every-number-field"])
    def test_malformed_line_reports_line_number(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(scene_line() + "\n" + line + "\n")  # line 1 is well-formed
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ") + ".*"
                           + re.escape(message)):
            load_scenes(path)

    @pytest.mark.parametrize("keys", [[(0, 1), (0, 1)], [(0, 1), (1, 2), (0, 1)],
                                      [(1, 2), (0, 1)]],
                             ids=["repeated", "repeated-apart", "descending"])
    def test_instance_pair_keys_ascend_each_once(self, keys):
        graph = SceneGraph.make([(0, BoundingBox(0, 0, 1, 1))] * 3, [])
        pairs = tuple((key, (float(i),)) for i, key in enumerate(keys))
        s, o = keys[-1]
        with pytest.raises(FormatError, match=f"^pair_features key {s},{o}: "
                                              f"repeated or out of order$"):
            SceneInstance(graph, ((1.0,),) * 3, pairs)
        # make() sorts a mapping's keys, and a mapping holds each key once
        assert [k for k, _ in SceneInstance.make(graph, [[1.0]] * 3, dict(pairs)
                                                 ).pair_features] == sorted(set(keys))

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

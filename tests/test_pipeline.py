import json
import os
import re
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

from detseg.geom import BBox
from detseg.net.model import ModelConfig
from detseg.pipeline.annotations import (
    boxes_from_polygons,
    load_annotation,
    load_ground_truth,
    save_annotation,
)
from detseg.pipeline.config import (
    CLASS_TABLE_SCHEMA,
    CONFIG_SCHEMA,
    MODEL_SCHEMA,
    TEMPLATES_SCHEMA,
    check_class_table,
    default_config_dict,
    load_class_table,
    load_run_config,
    load_templates,
    run_config_from_dict,
)
from detseg.pipeline.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from detseg.pipeline.synth import SceneSpec, make_dataset, synth_scene, synthetic_table


def polygon_object(label, polygon, instance_id, **optional):
    """One entry of an annotation document's ``objects``."""
    return {"label": label, "polygon": [list(vertex) for vertex in polygon], "instance_id": instance_id,
            **optional}


def annotation(objects):
    return {"image_width": 64, "image_height": 64, "objects": list(objects)}


class TestTableDocument:
    def test_synthetic_defaults(self):
        table = synthetic_table()
        assert check_class_table(table) is table
        assert table["names"] == ["background", "rect", "ellipse"]
        assert table["detection"] == ["rect", "ellipse"]
        assert table["categories"] == {"background": ["background"], "shape": ["rect", "ellipse"]}

    def test_at_most_255_classes(self):
        # 8-bit label maps hold ids 0-254 and 255 for unlabelled pixels
        names = [f"c{i}" for i in range(256)]
        check_class_table({"names": names[:255], "instanceable": [], "detection": []})
        with pytest.raises(ValueError, match=r"^at most 255 classes fit 8-bit label maps, got 256$"):
            check_class_table({"names": names, "instanceable": [], "detection": []})

    def test_detection_must_be_instanceable(self):
        with pytest.raises(ValueError, match=r"^detection classes must be instanceable: \['a'\]$"):
            check_class_table({"names": ["a", "b"], "instanceable": ["b"], "detection": ["a"]})

    def test_detection_classes_must_be_unique(self):
        # two detection ids of one name would share one key in eval-det's report
        with pytest.raises(ValueError, match="detection classes must be unique"):
            check_class_table({"names": ["a", "b"], "instanceable": ["b"], "detection": ["b", "b"]})

    def test_load_class_table_reads_the_document_written(self, tmp_path):
        for table in (synthetic_table(), {"names": ["a", "b"], "instanceable": ["b"], "detection": ["b"]},
                      {**synthetic_table(), "categories": None}):
            path = os.path.join(tmp_path, "table.json")
            with open(path, "w") as fh:
                json.dump(table, fh)
            assert load_class_table(path) == table


class TestBoxesFromPolygons:
    def test_triangle_bbox(self):
        ann = annotation([polygon_object("rect", ((0, 0), (4, 0), (0, 4)), 1)])
        boxes = boxes_from_polygons(ann, synthetic_table())
        assert len(boxes) == 1
        assert boxes[0].bbox == BBox(0, 0, 4, 4)
        assert boxes[0].class_id == 0
        assert boxes[0].instance_id == 1

    def test_rectangle_is_fixed_point(self):
        polygon = ((2, 3), (10, 3), (10, 8), (2, 8))
        ann = annotation([polygon_object("ellipse", polygon, 2)])
        boxes = boxes_from_polygons(ann, synthetic_table())
        assert boxes[0].bbox == BBox(2, 3, 10, 8)

    def test_vertex_permutation_invariance(self):
        base = ((1, 1), (9, 2), (5, 7), (3, 6))
        permuted = (base[2], base[0], base[3], base[1], base[0])  # plus duplicate
        a = boxes_from_polygons(annotation([polygon_object("rect", base, 1)]), synthetic_table())
        b = boxes_from_polygons(annotation([polygon_object("rect", permuted, 1)]), synthetic_table())
        assert a[0].bbox == b[0].bbox

    def test_degenerate_polygon_dropped(self):
        ann = annotation([
            polygon_object("rect", ((3, 3), (3, 3), (3, 3)), 1),
            polygon_object("rect", ((0, 0), (5, 0), (5, 5), (0, 5)), 2),
        ])
        boxes = boxes_from_polygons(ann, synthetic_table())
        assert len(boxes) == 1
        assert boxes[0].instance_id == 2

    def test_unknown_label_rejected(self):
        ann = annotation([polygon_object("spome", ((0, 0), (1, 1)), 1)])
        with pytest.raises(ValueError, match="spome"):
            boxes_from_polygons(ann, synthetic_table())

    def test_non_detection_classes_skipped(self):
        ann = annotation([polygon_object("background", ((0, 0), (9, 9)), 1)])
        assert boxes_from_polygons(ann, synthetic_table()) == []

    def test_annotation_file_round_trip(self, tmp_path):
        ann = annotation([
            polygon_object("rect", ((0.5, 1.5), (8.0, 1.5), (8.0, 9.0), (0.5, 9.0)), 1,
                           occlusion=2, truncation=0.25),
        ])
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, ann)
        again = load_annotation(path)
        assert again == ann

    def test_failed_save_leaves_existing_file_intact(self, tmp_path):
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([polygon_object("rect", ((0.5, 1.5), (8.0, 9.0)), 1)]))
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(ValueError):
            save_annotation(path, annotation([polygon_object("rect", ((0.5, "x"), (8.0, 9.0)), 1)]))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["a.json"]

    def test_malformed_annotation(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write('{"image_width": 4}')
        with pytest.raises(ValueError):
            load_annotation(path)

    def test_duplicate_instance_ids_rejected(self, tmp_path):
        ann = annotation([
            polygon_object("rect", ((0, 0), (1, 1)), 1),
            polygon_object("rect", ((2, 2), (3, 3)), 1),
        ])
        path = os.path.join(tmp_path, "a.json")
        message = f"annotation {path}: instance ids must be unique, got [1, 1]"
        with pytest.raises(ValueError) as info:
            save_annotation(path, ann)
        assert str(info.value) == message
        assert os.listdir(tmp_path) == []
        with open(path, "w") as fh:
            json.dump(ann, fh)
        with pytest.raises(ValueError) as info:
            load_annotation(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("ann", [
        annotation([polygon_object("rect", ((0, 0), (5, 5)), 1, occlusion=7)]),
        annotation([polygon_object("rect", ((0, "x"), (5, 5)), 1)]),
        annotation([polygon_object("rect", ((0, 0), (5, 5)), 1), polygon_object("rect", ((6, 6), (9, 9)), 1)]),
    ], ids=["occlusion", "string-vertex", "duplicate-ids"])
    def test_save_refuses_what_load_refuses(self, tmp_path, ann):
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([polygon_object("rect", ((0.5, 1.5), (8.0, 9.0)), 1)]))
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(ValueError) as refused:
            save_annotation(path, ann)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["a.json"]
        with open(path, "w") as fh:
            json.dump(ann, fh)
        with pytest.raises(ValueError) as rejected:
            load_annotation(path)
        assert str(refused.value) == str(rejected.value)

    def test_integer_coordinates_give_float_boxes(self, tmp_path):
        path = os.path.join(tmp_path, "a.json")
        with open(path, "w") as fh:
            json.dump(annotation([polygon_object("rect", ((0, 1), (5, 1), (5, 7)), 3, truncation=1)]), fh)
        _, gts = load_ground_truth(path, synthetic_table())
        corners = (gts[0].bbox.x_min, gts[0].bbox.y_min, gts[0].bbox.x_max, gts[0].bbox.y_max)
        assert corners == (0.0, 1.0, 5.0, 7.0)
        assert [type(value) for value in (*corners, gts[0].truncation)] == [float] * 5


class TestLoadGroundTruth:
    def test_degenerate_polygons_are_one_warning_naming_the_file(self, tmp_path, caplog):
        # a point, a horizontal segment, a box and a degenerate non-detection class
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([
            polygon_object("rect", ((3, 3), (3, 3)), 1),
            polygon_object("ellipse", ((1, 2), (9, 2)), 2),
            polygon_object("rect", ((0, 0), (5, 0), (5, 5), (0, 5)), 3),
            polygon_object("background", ((4, 4),), 4),
        ]))
        with caplog.at_level("WARNING"):
            ann, gts = load_ground_truth(path, synthetic_table())
        assert ann == load_annotation(path)
        assert gts == boxes_from_polygons(ann, synthetic_table())
        assert [gt.instance_id for gt in gts] == [3]
        assert caplog.messages == [f"annotation {path}: dropped 2 degenerate (zero-area) polygon(s)"]

    def test_no_warning_without_degenerate_polygons(self, tmp_path, caplog):
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([polygon_object("rect", ((0, 0), (5, 5)), 1)]))
        with caplog.at_level("WARNING"):
            load_ground_truth(path, synthetic_table())
        assert caplog.messages == []

    def test_unknown_label_names_the_file(self, tmp_path):
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([polygon_object("truck", ((0, 0), (5, 5)), 1)]))
        with pytest.raises(ValueError) as info:
            load_ground_truth(path, synthetic_table())
        assert str(info.value) == (f"annotation {path}: unknown label 'truck' "
                                   "(known: ['background', 'rect', 'ellipse'])")


class TestSynthScenes:
    def test_deterministic_per_seed(self):
        a = synth_scene(123)
        b = synth_scene(123)
        c = synth_scene(124)
        assert np.array_equal(a.image.data, b.image.data)
        assert np.array_equal(a.label_map.data, b.label_map.data)
        assert a.gts == b.gts
        assert not np.array_equal(a.image.data, c.image.data)

    def test_zero_objects(self):
        sample = synth_scene(5, SceneSpec(min_objects=0, max_objects=0))
        assert sample.gts == []
        assert np.all(sample.label_map.data == 0)
        assert np.all(sample.instance_map == 0)

    def test_label_counts_match_instance_regions(self):
        table = synthetic_table()
        for seed in range(5):
            sample = synth_scene(seed)
            for obj, polygon in zip(sample.gts, sample.annotation["objects"]):
                region = sample.instance_map == obj.instance_id
                seg_id = table["names"].index(table["detection"][obj.class_id])
                assert region.sum() > 0
                assert np.all(sample.label_map.data[region] == seg_id)
            total_fg = sum((sample.instance_map == g.instance_id).sum() for g in sample.gts)
            assert (sample.label_map.data != 0).sum() == total_fg

    def test_polygon_boxes_are_the_placed_boxes(self):
        # objects are placed on integer boxes, and each ellipse polygon holds
        # the four axis-extreme vertices, so every box derived from a polygon
        # has integer corners
        for seed in range(20):
            sample = synth_scene(seed)
            assert [g.instance_id for g in sample.gts] == [o["instance_id"] for o in sample.annotation["objects"]]
            for obj in sample.gts:
                corners = obj.bbox.as_array()
                assert np.array_equal(corners, np.round(corners))

    def test_object_pixels_inside_bbox(self):
        for seed in range(5):
            sample = synth_scene(seed)
            for obj in sample.gts:
                ys, xs = np.nonzero(sample.instance_map == obj.instance_id)
                assert xs.min() + 0.5 >= obj.bbox.x_min
                assert xs.max() + 0.5 <= obj.bbox.x_max
                assert ys.min() + 0.5 >= obj.bbox.y_min
                assert ys.max() + 0.5 <= obj.bbox.y_max

    def test_at_most_255_objects(self):
        with pytest.raises(ValueError, match="max_objects <= 255"):
            SceneSpec(width=256, height=256, min_objects=256, max_objects=256, min_size=2, max_size=4)
        sample = synth_scene(0, SceneSpec(width=256, height=256, min_objects=255, max_objects=255,
                                          min_size=2, max_size=4))
        assert sorted(np.unique(sample.instance_map).tolist()) == list(range(256))

    def test_unplaceable_spec_rejected(self):
        spec = SceneSpec(width=32, height=32, min_objects=12, max_objects=12,
                         min_size=10, max_size=12)
        with pytest.raises(ValueError, match="place"):
            synth_scene(0, spec)

    def test_dataset_is_per_image_seeded(self):
        data = make_dataset(9, 3)
        again = make_dataset(9, 3)
        for a, b in zip(data, again):
            assert np.array_equal(a.image.data, b.image.data)
        assert not np.array_equal(data[0].image.data, data[1].image.data)

    def test_image_range(self):
        sample = synth_scene(0)
        assert sample.image.data.min() >= 0.0
        assert sample.image.data.max() <= 1.0
        assert sample.image.data.shape == (3, 64, 64)

    def test_size_not_a_multiple_of_8(self):
        # the background's 8x8 texture cells are cut at the right and bottom edges
        sample = synth_scene(0, SceneSpec(width=60, height=44))
        assert sample.image.data.shape == (3, 44, 60)
        assert sample.label_map.data.shape == sample.instance_map.shape == (44, 60)


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, (3, 5, 7)).astype(np.uint8)
        path = os.path.join(tmp_path, "x.ppm")
        write_ppm(path, image)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert np.array_equal((back * 255).round().astype(np.uint8), image)

    def test_ppm_float_input(self, tmp_path):
        image = np.zeros((3, 2, 2))
        image[0] = 1.0
        path = os.path.join(tmp_path, "f.ppm")
        write_ppm(path, image)
        back = read_ppm(path)
        assert back[0] == pytest.approx(np.ones((2, 2)))
        assert back[1] == pytest.approx(np.zeros((2, 2)))

    def test_pgm_round_trip(self, tmp_path):
        labels = np.array([[0, 255], [7, 3]], dtype=np.uint8)
        path = os.path.join(tmp_path, "x.pgm")
        write_pgm(path, labels)
        assert np.array_equal(read_pgm(path), labels)

    def test_reader_accepts_comments(self, tmp_path):
        path = os.path.join(tmp_path, "c.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pgm(path), np.array([[1, 2], [3, 4]], dtype=np.uint8))

    # comments before any field, holding digits, ended by \n or \r
    @pytest.mark.parametrize("header", [b"P5#7 7\n2\t2 #9\r255\r", b"P5 2\n#\n2\n# 3 3 3\n255 "])
    def test_reader_accepts_comments_before_any_field(self, tmp_path, header):
        path = os.path.join(tmp_path, "c.pgm")
        with open(path, "wb") as fh:
            fh.write(header + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pgm(path), np.array([[1, 2], [3, 4]], dtype=np.uint8))

    def test_reader_rejects_wrong_magic_and_depth(self, tmp_path):
        path = os.path.join(tmp_path, "bad.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P4\n2 2\n255\n1234")
        with pytest.raises(ValueError):
            read_pgm(path)
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_comment_digits_are_no_header_field(self, tmp_path):
        # the maxval is missing: the "255" belongs to the comment
        path = os.path.join(tmp_path, "c.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5 2 2 # 255 \n" + bytes(4))
        with pytest.raises(ValueError, match="malformed header"):
            read_pgm(path)

    @pytest.mark.parametrize("magic, reader", [(b"P5", read_pgm), (b"P6", read_ppm)])
    @pytest.mark.parametrize("size", [b"16 0", b"0 16", b"0 0"])
    def test_empty_raster_rejected_naming_the_file(self, tmp_path, magic, reader, size):
        path = os.path.join(tmp_path, "e.pnm")
        with open(path, "wb") as fh:
            fh.write(magic + b"\n" + size + b"\n255\n")
        width, height = size.decode().split()
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"empty {width}x{height} raster in {path}"

    def test_truncated_raster_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "t.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)


class TestRunConfig:
    def test_default_config_is_valid(self):
        config = run_config_from_dict(default_config_dict())
        assert config.seed == 7
        assert len(config.templates) == 15
        assert config.model.anchors_per_cell == 15

    def test_rejects_unknown_keys(self):
        data = default_config_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            run_config_from_dict(data)

    def test_rejects_wrong_types(self):
        data = default_config_dict()
        data["seed"] = "seven"
        with pytest.raises(ValueError, match="seed"):
            run_config_from_dict(data)

    @pytest.mark.parametrize("anchors", [{"stride": 8},
                                         {"preset": "toy", "templates": [{"ratio": 1.0, "area": 64}]}])
    def test_preset_and_templates_exclusive(self, tmp_path, anchors):
        data = {**default_config_dict(), "anchors": anchors}
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        message = f"config {path}: invalid config at anchors: must specify exactly one of 'preset' or 'templates'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_run_config(path)

    def test_explicit_templates(self):
        data = default_config_dict()
        data["anchors"] = {"stride": 8, "templates": [{"ratio": 1.0, "area": 64}]}
        config = run_config_from_dict(data)
        assert config.model.anchors_per_cell == 1

    def test_stride_must_be_the_model_downsampling(self):
        # the model's feature map is always 1/8 of the image, so any other
        # anchor stride gives a lattice the heads do not predict
        data = default_config_dict()
        for stride in (4, 16):
            data["anchors"]["stride"] = stride
            with pytest.raises(ValueError, match="invalid config at anchors/stride: 8 was expected"):
                run_config_from_dict(data)

    def test_at_most_255_classes(self):
        # 8-bit label maps hold ids 0-254 and 255 for unlabelled pixels
        data = default_config_dict()
        data["model"]["num_classes"] = 255
        assert run_config_from_dict(data).model.num_classes == 255
        data["model"]["num_classes"] = 256
        with pytest.raises(ValueError, match="model/num_classes: 256 is greater than the maximum of 255"):
            run_config_from_dict(data)

    def test_image_size_must_be_a_multiple_of_8(self):
        data = default_config_dict()
        data["dataset"]["width"] = 60
        with pytest.raises(ValueError, match="invalid config at dataset/width: 60 is not a multiple of 8"):
            run_config_from_dict(data)

    @pytest.mark.parametrize("section, key", [("thresholds", "score"), ("thresholds", "nms_iou")])
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected_naming_the_file(self, tmp_path, section, key, number):
        data = default_config_dict()
        data[section][key] = float(number)
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)  # writes NaN, Infinity and -Infinity as Python's json reads them
        with pytest.raises(ValueError, match=f"config {re.escape(path)}: invalid config at {section}/{key}: "
                                             f"-?(nan|inf) is not of type 'number'"):
            load_run_config(path)

    def test_load_from_file(self, tmp_path):
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            json.dump(default_config_dict(), fh)
        config = load_run_config(path)
        assert config.iterations == default_config_dict()["training"]["iterations"]

    def test_malformed_json(self, tmp_path):
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.raises(ValueError, match="malformed"):
            load_run_config(path)

    # A valid value other than the default for every run-config setting but
    # anchors/stride, whose only legal value is 8.
    NON_DEFAULT = {
        "seed": 8,
        "model/num_classes": 4,
        "model/num_object_classes": 3,
        "model/embedding_dim": 5,
        "model/stem_channels": 8,
        "model/stage_channels": [8, 8, 8],
        "model/stage_blocks": [2, 2, 2],
        "model/dilation": 3,
        "model/seg_head_channels": [8, 8, 8],
        "model/det_channels": 8,
        "anchors/preset": "paper-table1",
        "anchors/templates": [{"ratio": 1.0, "area": 64}],
        "thresholds/score": 0.25,
        "thresholds/nms_iou": 0.25,
        "training/iterations": 3,
        "training/tasks": ["segmentation"],
        "training/freeze_stats_after": 1,
        "dataset/num_images": 2,
        "dataset/width": 72,
        "dataset/height": 72,
        "dataset/min_objects": 0,
        "dataset/max_objects": 2,
        "dataset/min_size": 4,
        "dataset/max_size": 12,
    }

    @staticmethod
    def schema_leaves(schema: dict, prefix: str = "") -> set:
        leaves = set()
        for key, sub in schema["properties"].items():
            leaves |= TestRunConfig.schema_leaves(sub, f"{prefix}{key}/") if "properties" in sub else {prefix + key}
        return leaves

    def test_every_setting_is_read(self):
        # a setting that does not change the RunConfig changes nothing the commands do
        assert set(self.NON_DEFAULT) == self.schema_leaves(CONFIG_SCHEMA) - {"anchors/stride"}

        def settings(data):
            config = run_config_from_dict(data)
            return {f.name: getattr(config, f.name) for f in fields(config) if f.name != "raw"}

        default = settings(default_config_dict())
        for path, value in self.NON_DEFAULT.items():
            data = default_config_dict()
            section, _, key = path.rpartition("/")
            parent = data[section] if section else data
            if path == "anchors/templates":
                del parent["preset"]
            parent[key] = value
            assert settings(data) != default, path

    def test_schema_is_self_consistent(self):
        for schema in (CONFIG_SCHEMA, TEMPLATES_SCHEMA, CLASS_TABLE_SCHEMA):
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_model_fragment_covers_every_model_setting(self):
        # anchors_per_cell is not a run-config setting: it is the number of templates
        names = {f.name for f in fields(ModelConfig)} - {"anchors_per_cell"}
        assert set(MODEL_SCHEMA["properties"]) == names


class TestTemplatesFile:
    def write(self, tmp_path, text):
        path = os.path.join(tmp_path, "templates.json")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    MALFORMED = {
        "missing_area": ('[{"ratio": 1.0}]', "0", "'area' is a required property"),
        "empty": ("[]", "<root>", "should be non-empty"),
        "not_an_array": ('{"ratio": 1, "area": 64}', "<root>", "is not of type 'array'"),
        "unknown_key": ('[{"ratio": 1, "area": 64, "bogus": 3}]', "0", r"\('bogus' was unexpected\)"),
        "zero_ratio": ('[{"ratio": 0, "area": 64}]', "0/ratio", "less than or equal to the minimum of 0"),
        "nan": ('[{"ratio": NaN, "area": 64}]', "0/ratio", "nan is not of type 'number'"),
        "infinity": ('[{"ratio": 1, "area": Infinity}]', "0/area", "inf is not of type 'number'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_rejected_naming_the_file(self, tmp_path, case):
        text, where, message = self.MALFORMED[case]
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=f"templates file {re.escape(path)}: invalid templates at {where}: .*{message}"):
            load_templates(path)

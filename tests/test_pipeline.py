import json
import os

import numpy as np
import pytest

from detseg.geom import BBox
from detseg.pipeline.annotations import (
    AnnotationFile,
    PolygonObject,
    boxes_from_polygons,
    load_annotation,
    save_annotation,
)
from detseg.pipeline.classtable import ClassTable, cityscapes_table, synthetic_table
from detseg.pipeline.config import (
    CONFIG_SCHEMA,
    default_config_dict,
    load_run_config,
    run_config_from_dict,
)
from detseg.pipeline.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from detseg.pipeline.synth import SceneSpec, make_dataset, synth_scene


def annotation(objects):
    return AnnotationFile(image_width=64, image_height=64, objects=tuple(objects))


class TestClassTable:
    def test_synthetic_defaults(self):
        table = synthetic_table()
        assert table.num_classes == 3
        assert table.id_of("background") == 0
        assert table.detection_id_of("rect") == 0
        assert table.detection_id_of("ellipse") == 1
        assert table.instanceable_ids() == (1, 2)

    def test_cityscapes_table(self):
        table = cityscapes_table()
        assert table.num_classes == 19
        assert table.id_of("car") == 13
        assert "vehicle" in table.category_ids()
        assert table.detection == ("car", "person")

    def test_detection_must_be_instanceable(self):
        with pytest.raises(ValueError):
            ClassTable(names=("a", "b"), instanceable=frozenset({"b"}), detection=("a",))

    def test_json_round_trip(self):
        table = synthetic_table()
        assert ClassTable.from_json(table.to_json()) == table


class TestBoxesFromPolygons:
    def test_triangle_bbox(self):
        ann = annotation([PolygonObject("rect", ((0, 0), (4, 0), (0, 4)), 1)])
        boxes = boxes_from_polygons(ann, synthetic_table())
        assert len(boxes) == 1
        assert boxes[0].bbox == BBox(0, 0, 4, 4)
        assert boxes[0].class_id == 0
        assert boxes[0].instance_id == 1

    def test_rectangle_is_fixed_point(self):
        polygon = ((2, 3), (10, 3), (10, 8), (2, 8))
        ann = annotation([PolygonObject("ellipse", polygon, 2)])
        boxes = boxes_from_polygons(ann, synthetic_table())
        assert boxes[0].bbox == BBox(2, 3, 10, 8)

    def test_vertex_permutation_invariance(self):
        base = ((1, 1), (9, 2), (5, 7), (3, 6))
        permuted = (base[2], base[0], base[3], base[1], base[0])  # plus duplicate
        a = boxes_from_polygons(annotation([PolygonObject("rect", base, 1)]), synthetic_table())
        b = boxes_from_polygons(annotation([PolygonObject("rect", permuted, 1)]), synthetic_table())
        assert a[0].bbox == b[0].bbox

    def test_degenerate_polygon_dropped(self, caplog):
        ann = annotation([
            PolygonObject("rect", ((3, 3), (3, 3), (3, 3)), 1),
            PolygonObject("rect", ((0, 0), (5, 0), (5, 5), (0, 5)), 2),
        ])
        with caplog.at_level("WARNING"):
            boxes = boxes_from_polygons(ann, synthetic_table())
        assert len(boxes) == 1
        assert boxes[0].instance_id == 2
        assert any("degenerate" in r.message for r in caplog.records)

    def test_unknown_label_rejected(self):
        ann = annotation([PolygonObject("spome", ((0, 0), (1, 1)), 1)])
        with pytest.raises(ValueError, match="spome"):
            boxes_from_polygons(ann, synthetic_table())

    def test_non_detection_classes_skipped(self):
        ann = annotation([PolygonObject("background", ((0, 0), (9, 9)), 1)])
        assert boxes_from_polygons(ann, synthetic_table()) == []

    def test_annotation_file_round_trip(self, tmp_path):
        ann = annotation([
            PolygonObject("rect", ((0.5, 1.5), (8.0, 1.5), (8.0, 9.0), (0.5, 9.0)), 1,
                          occlusion=2, truncation=0.25),
        ])
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, ann)
        again = load_annotation(path)
        assert again == ann

    def test_failed_save_leaves_existing_file_intact(self, tmp_path):
        path = os.path.join(tmp_path, "a.json")
        save_annotation(path, annotation([PolygonObject("rect", ((0.5, 1.5), (8.0, 9.0)), 1)]))
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(ValueError):
            save_annotation(path, annotation([PolygonObject("rect", ((0.5, "x"), (8.0, 9.0)), 1)]))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["a.json"]

    def test_malformed_annotation(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write('{"image_width": 4}')
        with pytest.raises(ValueError):
            load_annotation(path)

    def test_duplicate_instance_ids_rejected(self):
        with pytest.raises(ValueError):
            annotation([
                PolygonObject("rect", ((0, 0), (1, 1)), 1),
                PolygonObject("rect", ((2, 2), (3, 3)), 1),
            ])


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
            for obj, polygon in zip(sample.gts, sample.annotation.objects):
                region = sample.instance_map == obj.instance_id
                seg_id = table.id_of(table.detection[obj.class_id])
                assert region.sum() > 0
                assert np.all(sample.label_map.data[region] == seg_id)
            total_fg = sum((sample.instance_map == g.instance_id).sum() for g in sample.gts)
            assert (sample.label_map.data != 0).sum() == total_fg

    def test_boxes_match_polygon_extraction(self):
        table = synthetic_table()
        for seed in range(5):
            sample = synth_scene(seed)
            recovered = boxes_from_polygons(sample.annotation, table)
            assert len(recovered) == len(sample.gts)
            for a, b in zip(recovered, sample.gts):
                assert a.class_id == b.class_id
                assert a.instance_id == b.instance_id
                assert a.bbox.as_array() == pytest.approx(b.bbox.as_array(), abs=1e-9)

    def test_object_pixels_inside_bbox(self):
        for seed in range(5):
            sample = synth_scene(seed)
            for obj in sample.gts:
                ys, xs = np.nonzero(sample.instance_map == obj.instance_id)
                assert xs.min() + 0.5 >= obj.bbox.x_min
                assert xs.max() + 0.5 <= obj.bbox.x_max
                assert ys.min() + 0.5 >= obj.bbox.y_min
                assert ys.max() + 0.5 <= obj.bbox.y_max

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
        assert config.schedule.max_iter == config.iterations

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

    def test_preset_and_templates_exclusive(self):
        data = default_config_dict()
        data["anchors"]["templates"] = [{"ratio": 1.0, "area": 64}]
        with pytest.raises(ValueError, match="exactly one"):
            run_config_from_dict(data)

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
            with pytest.raises(ValueError, match=r"anchors\.stride must be 8.*got %d" % stride):
                run_config_from_dict(data)

    def test_schedule_must_cover_iterations(self):
        data = default_config_dict()
        data["schedule"]["max_iter"] = 10
        with pytest.raises(ValueError, match="max_iter"):
            run_config_from_dict(data)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("NNAD_SEED", "99")
        config = run_config_from_dict(default_config_dict())
        assert config.seed == 99

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("NNAD_SEED", "abc")
        with pytest.raises(ValueError, match="NNAD_SEED"):
            run_config_from_dict(default_config_dict())

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

    def test_missing_dataset_dir_rejected(self, tmp_path):
        data = default_config_dict()
        data["paths"] = {"dataset_dir": os.path.join(tmp_path, "absent")}
        with pytest.raises(ValueError, match="dataset_dir"):
            run_config_from_dict(data)

    def test_unread_paths_key_rejected(self):
        data = default_config_dict()
        data["paths"] = {"out_dir": "runs"}
        with pytest.raises(ValueError, match="invalid config at paths"):
            run_config_from_dict(data)

    def test_schema_is_self_consistent(self):
        import jsonschema

        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

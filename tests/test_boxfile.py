"""Box-file JSON and palette grammar parsing, plus the label join."""

import json
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcedit import (DuplicateLabel, OrientedBox, ParseError, RangeError,
                    SchemaError, join_boxes_palette, parse_box_file,
                    parse_palette_file)
from pcedit.boxfile import BoxFile


def object_dict(name="tree", centroid=(1, 2, 3), dims=(2, 2, 4),
                rot=(0, 0, 0)):
    return {
        "name": name,
        "centroid": dict(zip("xyz", centroid)),
        "dimensions": dict(zip(("length", "width", "height"), dims)),
        "rotations": dict(zip("xyz", rot)),
    }


def box_json(*objects, filename="cloud.ply"):
    return json.dumps({"filename": filename, "objects": list(objects)})


class TestParseBoxFile:
    def test_single_object(self):
        parsed = parse_box_file(box_json(object_dict()))
        assert parsed.source_cloud_name == "cloud.ply"
        assert len(parsed.boxes) == 1
        box = parsed.boxes[0]
        assert box.label == "tree"
        assert box.centroid == (1, 2, 3)
        assert box.dimensions == (2, 2, 4)  # length->x, width->y, height->z
        assert box.rotations == (0, 0, 0)

    def test_empty_objects_list_is_valid(self):
        assert parse_box_file(box_json()).boxes == []

    def test_zero_height_names_object_index(self):
        with pytest.raises(SchemaError, match="object 0"):
            parse_box_file(box_json(object_dict(dims=(2, 2, 0))))

    def test_second_object_bad_reports_index_1(self):
        text = box_json(object_dict(), object_dict(name=""))
        with pytest.raises(SchemaError, match="object 1"):
            parse_box_file(text)

    @pytest.mark.parametrize("drop", ["name", "centroid", "dimensions",
                                      "rotations"])
    def test_missing_field_is_schema_error(self, drop):
        obj = object_dict()
        del obj[drop]
        with pytest.raises(SchemaError):
            parse_box_file(box_json(obj))

    def test_non_numeric_coordinate(self):
        obj = object_dict()
        obj["centroid"]["y"] = "five"
        with pytest.raises(SchemaError, match="centroid.y"):
            parse_box_file(box_json(obj))

    @pytest.mark.parametrize("outer, key, value", [
        ("dimensions", "width", "NaN"), ("dimensions", "length", "Infinity"),
        ("centroid", "x", "-Infinity"), ("rotations", "z", "NaN")])
    def test_non_finite_number_names_object_and_field(self, outer, key,
                                                      value):
        obj = object_dict()
        obj[outer][key] = "SENTINEL"
        text = box_json(object_dict(), obj).replace('"SENTINEL"', value)
        with pytest.raises(SchemaError, match=f"object 1: {outer}.{key}"):
            parse_box_file(text)

    def test_missing_filename(self):
        with pytest.raises(SchemaError, match="filename"):
            parse_box_file(json.dumps({"objects": []}))

    @pytest.mark.parametrize("doc, message", [
        ([], "top level must be a JSON object"),
        ({"filename": "c.ply"}, "missing top-level 'objects' list"),
        ({"filename": "c.ply", "objects": [object_dict(), 7]},
         "object 1: not a JSON object"),
    ])
    def test_bad_document_shape(self, doc, message):
        with pytest.raises(SchemaError) as caught:
            parse_box_file(json.dumps(doc))
        assert str(caught.value) == message

    def test_missing_coordinate_names_object_and_field(self):
        obj = object_dict()
        del obj["centroid"]["z"]
        with pytest.raises(SchemaError) as caught:
            parse_box_file(box_json(obj))
        assert str(caught.value) == "object 0: missing centroid.z"

    def test_integer_beyond_float_range_is_not_finite(self):
        huge = "1" + "0" * 400
        obj = object_dict()
        obj["dimensions"]["length"] = "SENTINEL"
        text = box_json(obj).replace('"SENTINEL"', huge)
        with pytest.raises(SchemaError) as caught:
            parse_box_file(text)
        assert str(caught.value) == \
            f"object 0: dimensions.length must be finite, got {huge}"

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_box_file("{not json")

    def test_box_order_follows_file_order(self):
        text = box_json(object_dict(name="a"), object_dict(name="b"),
                        object_dict(name="a"))
        labels = [b.label for b in parse_box_file(text).boxes]
        assert labels == ["a", "b", "a"]

    def test_parse_is_pure(self):
        text = box_json(object_dict(), object_dict(name="x", rot=(10, 20, 30)))
        assert parse_box_file(text) == parse_box_file(text)


coord = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
dim = st.floats(0.001, 500, allow_nan=False)
angle = st.floats(0, 360, exclude_max=True, allow_nan=False)
label_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N")),
    min_size=1, max_size=12)


@given(st.lists(st.tuples(label_text,
                          st.tuples(coord, coord, coord),
                          st.tuples(dim, dim, dim),
                          st.tuples(angle, angle, angle)),
                max_size=6))
def test_serialize_parse_fixpoint(rows):
    original = BoxFile(
        source_cloud_name="c.ply",
        boxes=[OrientedBox(label=l, centroid=c, dimensions=d, rotations=r)
               for l, c, d, r in rows])
    reparsed = parse_box_file(original.to_json())
    assert reparsed == original
    # a second round must be byte-stable, not merely equal
    assert reparsed.to_json() == original.to_json()


class TestParsePalette:
    def test_basic_line(self):
        palette = parse_palette_file("tree 0 255 0 1")
        assert palette["tree"].color == (0, 255, 0)
        assert palette["tree"].enabled

    def test_disabled_entry(self):
        palette = parse_palette_file("sky 135 206 235 0")
        assert not palette["sky"].enabled

    def test_channel_out_of_range(self):
        with pytest.raises(RangeError, match="line 1"):
            parse_palette_file("tree 0 999 0 1")

    def test_comments_and_blanks_ignored(self):
        text = "# classes\n\ntree 0 255 0 1  # green\n\n# done\n"
        palette = parse_palette_file(text)
        assert list(palette) == ["tree"]

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel, match="line 3"):
            parse_palette_file("a 1 2 3 1\nb 0 0 0 1\na 9 9 9 0")

    @pytest.mark.parametrize("line", ["tree 0 0 0", "tree 0 0 0 1 extra",
                                      "tree x 0 0 1", "tree 0 0 0 2"])
    def test_malformed_lines(self, line):
        with pytest.raises(ParseError, match="line 1"):
            parse_palette_file(line)

    def test_error_line_numbers_count_comments(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_palette_file("# header\n\nok 1 2 3 1\nbroken 1 2\n")


class TestJoin:
    def box_file(self, *labels):
        return BoxFile(source_cloud_name="c",
                       boxes=[OrientedBox(label=l, centroid=(0, 0, 0),
                                          dimensions=(1, 1, 1))
                              for l in labels])

    def test_join_matches_by_label(self):
        joined = join_boxes_palette(self.box_file("tree"),
                                    parse_palette_file("tree 0 255 0 1"))
        assert joined[0].color == (0, 255, 0)
        assert joined[0].enabled

    def test_missing_label_enabled_colorless(self, caplog):
        with caplog.at_level(logging.WARNING):
            joined = join_boxes_palette(self.box_file("pole"),
                                        parse_palette_file("tree 0 255 0 1"))
        assert joined[0].color is None
        assert joined[0].enabled
        assert "pole" in caplog.text

    def test_disabled_entry_disables_box(self):
        joined = join_boxes_palette(self.box_file("sky"),
                                    parse_palette_file("sky 1 2 3 0"))
        assert not joined[0].enabled

    def test_join_length_and_order_follow_boxes(self):
        boxes = self.box_file("b", "a", "b", "zzz")
        joined = join_boxes_palette(boxes,
                                    parse_palette_file("a 1 1 1 1\nb 2 2 2 0"))
        assert [j.box.label for j in joined] == ["b", "a", "b", "zzz"]
        assert [j.enabled for j in joined] == [False, True, False, True]

    def test_join_without_palette(self):
        joined = join_boxes_palette(self.box_file("x"), None)
        assert joined[0].enabled and joined[0].color is None

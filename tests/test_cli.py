"""End-to-end CLI behavior: exit codes, reports, determinism."""

import json
import re

import numpy as np
import pytest

from pcedit import PointCloud, cli, read_cloud, write_cloud
from pcedit.cli import run
from pcedit.formats import ply


def write_scene(tmp_path, n_outliers=10):
    """A ply cloud with a tight color cluster plus white outliers, a box
    covering everything, and enabled/disabled palettes."""
    rng = np.random.default_rng(7)
    colors = np.vstack([rng.integers(95, 106, (50, 3)),
                        np.tile([255, 255, 255], (n_outliers, 1))])
    cloud = PointCloud(rng.uniform(-5, 5, (50 + n_outliers, 3)), colors)
    cloud_path = tmp_path / "cloud.ply"
    write_cloud(cloud, cloud_path)

    boxes_path = tmp_path / "boxes.json"
    boxes_path.write_text(json.dumps({
        "filename": "cloud.ply",
        "objects": [{
            "name": "zone",
            "centroid": {"x": 0, "y": 0, "z": 0},
            "dimensions": {"length": 100, "width": 100, "height": 100},
            "rotations": {"x": 0, "y": 0, "z": 0},
        }],
    }))
    palette_path = tmp_path / "palette.txt"
    palette_path.write_text("zone 10 200 30 1\n")
    disabled_path = tmp_path / "disabled.txt"
    disabled_path.write_text("zone 10 200 30 0\n")
    return cloud, cloud_path, boxes_path, palette_path, disabled_path


class TestConvert:
    def test_happy_path(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.pcd"
        assert run(["convert", str(cloud_path), str(out)]) == 0
        assert "wrote 60 points" in capsys.readouterr().out
        assert read_cloud(out).count == 60

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.las"
        assert run(["convert", str(cloud_path), str(out),
                    "--dry-run"]) == 0
        assert not out.exists()
        assert "would write" in capsys.readouterr().out

    def test_lossy_warning_on_stderr(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.xyz"
        assert run(["convert", str(cloud_path), str(out)]) == 0
        assert "color dropped" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("command", ["recolor", "delete", "segment"])
    def test_edit_lossy_warning_on_stderr(self, tmp_path, capsys, command,
                                          dry_run):
        _, cloud_path, boxes_path, palette, _ = write_scene(tmp_path)
        argv = [command, "--cloud", str(cloud_path), "--boxes",
                str(boxes_path), "--out", str(tmp_path / "out.xyz")]
        argv += ["--palette", str(palette)] if command == "segment" \
            else ["--radius", "60"]
        assert run(argv + ["--dry-run"] * dry_run) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: color dropped: xyz cannot store "
                                "color channels\n")
        assert "color dropped" not in captured.out

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_split_lossy_warning_on_stderr(self, tmp_path, capsys, dry_run):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        argv = ["split", "--cloud", str(cloud_path), "--boxes",
                str(boxes_path), "--out-dir", str(tmp_path / "frags"),
                "--format", "xyz"]
        assert run(argv + ["--dry-run"] * dry_run) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: color dropped: xyz cannot store "
                                "color channels\n")
        assert "color dropped" not in captured.out

    def test_convert_onto_its_own_input(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        fresh = tmp_path / "fresh.ply"
        assert run(["convert", str(cloud_path), str(fresh),
                    "--encoding", "ascii"]) == 0
        assert run(["convert", str(cloud_path), str(cloud_path),
                    "--encoding", "ascii"]) == 0
        assert cloud_path.read_bytes() == fresh.read_bytes()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = run(["convert", str(tmp_path / "nope.ply"),
                    str(tmp_path / "o.xyz")])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_extension_is_data_error(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        bad = cloud_path.with_suffix(".step")
        bad.write_bytes(cloud_path.read_bytes())
        assert run(["convert", str(bad), str(tmp_path / "o.xyz")]) == 2

    @pytest.mark.parametrize("suffix", ["las", "laz"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-0.01"])
    def test_bad_las_scale_is_data_error(self, tmp_path, capsys, suffix,
                                         scale):
        _, cloud_path, *_ = write_scene(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert run(["convert", str(cloud_path), str(tmp_path / f"o.{suffix}"),
                    "--las-scale", scale]) == 2
        assert sorted(tmp_path.iterdir()) == before
        # checked before the LAZ codec is looked for, so laspy is not needed
        assert "LAS scale must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["-0.5", "nan"])
    def test_float_convention_color_out_of_range(self, tmp_path, capsys,
                                                  bad):
        src = tmp_path / "n.xyzrgb"
        src.write_text(f"1 1 1 0.5 0.5 0.5\n0 0 0 {bad} 0.2 0.25\n")
        assert run(["convert", str(src), str(tmp_path / "n.ply")]) == 2
        assert sorted(tmp_path.iterdir()) == [src]
        assert "line 2: color value" in capsys.readouterr().err

    def test_report_file_shape(self, tmp_path):
        _, cloud_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.xyzrgb"
        report = tmp_path / "report.json"
        assert run(["convert", str(cloud_path), str(out),
                    "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["command"] == "convert"
        assert payload["flags"]["input"].endswith("cloud.ply")
        assert payload["report"]["points_written"] == 60
        assert payload["report"]["dest_kind"] == "xyzrgb"


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_remap_without_target(self, tmp_path, capsys):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        code = run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--out", str(tmp_path / "o.ply"), "--mode", "remap"])
        assert code == 1
        assert "--target" in capsys.readouterr().err

    def test_bad_percentile(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        assert run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--out", str(tmp_path / "o.ply"),
                    "--percentile", "0"]) == 1

    def test_all_boxes_disabled(self, tmp_path, capsys):
        _, cloud_path, boxes_path, _, disabled = write_scene(tmp_path)
        code = run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--palette", str(disabled),
                    "--out", str(tmp_path / "o.ply")])
        assert code == 1
        assert "no enabled boxes" in capsys.readouterr().err

    def test_segment_requires_palette(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        assert run(["segment", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--out", str(tmp_path / "o.ply")]) == 1


    @pytest.mark.parametrize("flags", [
        ["--radius", "-1"],
        ["--mode", "remap", "--target", "10", "0", "0", "5", "255", "255"],
        ["--mode", "remap", "--target", "0", "0", "0", "300", "255", "255"],
        ["--radius", "nan"]])
    def test_bad_parameter_values(self, tmp_path, capsys, flags):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        assert run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--out", str(tmp_path / "o.ply"), *flags]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option, value, code, message", [
        ("convert", "--las-scale", "-inf", 2, "LAS scale must be finite"),
        ("convert", "--las-scale", "-1e-3", 2, "LAS scale must be finite"),
        ("recolor", "--radius", "-1e-3", 1, "radius must be >= 0"),
        ("recolor", "--percentile", "-inf", 1, "percentile must be in"),
    ])
    def test_option_value_starting_with_minus(self, tmp_path, capsys,
                                              command, option, value, code,
                                              message):
        """``--opt -1e-3`` is the value -1e-3, exactly as ``--opt=-1e-3``."""
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        if command == "convert":
            args = ["convert", str(cloud_path), str(tmp_path / "o.las")]
        else:
            args = ["recolor", "--cloud", str(cloud_path), "--boxes",
                    str(boxes_path), "--out", str(tmp_path / "o.ply")]
        before = sorted(tmp_path.iterdir())
        errors = []
        for spelling in ([option, value], [f"{option}={value}"]):
            assert run(args + spelling) == code
            errors.append(capsys.readouterr().err)
        assert sorted(tmp_path.iterdir()) == before
        assert message in errors[0]
        assert errors[0] == errors[1]

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path,
                                                       monkeypatch):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)

        def broken(*args, **kwargs):
            raise ValueError("shapes (5,3) and (4,3) not aligned")

        monkeypatch.setattr(cli, "split_by_boxes", broken)
        with pytest.raises(ValueError, match="not aligned"):
            run(["split", "--cloud", str(cloud_path),
                 "--boxes", str(boxes_path),
                 "--out-dir", str(tmp_path / "frags")])


class TestDataErrors:
    def test_malformed_box_json(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(bad), "--out", str(tmp_path / "o.ply")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_box_schema_violation(self, tmp_path):
        _, cloud_path, *_ = write_scene(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"filename": "x", "objects": [
            {"name": "a", "centroid": {"x": 0, "y": 0, "z": 0}}]}))
        assert run(["split", "--cloud", str(cloud_path),
                    "--boxes", str(bad),
                    "--out-dir", str(tmp_path / "frags")]) == 2

    def test_truncated_cloud_file(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        clipped = tmp_path / "clipped.ply"
        clipped.write_bytes(cloud_path.read_bytes()[:-40])
        assert run(["info", str(clipped)]) == 2


class TestEditCommands:
    def test_recolor_spherical(self, tmp_path, capsys):
        cloud, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        code = run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--radius", "60"])
        assert code == 0
        edited = read_cloud(out)
        assert edited.count == cloud.count
        # the white outliers must have been pulled inside the sphere
        assert edited.colors.max() < 255
        assert "recolor_spherical" in capsys.readouterr().out

    def test_delete_spherical(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        assert run(["delete", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--radius", "60"]) == 0
        assert read_cloud(out).count == 50

    def test_recolor_remap(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        assert run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--mode", "remap",
                    "--target", "0", "0", "0", "50", "50", "50"]) == 0
        assert read_cloud(out).colors.max() <= 50

    def test_segment_substitutes_palette_color(self, tmp_path):
        _, cloud_path, boxes_path, palette, _ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        assert run(["segment", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--palette", str(palette),
                    "--out", str(out)]) == 0
        seg = read_cloud(out)
        assert seg.count == 60
        assert np.all(seg.colors == np.array([10, 200, 30]))

    def test_infinite_radius_recolors_nothing(self, tmp_path):
        cloud, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "o.ply"
        assert run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--radius", "inf"]) == 0
        assert np.array_equal(read_cloud(out).colors, cloud.colors)

    def test_edit_dry_run(self, tmp_path, capsys):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        assert run(["delete", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--radius", "60", "--dry-run"]) == 0
        assert not out.exists()
        assert "dry run" in capsys.readouterr().out

    def test_edit_report_shape(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        report = tmp_path / "r.json"
        assert run(["delete", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--radius", "60", "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["command"] == "delete"
        assert payload["flags"]["radius"] == 60.0
        step = payload["report"]["steps"][0]
        assert step["op"] == "delete_spherical_outliers"
        assert step["points_deleted"] == 10
        assert payload["report"]["output_count"] == 50


class TestSplitCommand:
    def test_split_writes_fragments(self, tmp_path, capsys):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        frag_dir = tmp_path / "frags"
        assert run(["split", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path),
                    "--out-dir", str(frag_dir), "--format", "xyzrgb"]) == 0
        assert (frag_dir / "zone.xyzrgb").exists()
        assert (frag_dir / "remainder.xyzrgb").exists()
        manifest = json.loads((frag_dir / "manifest.json").read_text())
        assert manifest["fragments"][0]["count"] == 60
        assert "zone: 60 points" in capsys.readouterr().out

    def test_split_no_remainder(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        frag_dir = tmp_path / "frags"
        assert run(["split", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out-dir", str(frag_dir),
                    "--no-remainder"]) == 0
        assert not (frag_dir / "remainder.ply").exists()

    def test_split_dry_run(self, tmp_path):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        frag_dir = tmp_path / "frags"
        assert run(["split", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out-dir", str(frag_dir),
                    "--dry-run"]) == 0
        assert not frag_dir.exists()


    def test_failed_split_moves_nothing_into_out_dir(self, tmp_path,
                                                     capsys):
        """A NaN row falls outside every box, and the LAS remainder cannot
        store it: the fragment already written is not moved into place,
        and what --out-dir held stays as it was."""
        cloud, _, boxes_path, *_ = write_scene(tmp_path)
        positions = cloud.positions.copy()
        positions[-1] = [np.nan, 0, 0]
        nan_path = tmp_path / "nan.ply"
        write_cloud(PointCloud(positions, cloud.colors), nan_path)
        frags = tmp_path / "frags"
        frags.mkdir()
        (frags / "zone.las").write_bytes(b"old fragment")
        (frags / "manifest.json").write_text("old manifest")
        argv = ["split", "--boxes", str(boxes_path), "--out-dir", str(frags),
                "--format", "las", "--cloud"]
        assert run(argv + [str(nan_path)]) == 2
        assert "NaN" in capsys.readouterr().err
        assert sorted(p.name for p in frags.iterdir()) == ["manifest.json",
                                                           "zone.las"]
        assert (frags / "zone.las").read_bytes() == b"old fragment"
        assert (frags / "manifest.json").read_text() == "old manifest"

        positions[-1] = [1000, 0, 0]  # outside the box: the remainder
        write_cloud(PointCloud(positions, cloud.colors), nan_path)
        assert run(argv + [str(nan_path)]) == 0
        assert sorted(p.name for p in frags.iterdir()) == [
            "manifest.json", "remainder.las", "zone.las"]
        assert read_cloud(frags / "zone.las").count == 59
        assert json.loads((frags / "manifest.json").read_text())[
            "remainder"] == {"count": 1, "path": "remainder.las"}


class TestThreads:
    @pytest.mark.parametrize("command", ["recolor", "delete"])
    def test_thread_count_changes_no_byte(self, tmp_path, command):
        """--threads 0, 1 and 2 write the same cloud and report."""
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path, n_outliers=200)
        results = {}
        for threads in ("0", "1", "2"):
            out = tmp_path / f"{threads}.ply"
            report = tmp_path / f"{threads}.json"
            assert run([command, "--cloud", str(cloud_path),
                        "--boxes", str(boxes_path), "--out", str(out),
                        "--radius", "20", "--report", str(report),
                        "--threads", threads]) == 0
            results[threads] = (out.read_bytes(),
                                json.loads(report.read_text())["report"])
        assert results["0"] == results["1"] == results["2"]

    def test_non_integer_thread_count_is_a_usage_error(self, tmp_path,
                                                       capsys):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.ply"
        assert run(["recolor", "--cloud", str(cloud_path),
                    "--boxes", str(boxes_path), "--out", str(out),
                    "--threads", "x"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestInfo:
    def test_fields(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        assert run(["info", str(cloud_path)]) == 0
        out = capsys.readouterr().out
        assert "kind:      ply" in out
        assert "points:    60" in out
        assert "color:     yes" in out

    @pytest.mark.parametrize("scale, shown", [(None, "5e-05"),
                                              ("0.01", "0.005")])
    def test_precision_is_half_the_file_scale(self, tmp_path, capsys, scale,
                                             shown):
        _, cloud_path, *_ = write_scene(tmp_path)
        las = tmp_path / "cloud.las"
        flags = [] if scale is None else ["--las-scale", scale]
        assert run(["convert", str(cloud_path), str(las), *flags]) == 0
        capsys.readouterr()
        report = tmp_path / "info.json"
        assert run(["info", str(las), "--report", str(report)]) == 0
        assert f"precision: {shown} m" in capsys.readouterr().out
        assert json.loads(report.read_text())["report"]["precision_m"] == \
            float(shown)

    def test_parses_the_header_once(self, tmp_path, monkeypatch):
        _, cloud_path, *_ = write_scene(tmp_path)
        calls = []
        parse_header = ply._parse_header

        def counted(path):
            calls.append(path)
            return parse_header(path)

        monkeypatch.setattr(ply, "_parse_header", counted)
        assert run(["info", str(cloud_path)]) == 0
        assert len(calls) == 1

    def test_truncated_binary_ply_names_its_byte(self, tmp_path, capsys):
        _, cloud_path, *_ = write_scene(tmp_path)
        clipped = tmp_path / "clipped.ply"
        clipped.write_bytes(cloud_path.read_bytes()[:-40])
        assert run(["info", str(clipped)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .*clipped\.ply: byte \d+: unexpected "
                            r"end of data: \d+ of 60 vertices\n", err)


class TestDeterminism:
    @pytest.mark.parametrize("argv_tail", [
        ["--radius", "60"],
        ["--mode", "remap", "--target", "20", "20", "20", "90", "90", "90"],
    ])
    def test_identical_reruns_are_byte_identical(self, tmp_path, argv_tail):
        _, cloud_path, boxes_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.las"
        report = tmp_path / "r.json"
        argv = ["recolor", "--cloud", str(cloud_path),
                "--boxes", str(boxes_path), "--out", str(out),
                "--report", str(report)] + argv_tail
        assert run(argv) == 0
        first = (out.read_bytes(), report.read_bytes())
        assert run(argv) == 0
        assert (out.read_bytes(), report.read_bytes()) == first

    def test_convert_rerun_byte_identical(self, tmp_path):
        _, cloud_path, *_ = write_scene(tmp_path)
        out = tmp_path / "out.las"
        argv = ["convert", str(cloud_path), str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

"""The benchmark's seeded workloads: inputs, commands and output checks.

Each workload builds its inputs from ``--seed`` with numpy and pcedit's
public writers; the program sees only the files.  Every command of a scan
workload reads the original input and each convert reads the previous
command's output, so the numpy oracles in ``oracle.py`` can judge every
output against the generated arrays.  See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from pcedit import BoxFile, OrientedBox, PointCloud, write_cloud


@dataclass(frozen=True)
class Command:
    """One pcedit command; each reads all of its input cloud's points."""

    argv: tuple[str, ...]      # arguments after ``pcedit``
    outputs: tuple[str, ...]   # files and directories it writes


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _report(workdir: Path, name: str) -> dict:
    return json.loads((workdir / name).read_text(encoding="utf-8"))["report"]


def _check_steps(report: dict, expected: list[tuple[int, int, int]],
                 output_count: int) -> None:
    got = [(s["points_examined"], s["points_recolored"], s["points_deleted"])
           for s in report["steps"]]
    _require(got == expected, f"step counts {got} != oracle {expected}")
    _require(report["output_count"] == output_count,
             f"output_count {report['output_count']} != oracle "
             f"{output_count}")


def _check_cloud(path: Path, positions: np.ndarray,
                 colors: np.ndarray) -> None:
    decoded = oracle.read_any(path)
    _require(decoded.positions.shape == positions.shape,
             f"{path.name}: {len(decoded.positions)} points, oracle "
             f"{len(positions)}")
    _require(np.array_equal(decoded.positions, positions),
             f"{path.name}: positions differ from the oracle")
    _require(np.array_equal(decoded.colors, colors),
             f"{path.name}: colors differ from the oracle")


def _place(local: np.ndarray, centroid, rotations) -> np.ndarray:
    """Box-local points to world coordinates (rotation about the centroid)."""
    rot = oracle.rotation(*rotations)
    return local @ rot.T + np.asarray(centroid)


def _noisy(rng, base, sigma: float, count: int) -> np.ndarray:
    values = np.asarray(base, dtype=np.float64) + rng.normal(0, sigma,
                                                             (count, 3))
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def _box(label, centroid, dims, rotations) -> OrientedBox:
    return OrientedBox(label=label, centroid=tuple(centroid),
                       dimensions=tuple(dims), rotations=tuple(rotations))


class Workload:
    name: str
    key: int                 # separates the random streams of workloads
    sizes: dict[str, int]    # points per size profile
    inputs: tuple[str, ...]  # files the set-up writes

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, self.key])

    def generate(self, seed: int, n: int) -> dict:
        raise NotImplementedError

    def write_inputs(self, data: dict, workdir: Path) -> None:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def expect(self, data: dict, workdir: Path):
        """Oracle results for every command (not part of set-up time)."""
        raise NotImplementedError

    def check(self, index: int, workdir: Path, expected) -> None:
        """Raise CheckFailed unless command ``index``'s outputs are right."""
        raise NotImplementedError


# --- scan_manybox ------------------------------------------------------------

_STREET_LABELS = ("car", "tree", "pole", "sign", "bike", "person", "bin",
                  "bench", "hydrant", "lamp", "cone", "barrier")
_DISABLED_LABEL = "cone"


class ScanManyBox(Workload):
    name = "scan_manybox"
    key = 1
    sizes = {"full": 300_000, "smoke": 10_000}
    inputs = ("scan.ply", "boxes.json", "palette.txt")
    n_boxes = 48
    boxed_share = 0.02

    def generate(self, seed: int, n: int) -> dict:
        rng = self.rng(seed)
        # 0.9 * 23 is not whole, so even the smoke size tells a rounded-up
        # nearest rank from a rounded-down one
        per_box = max(23, round(self.boxed_share * n / self.n_boxes))
        class_colors = rng.integers(0, 256, (len(_STREET_LABELS), 3))
        boxes, parts, colors = [], [], []
        for i in range(self.n_boxes):
            label_at = i % len(_STREET_LABELS)
            dims = rng.uniform(2.0, 5.0, 3)
            # 24 boxes per kerb, 7.9 m apart: wide enough that no two overlap
            centroid = (6.0 + 7.9 * (i // 2) + rng.uniform(-0.3, 0.3),
                        (1 if i % 2 else -1) * rng.uniform(4.0, 7.0),
                        dims[2] / 2.0 + 0.4)
            rotations = (rng.uniform(0, 3), rng.uniform(0, 3),
                         rng.uniform(0, 360))
            boxes.append(_box(_STREET_LABELS[label_at], centroid, dims,
                              rotations))
            local = rng.uniform(-0.45, 0.45, (per_box, 3)) * dims
            parts.append(_place(local, centroid, rotations))
            tint = _noisy(rng, class_colors[label_at], 12.0, per_box)
            stray = rng.random(per_box) < 0.08
            tint[stray] = rng.integers(0, 256, (int(stray.sum()), 3))
            colors.append(tint)
        rest = n - self.n_boxes * per_box
        ground = round(rest * 0.75)
        facade = rest - ground
        parts.append(np.column_stack([rng.uniform(0, 200, ground),
                                      rng.uniform(-12, 12, ground),
                                      rng.normal(0, 0.03, ground)]))
        colors.append(_noisy(rng, rng.uniform(80, 150, (ground, 1)), 6.0,
                             ground))
        parts.append(np.column_stack([
            rng.uniform(0, 200, facade),
            np.where(rng.random(facade) < 0.5, -12.0, 12.0)
            + rng.normal(0, 0.05, facade),
            rng.uniform(0, 15, facade)]))
        colors.append(_noisy(rng, (150, 80, 60), 15.0, facade))
        order = rng.permutation(n)
        palette = [(label, tuple(int(v) for v in class_colors[i]),
                    label != _DISABLED_LABEL)
                   for i, label in enumerate(_STREET_LABELS)]
        return {"positions": np.concatenate(parts)[order],
                "colors": np.concatenate(colors)[order],
                "boxes": boxes, "palette": palette}

    def write_inputs(self, data: dict, workdir: Path) -> None:
        write_cloud(PointCloud(data["positions"], data["colors"]),
                    workdir / "scan.ply")
        (workdir / "boxes.json").write_text(
            BoxFile("scan.ply", data["boxes"]).to_json(), encoding="utf-8")
        lines = ["# label R G B enabled"]
        lines += [f"{label} {r} {g} {b} {int(on)}"
                  for label, (r, g, b), on in data["palette"]]
        (workdir / "palette.txt").write_text("\n".join(lines) + "\n",
                                             encoding="utf-8")

    def commands(self) -> list[Command]:
        edit = ("--cloud", "scan.ply", "--boxes", "boxes.json")
        return [
            Command(("delete", *edit, "--out", "deleted.ply",
                     "--percentile", "90", "--report", "delete.json"),
                    ("deleted.ply", "delete.json")),
            Command(("segment", *edit, "--palette", "palette.txt",
                     "--out", "segment.ply", "--report", "segment.json"),
                    ("segment.ply", "segment.json")),
            Command(("split", *edit, "--out-dir", "fragments",
                     "--format", "ply", "--report", "split.json"),
                    ("fragments", "split.json")),
        ]

    def expect(self, data: dict, workdir: Path):
        positions, colors = data["positions"], data["colors"]
        n = len(positions)
        boxes = oracle.load_boxes(workdir / "boxes.json")
        index = oracle.BoxRows(positions)
        rows = [index.rows(box) for box in boxes]

        alive = np.ones(n, dtype=bool)
        steps = []
        for r in rows:
            current = r[alive[r]]
            _, dist = oracle.color_distances(colors[current])
            gone = current[dist > oracle.nearest_rank(dist, 90)]
            alive[gone] = False
            steps.append((current.size, 0, gone.size))

        palette = {label: (color, on) for label, color, on in data["palette"]}
        painted = np.zeros(n, dtype=bool)
        substituted = colors.copy()
        first_box = np.zeros(n, dtype=bool)
        fragments: dict[str, list[np.ndarray]] = {}
        for box, r in zip(boxes, rows):
            color, on = palette[box.label]
            if on:
                fresh = r[~painted[r]]
                substituted[fresh] = color
                painted[fresh] = True
            fresh = r[~first_box[r]]
            first_box[fresh] = True
            fragments.setdefault(box.label, []).append(fresh)
        return {
            "positions": positions, "colors": colors,
            "delete": (steps, alive),
            "segment": (painted, substituted),
            "split": ({label: np.sort(np.concatenate(parts))
                       for label, parts in fragments.items()},
                      np.flatnonzero(~first_box)),
        }

    def check(self, index: int, workdir: Path, expected) -> None:
        positions, colors = expected["positions"], expected["colors"]
        n = len(positions)
        if index == 0:
            steps, alive = expected["delete"]
            _check_steps(_report(workdir, "delete.json"), steps,
                         int(alive.sum()))
            _check_cloud(workdir / "deleted.ply", positions[alive],
                         colors[alive])
        elif index == 1:
            painted, substituted = expected["segment"]
            kept = int(painted.sum())
            _check_steps(_report(workdir, "segment.json"),
                         [(n, kept, n - kept)], kept)
            _check_cloud(workdir / "segment.ply", positions[painted],
                         substituted[painted])
        else:
            label_rows, remainder = expected["split"]
            report = _report(workdir, "split.json")
            counts = [(f["label"], f["count"]) for f in report["fragments"]]
            want = [(label, r.size) for label, r in label_rows.items()]
            _require(counts == want, f"fragments {counts} != oracle {want}")
            _require(report["remainder"] == remainder.size,
                     f"remainder {report['remainder']} != oracle "
                     f"{remainder.size}")
            _require(sum(c for _, c in counts) + report["remainder"] == n,
                     "fragments and remainder do not partition the input")
            manifest = json.loads((workdir / "fragments" / "manifest.json")
                                  .read_text(encoding="utf-8"))
            files = [(f["path"], label_rows[f["label"]])
                     for f in manifest["fragments"]]
            files.append((manifest["remainder"]["path"], remainder))
            for name, r in files:
                _check_cloud(workdir / "fragments" / name, positions[r],
                             colors[r])


# --- scan_bigbox -------------------------------------------------------------

_SKY = (135, 185, 235)
_REMAP_TARGET = (20, 60, 20, 110, 210, 110)
_DELETE_RADIUS = 40.0


class ScanBigBox(Workload):
    name = "scan_bigbox"
    key = 2
    sizes = {"full": 700_000, "smoke": 10_000}
    inputs = ("scan.ply", "boxes.json")
    n_boxes = 4
    blob_share = 0.15   # of all points, per blob
    sky_share = 0.10    # of a blob's points

    def generate(self, seed: int, n: int) -> dict:
        rng = self.rng(seed)
        per_blob = round(self.blob_share * n)
        boxes, parts, colors = [], [], []
        for k in range(self.n_boxes):
            dims = np.array([rng.uniform(10, 16), rng.uniform(10, 16),
                             rng.uniform(8, 14)])
            # 30 m apart: no two boxes share a point
            centroid = (15.0 + 30.0 * k + rng.uniform(-1, 1),
                        rng.uniform(-2, 2), dims[2] / 2.0 + 0.3)
            rotations = (rng.uniform(0, 4), rng.uniform(0, 4),
                         rng.uniform(0, 360))
            boxes.append(_box(f"tree_{k}", centroid, dims, rotations))
            direction = rng.normal(size=(per_blob, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radius = rng.random(per_blob) ** (1.0 / 3.0)
            local = direction * radius[:, None] * (0.42 * dims)
            parts.append(_place(local, centroid, rotations))
            tint = _noisy(rng, rng.uniform(30, 120, 3), 14.0, per_blob)
            sky = rng.random(per_blob) < self.sky_share
            tint[sky] = _noisy(rng, _SKY, 8.0, int(sky.sum()))
            colors.append(tint)
        ground = n - self.n_boxes * per_blob
        parts.append(np.column_stack([rng.uniform(0, 120, ground),
                                      rng.uniform(-30, 30, ground),
                                      rng.normal(0, 0.05, ground)]))
        colors.append(_noisy(rng, (110, 95, 70), 12.0, ground))
        order = rng.permutation(n)
        return {"positions": np.concatenate(parts)[order],
                "colors": np.concatenate(colors)[order], "boxes": boxes}

    def write_inputs(self, data: dict, workdir: Path) -> None:
        write_cloud(PointCloud(data["positions"], data["colors"]),
                    workdir / "scan.ply")
        (workdir / "boxes.json").write_text(
            BoxFile("scan.ply", data["boxes"]).to_json(), encoding="utf-8")

    def commands(self) -> list[Command]:
        edit = ("--cloud", "scan.ply", "--boxes", "boxes.json",
                "--threads", "2")
        return [
            Command(("recolor", *edit, "--out", "recolor.ply",
                     "--outlier-mode", "nearest_inlier_spatial",
                     "--report", "recolor.json"),
                    ("recolor.ply", "recolor.json")),
            Command(("recolor", *edit, "--out", "remap.ply",
                     "--mode", "remap", "--target",
                     *(str(v) for v in _REMAP_TARGET),
                     "--report", "remap.json"),
                    ("remap.ply", "remap.json")),
            Command(("delete", *edit, "--out", "deleted.ply",
                     "--radius", f"{_DELETE_RADIUS:g}",
                     "--report", "delete.json"),
                    ("deleted.ply", "delete.json")),
        ]

    def expect(self, data: dict, workdir: Path):
        positions, colors = data["positions"], data["colors"]
        boxes = oracle.load_boxes(workdir / "boxes.json")
        index = oracle.BoxRows(positions)
        rows = [index.rows(box) for box in boxes]
        # the per-box oracles below treat steps as independent
        if np.unique(np.concatenate(rows)).size != sum(r.size for r in rows):
            raise RuntimeError("scan_bigbox generated overlapping boxes")
        sample_rng = np.random.default_rng(0)
        spheres, remaps, alive = [], [], np.ones(len(positions), dtype=bool)
        for r in rows:
            center, dist = oracle.color_distances(colors[r])
            radius = oracle.nearest_rank(dist, 90)
            outliers = r[dist > radius]
            inliers = r[dist <= radius]
            probes = sample_rng.choice(outliers, min(32, outliers.size),
                                       replace=False)
            nearest = [inliers[np.argmin(((positions[inliers]
                                           - positions[q]) ** 2).sum(axis=1))]
                       for q in probes]
            spheres.append((r, center, radius, outliers, probes,
                            np.asarray(nearest, dtype=np.int64)))
            c = colors[r].astype(np.float64)
            lo, hi = c.min(axis=0), c.max(axis=0)
            t_lo, t_hi = np.split(np.asarray(_REMAP_TARGET, float), 2)
            # a flat source channel maps to the target's midpoint
            gain = (t_hi - t_lo) / np.maximum(hi - lo, 1) * (hi > lo)
            mapped = (t_lo + t_hi) / 2 + (c - (lo + hi) / 2) * gain
            remaps.append((r, lo, hi, mapped))
            alive[r[dist > _DELETE_RADIUS]] = False
        return {"positions": positions, "colors": colors,
                "spheres": spheres, "remaps": remaps, "alive": alive}

    def check(self, index: int, workdir: Path, expected) -> None:
        positions, colors = expected["positions"], expected["colors"]
        n = len(positions)
        if index == 0:
            spheres = expected["spheres"]
            _check_steps(_report(workdir, "recolor.json"),
                         [(s[0].size, s[3].size, 0) for s in spheres], n)
            out = oracle.read_any(workdir / "recolor.ply")
            _require(np.array_equal(out.positions, positions),
                     "recolor.ply: positions changed")
            touched = np.concatenate([s[3] for s in spheres])
            untouched = np.ones(n, dtype=bool)
            untouched[touched] = False
            _require(np.array_equal(out.colors[untouched],
                                    colors[untouched]),
                     "recolor.ply: a non-outlier color changed")
            for r, center, radius, outliers, probes, nearest in spheres:
                delta = out.colors[outliers] - center
                moved = np.sqrt((delta * delta).sum(axis=1))
                _require(bool(np.all(moved <= radius + 1e-9)),
                         "recolor.ply: an outlier kept a color outside "
                         "its sphere")
                _require(np.array_equal(out.colors[probes], colors[nearest]),
                         "recolor.ply: an outlier did not take its nearest "
                         "inlier's color")
        elif index == 1:
            remaps = expected["remaps"]
            report = _report(workdir, "remap.json")
            _check_steps(report, [(r.size, r.size, 0) for r, *_ in remaps], n)
            for step, (_, lo, hi, _) in zip(report["steps"], remaps):
                _require(step["source_min"] == lo.tolist()
                         and step["source_max"] == hi.tolist(),
                         "remap.json: fitted RGB box differs from the oracle")
            out = oracle.read_any(workdir / "remap.ply")
            _require(np.array_equal(out.positions, positions),
                     "remap.ply: positions changed")
            inside = np.zeros(n, dtype=bool)
            for r, _, _, mapped in remaps:
                inside[r] = True
                _require(bool(np.all(np.abs(out.colors[r] - mapped)
                                     <= 0.5 + 1e-9)),
                         "remap.ply: a remapped color is off by more than "
                         "rounding")
            _require(np.array_equal(out.colors[~inside], colors[~inside]),
                     "remap.ply: a color outside every box changed")
        else:
            alive = expected["alive"]
            steps = [(r.size, 0, int((~alive[r]).sum()))
                     for r, *_ in expected["spheres"]]
            _check_steps(_report(workdir, "delete.json"), steps,
                         int(alive.sum()))
            _check_cloud(workdir / "deleted.ply", positions[alive],
                         colors[alive])


# --- conversions -------------------------------------------------------------

class _ConvertChain(Workload):
    """Source file, then a chain of converts, each reading the previous."""

    source: str
    chain: tuple[tuple[str, tuple[str, ...]], ...]  # (output, extra flags)

    def write_inputs(self, data: dict, workdir: Path) -> None:
        write_cloud(PointCloud(data["positions"], data["colors"]),
                    workdir / self.source)

    def commands(self) -> list[Command]:
        cmds, previous = [], self.source
        for i, (target, flags) in enumerate(self.chain, start=1):
            report = f"convert{i}.json"
            cmds.append(Command(("convert", previous, target, *flags,
                                 "--report", report),
                                (target, report)))
            previous = target
        return cmds

    def expect(self, data: dict, workdir: Path):
        # a file's positions may be off by the sum of every carrier's
        # precision along its chain, plus float rounding
        tolerance = oracle.position_precision(self.source, False)
        tolerances = []
        for target, flags in self.chain:
            tolerance += oracle.position_precision(target, "ascii" in flags)
            tolerances.append(tolerance + 1e-7)
        return {"positions": data["positions"], "colors": data["colors"],
                "tolerances": tolerances}

    def check_convert(self, index: int, workdir: Path, expected) -> None:
        positions, colors = expected["positions"], expected["colors"]
        target = self.chain[index][0]
        report = _report(workdir, f"convert{index + 1}.json")
        _require(report["points_written"] == len(positions),
                 f"{target}: report says {report['points_written']} points")
        out = oracle.read_any(workdir / target)
        _require(out.positions.shape == positions.shape,
                 f"{target}: {len(out.positions)} points, source "
                 f"{len(positions)}")
        error = float(np.abs(out.positions - positions).max())
        _require(error <= expected["tolerances"][index],
                 f"{target}: position error {error:g} m exceeds "
                 f"{expected['tolerances'][index]:g} m")
        # LAS stores 8-bit colors widened by x257 (README: Formats)
        want = colors.astype(np.int64) * (257 if target.endswith(".las")
                                          else 1)
        _require(np.array_equal(out.colors, want),
                 f"{target}: colors differ from the source")

    def check(self, index: int, workdir: Path, expected) -> None:
        self.check_convert(index, workdir, expected)


class ConvertBinary(_ConvertChain):
    name = "convert_binary"
    key = 3
    sizes = {"full": 1_500_000, "smoke": 10_000}
    source = "scan.las"
    inputs = ("scan.las",)
    chain = (("a.ply", ()), ("b.pcd", ()), ("c.las", ()))

    def generate(self, seed: int, n: int) -> dict:
        rng = self.rng(seed)
        positions = np.column_stack([512_000 + rng.uniform(0, 300, n),
                                     5_403_000 + rng.uniform(0, 300, n),
                                     180 + rng.uniform(0, 40, n)])
        return {"positions": positions,
                "colors": rng.integers(0, 256, (n, 3), dtype=np.uint8)}

    def commands(self) -> list[Command]:
        return super().commands() + [
            Command(("info", self.source, "--report", "info.json"),
                    ("info.json",))]

    def check(self, index: int, workdir: Path, expected) -> None:
        if index < len(self.chain):
            return self.check_convert(index, workdir, expected)
        report = _report(workdir, "info.json")
        n = len(expected["positions"])
        _require(report["points"] == n and report["kind"] == "las"
                 and report["has_color"],
                 f"info.json {report} does not describe {n} colored LAS "
                 f"points")


class ConvertAscii(_ConvertChain):
    name = "convert_ascii"
    key = 4
    sizes = {"full": 120_000, "smoke": 10_000}
    source = "scan.xyzrgb"
    inputs = ("scan.xyzrgb",)
    chain = (("a.ply", ("--encoding", "ascii")), ("b.pts", ()),
             ("c.xyzrgb", ()))

    def generate(self, seed: int, n: int) -> dict:
        rng = self.rng(seed)
        positions = np.column_stack([rng.uniform(0, 100, n),
                                     rng.uniform(0, 100, n),
                                     rng.uniform(0, 20, n)])
        return {"positions": positions,
                "colors": rng.integers(0, 256, (n, 3), dtype=np.uint8)}


WORKLOADS = {w.name: w for w in (ScanManyBox(), ScanBigBox(),
                                 ConvertBinary(), ConvertAscii())}

"""Acceptance checks for the whole library, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Criterion 7 builds a 10-million-point file and takes a
minute or two; everything else finishes in seconds.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import pcedit
from pcedit import (OrientedBox, PointCloud, RemapParams, RgbAabb,
                    SphereParams, delete_spherical_outliers,
                    fit_color_sphere, read_cloud, recolor_rgb_box_remap,
                    recolor_spherical, recolor_substitute, split_by_boxes,
                    write_cloud)
from pcedit.boxfile import JoinedBox
from pcedit.cli import run as cli_run
from pcedit.formats import convert, open_writer, resolve_descriptor

from conftest import oracle_contains, random_box

SEED = 20240817


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {summary}")


def big_box(center=(0.0, 0.0, 0.0), size=1e6):
    return OrientedBox(label="all", centroid=center,
                       dimensions=(size, size, size))


def test_criterion_1_containment_oracle():
    with criterion(1, "containment matches trig oracle, 1e4 pts x 1e2 "
                      "boxes, 0 disagreements"):
        rng = np.random.default_rng(SEED)
        positions = rng.uniform(-12, 12, (10_000, 3))
        start = time.perf_counter()
        disagreements = 0
        for _ in range(100):
            box = random_box(rng, span=8.0)
            got = box.contains(positions)
            want = oracle_contains(positions, box)
            disagreements += int(np.count_nonzero(got != want))
        elapsed = time.perf_counter() - start
        assert disagreements == 0
        assert elapsed < 5.0, f"containment sweep took {elapsed:.1f}s"


def test_criterion_2_format_round_trips(tmp_path):
    kinds = ["ply", "las", "pts", "pcd", "xyzrgb"]
    exact = {"ply", "pcd"}  # 64-bit carriers: positions are bit-exact
    with criterion(2, "round trips among ply/las/pts/pcd/xyzrgb keep "
                      "counts, colors, and position precision"):
        rng = np.random.default_rng(SEED)
        colors = rng.integers(0, 256, (400, 3))
        colors[0] = (200, 10, 10)  # keep the xyzrgb integer convention
        cloud = PointCloud(rng.uniform(0, 50, (400, 3)), colors)

        sources = {}
        for kind in kinds:
            path = tmp_path / f"base.{kind}"
            write_cloud(cloud, path)
            sources[kind] = (path, read_cloud(path))

        for src in kinds:
            src_path, truth = sources[src]
            for dst in kinds:
                if dst == src:
                    continue
                dst_path = tmp_path / f"pair_{src}_{dst}.{dst}"
                write_cloud(truth, dst_path)
                back = read_cloud(dst_path)
                assert back.count == truth.count, (src, dst)
                assert np.array_equal(back.colors, truth.colors), (src, dst)
                tol = 0.0 if dst in exact else \
                    (1e-4 / 2 if dst == "las" else 5e-7)
                err = np.abs(back.positions - truth.positions).max()
                assert err <= tol + 1e-12, (src, dst, err)
                assert err <= 1e-4, (src, dst, err)

        # same-format idempotence: write(read(x)) is byte-identical
        for kind in kinds:
            src_path, truth = sources[kind]
            again = tmp_path / f"again.{kind}"
            write_cloud(truth, again)
            assert again.read_bytes() == src_path.read_bytes(), kind


def test_criterion_3_spherical_cleanup_desk_scale():
    with criterion(3, "5e5-point cleanup deletes 100% injected outliers "
                      "with 0 false positives; recolor bounded by "
                      "radius + 0.87"):
        rng = np.random.default_rng(SEED)
        n = 500_000
        n_white = n // 20        # 25_000 injected sky/white outliers
        n_cluster = n // 10      # 50_000 identical dark-green points
        n_bulk = n - n_white - n_cluster
        bulk = np.column_stack([rng.integers(20, 61, n_bulk),
                                rng.integers(120, 181, n_bulk),
                                rng.integers(30, 71, n_bulk)])
        cluster = np.tile([8, 52, 10], (n_cluster, 1))
        white = np.tile([250, 250, 250], (n_white, 1))
        colors = np.vstack([bulk, cluster, white])
        is_white = np.zeros(n, dtype=bool)
        is_white[n_bulk + n_cluster:] = True
        order = rng.permutation(n)
        cloud = PointCloud(rng.uniform(0, 50, (n, 3)), colors[order])
        is_white = is_white[order]

        # scene sanity: the white block must sit strictly beyond the
        # nearest-rank p90 radius, everything else at or inside it
        center = cloud.colors.mean(axis=0)
        dists = np.linalg.norm(cloud.colors - center, axis=1)
        cluster_dist = dists[~is_white].max()
        assert dists[is_white].min() > cluster_dist
        rank = int(np.ceil(0.90 * n))
        assert n_bulk < rank <= n_bulk + n_cluster
        assert np.sort(dists)[rank - 1] == cluster_dist

        params = SphereParams()  # percentile 90, project to surface
        box = big_box(center=(25.0, 25.0, 25.0))
        start = time.perf_counter()
        kept = delete_spherical_outliers(cloud, box, params)
        recolored = recolor_spherical(kept, box, params)
        elapsed = time.perf_counter() - start

        assert kept.count == n - n_white              # 100% removal
        assert not np.any(np.all(kept.colors == 250, axis=1))
        # 0 false positives: count matches and no white survived
        sphere = fit_color_sphere(kept.colors, params)
        final = np.linalg.norm(
            recolored.colors.astype(float) - np.asarray(sphere.center),
            axis=1)
        assert final.max() <= sphere.radius + 0.87
        assert elapsed < 10.0, f"cleanup took {elapsed:.1f}s"


def test_criterion_4_remap_oracle():
    with criterion(4, "remap matches scalar affine oracle within +-1 on "
                      "1e5 colors; no strict inversions on 1e4 pairs"):
        rng = np.random.default_rng(SEED)
        n = 100_000
        colors = rng.integers(0, 256, (n, 3))
        cloud = PointCloud(rng.uniform(-1, 1, (n, 3)), colors)
        lo, hi = (25, 0, 180), (205, 90, 250)
        params = RemapParams(target=RgbAabb(min=lo, max=hi))
        out = recolor_rgb_box_remap(cloud, big_box(), params)

        s_lo = colors.min(axis=0).astype(float)
        s_hi = colors.max(axis=0).astype(float)
        for k in range(3):
            s_c, s_e = (s_lo[k] + s_hi[k]) / 2, s_hi[k] - s_lo[k]
            t_c, t_e = (lo[k] + hi[k]) / 2, hi[k] - lo[k]
            if s_e == 0:
                expect = np.full(n, round(t_c))
            else:
                mapped = t_c + (colors[:, k] - s_c) * (t_e / s_e)
                expect = np.clip(np.rint(mapped), 0, 255)
            assert np.abs(out.colors[:, k].astype(float) -
                          expect).max() <= 1, f"channel {k}"

        pairs = rng.integers(0, n, (10_000, 2))
        before = colors[pairs]            # (10_000, 2, 3)
        after = out.colors[pairs].astype(int)
        increasing = before[:, 0, :] < before[:, 1, :]
        inverted = after[:, 0, :] > after[:, 1, :]
        assert not np.any(increasing & inverted)


def test_criterion_5_substitution_classifier():
    with criterion(5, "substitution with 3 overlapping boxes + 1 disabled "
                      "entry matches per-point classifier"):
        rng = np.random.default_rng(SEED)
        boxes = [
            OrientedBox(label="road", centroid=(0, 0, 0),
                        dimensions=(6, 6, 6), rotations=(0, 0, 30)),
            OrientedBox(label="tree", centroid=(2, 1, 0),
                        dimensions=(6, 6, 6), rotations=(10, 0, 0)),
            OrientedBox(label="sign", centroid=(-2, -1, 1),
                        dimensions=(6, 6, 6), rotations=(0, 45, 0)),
        ]
        palette = {"road": ((128, 128, 128), True),
                   "tree": ((0, 200, 0), True),
                   "sign": ((255, 255, 0), False)}
        entries = [JoinedBox(box=b, color=palette[b.label][0],
                             enabled=palette[b.label][1]) for b in boxes]
        cloud = PointCloud(rng.uniform(-8, 8, (20_000, 3)),
                           rng.integers(0, 256, (20_000, 3)))
        out = recolor_substitute(cloud, entries)

        inside = [oracle_contains(cloud.positions, b) for b in boxes]
        expected = []
        for i in range(cloud.count):
            for entry, mask in zip(entries, inside):
                if entry.enabled and mask[i]:
                    expected.append((i, entry.color))
                    break
        assert out.count == len(expected)
        kept_rows = np.array([i for i, _ in expected])
        want_colors = np.array([c for _, c in expected])
        assert np.array_equal(out.positions, cloud.positions[kept_rows])
        assert np.array_equal(out.colors, want_colors)
        produced = {tuple(c) for c in out.colors.tolist()}
        allowed = {color for label, (color, on) in palette.items() if on}
        assert produced <= allowed


def test_criterion_6_split_partition():
    with criterion(6, "fragments + remainder reconstruct the input index "
                      "set on 100 random configurations"):
        rng = np.random.default_rng(SEED)
        cloud = PointCloud(rng.uniform(-10, 10, (3000, 3)),
                           rng.integers(0, 256, (3000, 3)))
        for _ in range(100):
            boxes = [random_box(rng) for _ in
                     range(int(rng.integers(1, 6)))]
            result = split_by_boxes(cloud, boxes)
            pieces = [f.indices for f in result.fragments]
            pieces.append(result.remainder_indices)
            seen = np.concatenate(pieces)
            assert seen.size == cloud.count
            assert np.array_equal(np.sort(seen), np.arange(cloud.count))


def _stream_synthetic_ply(path, n_points, chunk=1_000_000):
    descriptor, _ = resolve_descriptor("ply", has_color=True,
                                       has_normals=False)
    writer = open_writer(path, descriptor, count=n_points)
    rng = np.random.default_rng(SEED)
    written = 0
    while written < n_points:
        k = min(chunk, n_points - written)
        writer.write(PointCloud(rng.uniform(0, 100, (k, 3)),
                                rng.integers(0, 256, (k, 3),
                                             dtype=np.uint8)))
        written += k
    writer.close()


# The child's own peak in GB: VmHWM where /proc has it.  ru_maxrss is the
# fallback only, since a vfork'd child inherits its parent's high-water mark.
_PEAK_GB = """
import re, resource

def peak_gb():
    try:
        with open("/proc/self/status") as fh:
            status = fh.read()
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1048576
    return int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)) / 1048576
"""

_CHILD_CONVERT = _PEAK_GB + """
import json, sys
from pcedit.formats import convert
report = convert(sys.argv[1], sys.argv[2])
print(json.dumps({"rss_gb": peak_gb(), "points": report.points_written}))
"""

_CHILD_RECOLOR = _PEAK_GB + """
import json, sys
from pcedit import OrientedBox, SphereParams, read_cloud, recolor_spherical
cloud = read_cloud(sys.argv[1])
box = OrientedBox(label="all", centroid=(50, 50, 50),
                  dimensions=(1e4, 1e4, 1e4))
out = recolor_spherical(cloud, box, SphereParams())
print(json.dumps({"rss_gb": peak_gb(), "points": out.count}))
"""


def _fsync(path):
    """Put ``path`` on disk, so that writing it back does not fall inside
    the next timed conversion."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _run_child(code, *args):
    # the child imports the pcedit this process imported, installed or not
    root = str(Path(pcedit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, check=True,
                          env=env)
    return json.loads(proc.stdout)


def test_criterion_7_scale_proxy(tmp_path):
    with criterion(7, "10M-point ply->las streams < 120 s in < 1.5 GB; "
                      "full recolor < 10 GB; 1M vs 10M time ratio "
                      "10 +- 3"):
        small_ply = tmp_path / "small.ply"
        big_ply = tmp_path / "big.ply"
        _stream_synthetic_ply(small_ply, 1_000_000)
        _stream_synthetic_ply(big_ply, 10_000_000)
        _fsync(small_ply)
        _fsync(big_ply)

        def timed_convert(src, dst):
            dst.unlink(missing_ok=True)  # not inside the next timing
            t0 = time.perf_counter()
            convert(src, dst)
            seconds = time.perf_counter() - t0
            _fsync(dst)
            return seconds

        child = _run_child(_CHILD_CONVERT, big_ply, tmp_path / "b1.las")
        _fsync(tmp_path / "b1.las")
        assert child["points"] == 10_000_000
        assert child["rss_gb"] < 1.5, f"convert peak {child['rss_gb']:.2f} GB"
        # the sizes alternate, each round starting with the other one, so
        # drift in the host's speed moves both sides of a round's ratio
        t_small, t_big = [], []
        for round_no in range(5):
            sizes = [(small_ply, t_small), (big_ply, t_big)]
            if round_no % 2:
                sizes.reverse()
            for src, times in sizes:
                times.append(timed_convert(src, src.with_suffix(".las")))
        ratios = np.divide(t_big, t_small)
        ratio = float(np.median(ratios))
        print(f"\ncriterion 7: 1M {np.median(t_small):.2f} s, "
              f"10M {np.median(t_big):.2f} s, ratio {ratio:.1f} (rounds "
              f"{', '.join(f'{r:.1f}' for r in ratios)})")
        assert np.median(t_big) < 120.0, \
            f"10M convert took {np.median(t_big):.0f}s"
        assert 7.0 <= ratio <= 13.0, f"scaling ratio {ratio:.1f}"

        recolor = _run_child(_CHILD_RECOLOR, big_ply)
        assert recolor["points"] == 10_000_000
        assert recolor["rss_gb"] < 10.0, \
            f"recolor peak {recolor['rss_gb']:.2f} GB"


def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "identical CLI jobs produce byte-identical outputs "
                      "and reports"):
        rng = np.random.default_rng(SEED)
        cloud = PointCloud(rng.uniform(-5, 5, (5000, 3)),
                           rng.integers(0, 256, (5000, 3)))
        cloud_path = tmp_path / "scene.ply"
        write_cloud(cloud, cloud_path)
        boxes_path = tmp_path / "boxes.json"
        boxes_path.write_text(json.dumps({
            "filename": "scene.ply",
            "objects": [{"name": "zone",
                         "centroid": {"x": 0, "y": 0, "z": 0},
                         "dimensions": {"length": 8, "width": 8,
                                        "height": 8},
                         "rotations": {"x": 0, "y": 0, "z": 25}}],
        }))
        out = tmp_path / "out.las"
        report = tmp_path / "report.json"
        argv = ["recolor", "--cloud", str(cloud_path),
                "--boxes", str(boxes_path), "--out", str(out),
                "--percentile", "85", "--report", str(report)]
        assert cli_run(argv) == 0
        first = (out.read_bytes(), report.read_bytes())
        assert cli_run(argv) == 0
        assert (out.read_bytes(), report.read_bytes()) == first

"""Import cost: scipy is never loaded, not even by a nearest-inlier
search, and neither is hashlib (with its OpenSSL binding and hmac),
concurrent.futures, or fractions and decimal, not even by a percentile
fit; the LAZ codec glue (pcedit.formats.laz) waits for a LAZ point.
Every command also runs with scipy made unimportable.

Importing scipy.spatial costs about half a second per process, and every
CLI command is a fresh process; scipy is only a test oracle.  Each check
runs in a fresh interpreter, since the test process itself has scipy
loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import pcedit
from pcedit import PointCloud, read_cloud, write_cloud
from pcedit.recolor import NEAREST_INLIER, PROJECT_TO_SURFACE

from conftest import oracle_nearest_index

_CHILD = """
import json, sys
import pcedit, pcedit.cli

def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))

hashing = sorted({"hashlib", "_hashlib", "hmac", "secrets"} & set(sys.modules))
exact = sorted({"fractions", "decimal"} & set(sys.modules))
seen = {"import": loaded("scipy"), "hashing": hashing, "exact": exact,
        "concurrent": loaded("concurrent"),
        "laz": loaded("pcedit.formats.laz")}
codes = {}
for mode, out in zip(sys.argv[3::2], sys.argv[4::2]):
    codes[mode] = pcedit.cli.run(
        ["recolor", "--cloud", sys.argv[1], "--boxes", sys.argv[2],
         "--out", out, "--radius", "30", "--outlier-mode", mode,
         "--threads", "2"])
    seen[mode] = loaded("scipy")
    seen[mode + " concurrent"] = loaded("concurrent")
print(json.dumps({"seen": seen, "codes": codes}))
"""


_BLOCKED_CHILD = """
import json, sys
sys.modules["scipy"] = None   # every import of scipy now fails
import pcedit.cli

cloud, boxes, palette, out = sys.argv[1:]
edit = ["--cloud", cloud, "--boxes", boxes]
commands = {
    "recolor": ["recolor", *edit, "--out", out + "/recolor.ply",
                "--radius", "30", "--outlier-mode", "nearest_inlier_spatial"],
    "delete": ["delete", *edit, "--out", out + "/delete.ply",
               "--radius", "30"],
    "segment": ["segment", *edit, "--palette", palette,
                "--out", out + "/segment.ply"],
    "split": ["split", *edit, "--out-dir", out + "/split"],
    "convert": ["convert", cloud, out + "/convert.pcd"],
    "info": ["info", cloud],
}
print(json.dumps({name: pcedit.cli.run(argv)
                  for name, argv in commands.items()}))
"""


def run_child(*args, code=_CHILD) -> dict:
    # A replaced environment: the child sees only the pcedit copy under test.
    import_root = Path(pcedit.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={"PATH": "", "PYTHONPATH": str(import_root)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # after the CLI's own lines


def write_scene(tmp_path):
    """Grid positions (many exact distance ties), a tight color cluster
    plus bright outliers, and one box around everything."""
    rng = np.random.default_rng(11)
    positions = rng.integers(0, 8, (400, 3)).astype(float)
    colors = np.vstack([rng.integers(95, 106, (370, 3)),
                        rng.integers(200, 256, (30, 3))])
    order = rng.permutation(400)
    cloud = PointCloud(positions[order], colors[order])
    cloud_path = tmp_path / "cloud.ply"
    write_cloud(cloud, cloud_path)
    boxes_path = tmp_path / "boxes.json"
    boxes_path.write_text(json.dumps({
        "filename": "cloud.ply",
        "objects": [{"name": "all",
                     "centroid": {"x": 3.5, "y": 3.5, "z": 3.5},
                     "dimensions": {"length": 20, "width": 20, "height": 20},
                     "rotations": {"x": 0, "y": 0, "z": 0}}]}))
    return cloud, cloud_path, boxes_path


def test_import_and_surface_recolor_leave_scipy_unloaded(tmp_path):
    _, cloud_path, boxes_path = write_scene(tmp_path)
    result = run_child(cloud_path, boxes_path,
                       PROJECT_TO_SURFACE, tmp_path / "surface.ply")
    assert result["seen"]["import"] == []
    assert result["seen"]["hashing"] == []
    assert result["seen"]["exact"] == []
    assert result["seen"]["laz"] == []
    assert result["codes"] == {PROJECT_TO_SURFACE: 0}
    assert result["seen"][PROJECT_TO_SURFACE] == []
    # no thread pool, even with --threads 2
    assert result["seen"]["concurrent"] == []
    assert result["seen"][PROJECT_TO_SURFACE + " concurrent"] == []


def test_nearest_inlier_search_still_gives_the_nearest_inlier(tmp_path):
    cloud, cloud_path, boxes_path = write_scene(tmp_path)
    out = tmp_path / "nearest.ply"
    result = run_child(cloud_path, boxes_path, NEAREST_INLIER, out)
    assert result["codes"] == {NEAREST_INLIER: 0}
    assert result["seen"][NEAREST_INLIER] == []
    # the radius-30 sphere around the mean color keeps the cluster only
    center = cloud.colors.astype(float).mean(axis=0)
    dists = np.linalg.norm(cloud.colors - center, axis=1)
    inlier_rows = np.flatnonzero(dists <= 30)
    outlier_rows = np.flatnonzero(dists > 30)
    assert inlier_rows.size and outlier_rows.size
    colors = read_cloud(out).colors
    assert np.array_equal(colors[inlier_rows], cloud.colors[inlier_rows])
    for row in outlier_rows:
        expect = oracle_nearest_index(cloud.positions, inlier_rows,
                                      cloud.positions[row])
        assert colors[row].tolist() == cloud.colors[expect].tolist(), row


def test_a_percentile_fit_loads_no_exact_arithmetic():
    """``nearest_rank`` reads the percentile's decimal digits itself: the
    ``fractions`` import would load ``decimal`` too."""
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from pcedit.recolor import SphereParams, fit_color_sphere\n"
            "fit_color_sphere(np.arange(300).reshape(100, 3),\n"
            "                 SphereParams(percentile=7.0))\n"
            "print(json.dumps(sorted({'fractions', 'decimal'}\n"
            "                        & set(sys.modules))))\n")
    assert run_child(code=code) == []


def test_every_command_runs_without_scipy(tmp_path):
    _, cloud_path, boxes_path = write_scene(tmp_path)
    palette = tmp_path / "palette.txt"
    palette.write_text("all 10 200 30 1\n")
    codes = run_child(cloud_path, boxes_path, palette, tmp_path,
                      code=_BLOCKED_CHILD)
    assert codes == {name: 0 for name in ("recolor", "delete", "segment",
                                          "split", "convert", "info")}


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps names in every layer where they are
    looked up; deleting or renaming one fails here, in Tier-1."""
    import_root = Path(pcedit.__file__).resolve().parents[1]
    perfbench = import_root.parent / "perfbench"
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer, install\n"
            "install(Tracer('x'))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench)],
                          env={"PATH": "", "PYTHONPATH": str(import_root)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

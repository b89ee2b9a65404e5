"""Color-space editing inside oriented boxes.

Every operation scopes itself to the points of one spatial box (or, for
substitution, a joined box list), computes its statistics over the
pre-edit colors exactly once, and touches nothing outside the box.  The
color model: statistics and mapping run in float64, results round
half-to-even and clamp back to uint8 storage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .boxfile import JoinedBox
from .cloud import (ColorSphere, GridIndex, OrientedBox, PointCloud,
                    RgbAabb, mean_color, quantize_colors, rgb_color_aabb)
from .errors import (EmptySelection, NoEnabledBoxes, PipelineStepError)

PROJECT_TO_SURFACE = "project_to_surface"
NEAREST_INLIER = "nearest_inlier_spatial"

#: max displacement quantization can add on top of the sphere radius (√3/2)
ROUNDING_SLACK = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class SphereParams:
    """How to fit and apply a color sphere.

    radius_mode "percentile" derives the radius from the distance
    distribution itself (nearest-rank, default q=90); "absolute" uses
    ``radius`` directly.  Outliers are either projected radially onto the
    sphere surface or take the color of the spatially nearest inlier.
    """

    radius_mode: str = "percentile"
    percentile: float = 90.0
    radius: float = 0.0
    outlier_mode: str = PROJECT_TO_SURFACE

    def __post_init__(self):
        if self.radius_mode not in ("percentile", "absolute"):
            raise ValueError(f"unknown radius_mode {self.radius_mode!r}")
        if self.radius_mode == "percentile" and \
                not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {self.percentile}")
        if self.radius_mode == "absolute" and not self.radius >= 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.outlier_mode not in (PROJECT_TO_SURFACE, NEAREST_INLIER):
            raise ValueError(f"unknown outlier_mode {self.outlier_mode!r}")


@dataclass(frozen=True)
class RemapParams:
    """Target RGB box for the affine remap; must sit inside [0,255]^3."""

    target: RgbAabb

    def __post_init__(self):
        lo, hi = self.target.min, self.target.max
        if min(lo) < 0 or max(hi) > 255:
            raise ValueError(f"target box [{lo}, {hi}] exceeds [0, 255]^3")


def nearest_rank(percentile: float, n: int) -> int:
    """1-based nearest rank ``ceil(percentile/100 * n)``, in exact arithmetic.

    The percentile is taken as the decimal it prints as, so 7 (or 7.0) of
    100 is rank 7, where float math gives ``7/100*100 = 7.000000000000001``.
    """
    mantissa, _, exponent = repr(float(percentile)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = int(whole + fraction)  # percentile == digits * 10**power
    power = int(exponent or 0) - len(fraction)
    numerator = digits * n * 10 ** max(power, 0)
    return -(-numerator // (100 * 10 ** max(-power, 0)))


def fit_color_sphere(colors, params: SphereParams) -> ColorSphere:
    """Mean-color center; radius from the nearest-rank percentile of
    distances (or taken verbatim in absolute mode)."""
    center = mean_color(colors)
    if params.radius_mode == "absolute":
        return ColorSphere(center=tuple(center), radius=params.radius)
    dists = np.sort(ColorSphere(center=tuple(center), radius=0.0)
                    .distances(colors))
    rank = nearest_rank(params.percentile, dists.size)
    return ColorSphere(center=tuple(center), radius=float(dists[rank - 1]))


class _Edit:
    """One edit command's state over its source cloud.

    The cloud is indexed once; every step works on ascending source rows.
    Deleted points are cleared from ``alive`` and recolors write into one
    color buffer, copied from the source on the first write.  ``result``
    materializes the survivors once, with the ``has_color`` flag the
    step-by-step chain of clouds would carry.
    """

    def __init__(self, cloud: PointCloud):
        self.source = cloud
        self.index = GridIndex(cloud.positions)
        self.alive = np.ones(cloud.count, dtype=bool)
        self.colors = cloud.colors
        self.has_color = cloud.has_color

    def rows(self, box: OrientedBox) -> np.ndarray:
        """Ascending source rows of the surviving points inside ``box``;
        raises EmptySelection when there are none."""
        rows = self.index.rows(box)
        rows = rows[self.alive[rows]]
        if not rows.size:
            raise EmptySelection(f"box {box.label!r} contains no points")
        return rows

    def recolor(self, rows: np.ndarray, colors) -> None:
        if self.colors is self.source.colors:
            self.colors = self.colors.copy()
        self.colors[rows] = colors
        self.has_color = True

    def result(self) -> PointCloud:
        all_alive = bool(self.alive.all())
        if (all_alive and self.colors is self.source.colors
                and self.has_color == self.source.has_color):
            return self.source
        edited = PointCloud(self.source.positions, self.colors,
                            self.source.normals, has_color=self.has_color)
        return edited if all_alive else edited.take(self.alive)


def cKDTree(data):
    """The nearest-inlier search index over ``data``: a ``GridIndex`` with
    about one inlier to four cells, so that the first ring of cells around
    a query settles nearly every query; its ``query(x)`` gives each query's
    nearest row.

    Only the name is scipy's.  The benchmark's tracer
    (``perfbench/tracer.py``) wraps ``recolor.cKDTree`` to time the search,
    so the name stays until the program records its own spans."""
    return GridIndex(data, points_per_cell=0.25)


def _nearest_inlier_rows(positions: np.ndarray, inlier_rows: np.ndarray,
                         outlier_rows: np.ndarray) -> np.ndarray:
    """Index (into ``inlier_rows``) of each outlier's nearest inlier;
    distance ties resolve to the lowest index."""
    return cKDTree(positions[inlier_rows]).query(positions[outlier_rows])


@dataclass
class StepReport:
    """Per-step accounting plus the statistics fitted for the step."""

    op: str
    box_label: str | None
    points_examined: int
    points_recolored: int
    points_deleted: int
    sphere_center: tuple[float, float, float] | None = None
    sphere_radius: float | None = None
    source_min: tuple[float, float, float] | None = None
    source_max: tuple[float, float, float] | None = None


@dataclass
class EditReport:
    input_count: int
    output_count: int
    steps: list[StepReport] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "input_count": self.input_count,
            "output_count": self.output_count,
            "steps": [s.__dict__ for s in self.steps],
        }, indent=2, sort_keys=True)

    def to_table(self) -> str:
        header = f"{'step':>4}  {'op':<26} {'box':<16} " \
                 f"{'examined':>9} {'recolored':>9} {'deleted':>9}"
        lines = [header, "-" * len(header)]
        for i, s in enumerate(self.steps):
            lines.append(
                f"{i:>4}  {s.op:<26} {(s.box_label or '-'):<16} "
                f"{s.points_examined:>9} {s.points_recolored:>9} "
                f"{s.points_deleted:>9}")
        lines.append(f"points: {self.input_count} in, "
                     f"{self.output_count} out")
        return "\n".join(lines)


@dataclass(frozen=True)
class EditStep:
    """Recolor or delete the color outliers inside one box.

    ``params`` picks the color model: SphereParams fits a color sphere to
    the in-box colors, RemapParams maps them onto a target RGB box.
    ``delete`` removes the outliers (colors outside the sphere or the
    target box) instead of recoloring.
    """

    box: OrientedBox
    params: SphereParams | RemapParams = field(default_factory=SphereParams)
    delete: bool = False

    @property
    def op(self) -> str:
        if isinstance(self.params, SphereParams):
            return "delete_spherical_outliers" if self.delete \
                else "recolor_spherical"
        return "delete_rgb_box_outliers" if self.delete \
            else "recolor_rgb_box_remap"

    def apply(self, edit: _Edit) -> StepReport:
        rows = edit.rows(self.box)
        colors_in = np.take(edit.colors, rows, axis=0).astype(np.float64)
        report = StepReport(op=self.op, box_label=self.box.label,
                            points_examined=rows.size, points_recolored=0,
                            points_deleted=0)
        if isinstance(self.params, SphereParams):
            self._sphere(edit, rows, colors_in, report)
        else:
            self._remap(edit, rows, colors_in, report)
        return report

    def _sphere(self, edit: _Edit, rows, colors_in, report) -> None:
        sphere = fit_color_sphere(colors_in, self.params)
        report.sphere_center = sphere.center
        report.sphere_radius = sphere.radius
        dists = sphere.distances(colors_in)
        outlier = dists > sphere.radius
        out_rows = rows[outlier]
        if self.delete:
            edit.alive[out_rows] = False
            report.points_deleted = out_rows.size
            return
        if not out_rows.size:
            return
        if self.params.outlier_mode == PROJECT_TO_SURFACE:
            center = np.asarray(sphere.center)
            if sphere.radius == 0.0:
                projected = np.broadcast_to(center, (out_rows.size, 3))
            else:
                delta = colors_in[outlier] - center
                scale = sphere.radius / dists[outlier]
                projected = center + delta * scale[:, None]
            edit.recolor(out_rows, quantize_colors(projected))
        else:
            in_rows = rows[~outlier]
            if in_rows.size == 0:
                edit.recolor(out_rows, quantize_colors(
                    np.broadcast_to(sphere.center, (out_rows.size, 3))))
            else:
                nearest = _nearest_inlier_rows(edit.source.positions,
                                               in_rows, out_rows)
                edit.recolor(out_rows, edit.colors[in_rows[nearest]])
        report.points_recolored = out_rows.size

    def _remap(self, edit: _Edit, rows, colors_in, report) -> None:
        source = rgb_color_aabb(colors_in)
        report.source_min, report.source_max = source.min, source.max
        target = self.params.target
        if self.delete:
            outside = ~target.contains(colors_in)
            edit.alive[rows[outside]] = False
            report.points_deleted = int(outside.sum())
            return
        s_cent = np.asarray(source.centroid)
        s_ext = np.asarray(source.extent)
        t_ext = np.asarray(target.extent)
        gain = np.divide(t_ext, s_ext, out=np.zeros(3), where=s_ext > 0)
        mapped = np.asarray(target.centroid) + (colors_in - s_cent) * gain
        edit.recolor(rows, quantize_colors(mapped))
        report.points_recolored = rows.size


@dataclass(frozen=True)
class SubstituteStep:
    """Semantic coloring over a joined box list (see recolor_substitute)."""

    joined: tuple[JoinedBox, ...]
    op = "recolor_substitute"

    def __post_init__(self):
        object.__setattr__(self, "joined", tuple(self.joined))

    def apply(self, edit: _Edit) -> StepReport:
        active = [j for j in self.joined
                  if j.enabled and j.color is not None]
        if not active:
            raise NoEnabledBoxes(
                "substitution needs at least one enabled box with a "
                "palette color")
        examined = int(np.count_nonzero(edit.alive))
        assigned = ~edit.alive
        for j in active:
            rows = edit.index.rows(j.box)
            rows = rows[~assigned[rows]]
            edit.recolor(rows, np.asarray(j.color, dtype=np.uint8))
            assigned[rows] = True
        edit.alive &= assigned
        survivors = int(np.count_nonzero(edit.alive))
        return StepReport(op=self.op, box_label=None,
                          points_examined=examined,
                          points_recolored=survivors,
                          points_deleted=examined - survivors)


def recolor_spherical(cloud: PointCloud, box: OrientedBox,
                      params: SphereParams | None = None) -> PointCloud:
    """Recolor in-box color outliers; inliers and out-of-box points as-is."""
    return _apply_one(cloud, EditStep(box, params or SphereParams()))


def delete_spherical_outliers(cloud: PointCloud, box: OrientedBox,
                              params: SphereParams | None = None
                              ) -> PointCloud:
    """Drop in-box points whose color lies strictly outside the sphere."""
    return _apply_one(cloud, EditStep(box, params or SphereParams(),
                                      delete=True))


def recolor_rgb_box_remap(cloud: PointCloud, box: OrientedBox,
                          params: RemapParams) -> PointCloud:
    """Affinely map in-box colors from their fitted RGB box to the target."""
    return _apply_one(cloud, EditStep(box, params))


def delete_rgb_box_outliers(cloud: PointCloud, box: OrientedBox,
                            params: RemapParams) -> PointCloud:
    """Drop in-box points whose color falls outside the target RGB box."""
    return _apply_one(cloud, EditStep(box, params, delete=True))


def recolor_substitute(cloud: PointCloud,
                       joined: Sequence[JoinedBox]) -> PointCloud:
    """Flat semantic coloring: each point keeps the color of the first
    enabled colored box containing it; everything else is removed."""
    return _apply_one(cloud, SubstituteStep(joined))


def _apply_one(cloud: PointCloud, step) -> PointCloud:
    edit = _Edit(cloud)
    step.apply(edit)
    return edit.result()


def apply_pipeline(cloud: PointCloud,
                   steps: Sequence[EditStep | SubstituteStep]
                   ) -> tuple[PointCloud, EditReport]:
    """Run edit steps in order, each consuming the previous output.

    The first failing step aborts the pipeline with a PipelineStepError
    carrying the step index and the underlying error.
    """
    report = EditReport(input_count=cloud.count, output_count=cloud.count)
    edit = _Edit(cloud)
    for i, step in enumerate(steps):
        try:
            report.steps.append(step.apply(edit))
        except PipelineStepError:
            raise
        except Exception as exc:
            raise PipelineStepError(i, step.op, exc) from exc
    result = edit.result()
    report.output_count = result.count
    return result, report

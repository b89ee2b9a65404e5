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
from .cloud import (ColorSphere, Edit, GridIndex, OrientedBox, PointCloud,
                    RgbAabb, quantize_colors, rgb_color_aabb)
from .errors import (EmptySelection, NoEnabledBoxes, PipelineStepError)

PROJECT_TO_SURFACE = "project_to_surface"
NEAREST_INLIER = "nearest_inlier_spatial"

#: max displacement quantization can add on top of the sphere radius (√3/2)
ROUNDING_SLACK = math.sqrt(3.0) / 2.0

#: in-box points whose colors are worked at once: a step's float64
#: scratch is about 100 bytes a point of one batch, under 1 MB
BATCH = 1 << 13


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
        # a NaN bound fails every comparison, so it is rejected too
        if not all(0 <= v <= 255 for v in lo + hi):
            raise ValueError(f"target box [{lo}, {hi}] exceeds [0, 255]^3")


def nearest_rank(percentile: float, n: int) -> int:
    """1-based nearest rank ``ceil(percentile/100 * n)``, in exact arithmetic.

    The percentile is taken as the decimal it prints as, so 7 (or 7.0) of
    100 is rank 7, where float math gives ``7/100*100 = 7.000000000000001``.
    That decimal is ``digits / 10**places``, read from its ``repr``.
    """
    mantissa, _, exponent = repr(float(percentile)).partition("e")
    whole, _, decimals = mantissa.partition(".")
    digits = int(whole + decimals)
    places = len(decimals) - int(exponent or 0)
    numerator = digits * n * 10 ** max(-places, 0)
    return -(-numerator // (100 * 10 ** max(places, 0)))


def fit_color_sphere(colors, params: SphereParams) -> ColorSphere:
    """Mean-color center; radius from the nearest-rank percentile of
    distances (or taken verbatim in absolute mode).

    Both go ``BATCH`` colors at a time.  The center is the column sums over
    the count; integer colors sum exactly (in int64), so it is
    ``mean_color``'s bit for bit.  The distances fill one float64 array."""
    colors = np.asarray(colors).reshape(-1, 3)
    if not colors.size:
        raise EmptySelection("fit_color_sphere of an empty color set")
    total = np.zeros(3, dtype=np.result_type(colors.dtype, np.int64))
    for a in range(0, len(colors), BATCH):
        total += colors[a:a + BATCH].sum(axis=0, dtype=total.dtype)
    center = tuple(total / len(colors))
    if params.radius_mode == "absolute":
        return ColorSphere(center=center, radius=params.radius)
    sphere = ColorSphere(center=center, radius=0.0)
    dists = np.empty(len(colors))
    for a in range(0, len(colors), BATCH):
        dists[a:a + BATCH] = sphere.distances(colors[a:a + BATCH])
    # the element a full sort would put at the rank
    rank = nearest_rank(params.percentile, dists.size) - 1
    dists.partition(rank)
    return ColorSphere(center=center, radius=float(dists[rank]))


def cKDTree(data, rows=None):
    """The nearest-inlier search index over ``data`` (its ``rows`` only,
    when given): a ``GridIndex`` with about one inlier to four cells, so
    that the first ring of cells around a query settles nearly every
    query; its ``query(x)`` gives each query's nearest row of ``data``.

    Only the name is scipy's.  The benchmark's tracer
    (``perfbench/tracer.py``) wraps ``recolor.cKDTree`` to time the search,
    so the name stays until the program records its own spans."""
    return GridIndex(data, points_per_cell=0.25, rows=rows)


def _nearest_inlier_rows(positions: np.ndarray, inlier_rows: np.ndarray,
                         outlier_rows: np.ndarray) -> np.ndarray:
    """The row of ``positions`` of each outlier's nearest inlier; distance
    ties resolve to the lowest row.  The inliers are indexed where they lie
    in ``positions``, not copied out of it."""
    return cKDTree(positions, inlier_rows).query(positions[outlier_rows])


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
    def boxes(self) -> tuple[OrientedBox, ...]:
        return (self.box,)

    @property
    def op(self) -> str:
        if isinstance(self.params, SphereParams):
            return "delete_spherical_outliers" if self.delete \
                else "recolor_spherical"
        return "delete_rgb_box_outliers" if self.delete \
            else "recolor_rgb_box_remap"

    def apply(self, edit: Edit) -> StepReport:
        report = StepReport(op=self.op, box_label=self.box.label,
                            points_examined=0, points_recolored=0,
                            points_deleted=0)
        model = self._sphere if isinstance(self.params, SphereParams) \
            else self._remap
        model(edit, report)
        return report

    def _in_box(self, edit: Edit, report: StepReport):
        """The ascending subset rows of the survivors in the box and their
        uint8 colors, the model's alone: it works on them a ``BATCH`` at a
        time and may free them.  Raises EmptySelection when there are
        none."""
        rows = edit.rows_in(self.box)
        if not rows.size:
            raise EmptySelection(f"box {self.box.label!r} contains no points")
        report.points_examined = rows.size
        return rows, np.take(edit.subset.colors, rows, axis=0)

    def _sphere(self, edit: Edit, report: StepReport) -> None:
        rows, colors_in = self._in_box(edit, report)
        sphere = fit_color_sphere(colors_in, self.params)
        report.sphere_center = sphere.center
        report.sphere_radius = sphere.radius
        center = np.asarray(sphere.center)
        project = not self.delete \
            and self.params.outlier_mode == PROJECT_TO_SURFACE
        outlier = np.empty(rows.size, dtype=bool)
        for a in range(0, rows.size, BATCH):
            colors = colors_in[a:a + BATCH]
            dists = sphere.distances(colors)
            outlier[a:a + BATCH] = out = dists > sphere.radius
            if not (project and out.any()):
                continue
            # c + (p - c) * r / d, in place; r = 0 gives c exactly
            projected = colors[out] - center
            projected *= (sphere.radius / dists[out])[:, None]
            projected += center
            edit.recolor(rows[a:a + BATCH][out], quantize_colors(projected))
        out_rows = rows[outlier]
        if self.delete:
            edit.alive[out_rows] = False
            report.points_deleted = out_rows.size
            return
        report.points_recolored = out_rows.size
        if project or not out_rows.size:
            return
        in_rows = rows[~outlier]
        # not held through the search; the last batch's view of colors_in
        # would keep it alive
        del rows, colors_in, colors, outlier
        if in_rows.size == 0:
            edit.recolor(out_rows, quantize_colors(center))
        else:
            nearest = _nearest_inlier_rows(edit.subset.positions,
                                           in_rows, out_rows)
            edit.recolor(out_rows, edit.subset.colors.view("V3")[nearest]
                         .view(np.uint8))

    def _remap(self, edit: Edit, report: StepReport) -> None:
        rows, colors_in = self._in_box(edit, report)
        source = rgb_color_aabb(colors_in)
        report.source_min, report.source_max = source.min, source.max
        target = self.params.target
        s_cent = np.asarray(source.centroid)
        s_ext = np.asarray(source.extent)
        t_ext = np.asarray(target.extent)
        gain = np.divide(t_ext, s_ext, out=np.zeros(3), where=s_ext > 0)
        for a in range(0, rows.size, BATCH):
            part, colors = rows[a:a + BATCH], colors_in[a:a + BATCH]
            if self.delete:
                outside = ~target.contains(colors)
                edit.alive[part[outside]] = False
                report.points_deleted += int(np.count_nonzero(outside))
                continue
            mapped = colors - s_cent   # t + (c - s) * g, in place
            mapped *= gain
            mapped += target.centroid
            edit.recolor(part, quantize_colors(mapped))
            report.points_recolored += part.size


@dataclass(frozen=True)
class SubstituteStep:
    """Semantic coloring over a joined box list (see recolor_substitute)."""

    joined: tuple[JoinedBox, ...]
    op = "recolor_substitute"

    def __post_init__(self):
        object.__setattr__(self, "joined", tuple(self.joined))

    @property
    def active(self) -> list[JoinedBox]:
        """The enabled boxes with a palette color, in file order."""
        return [j for j in self.joined if j.enabled and j.color is not None]

    @property
    def boxes(self) -> tuple[OrientedBox, ...]:
        return tuple(j.box for j in self.active)

    def apply(self, edit: Edit) -> StepReport:
        active = self.active
        if not active:
            raise NoEnabledBoxes(
                "substitution needs at least one enabled box with a "
                "palette color")
        examined = edit.count   # the survivors so far
        free = edit.alive.copy()   # first box wins: a point taken is not free
        for i, rows in edit.claim(self.boxes, free):
            edit.recolor(rows, np.asarray(active[i].color, dtype=np.uint8))
            del rows   # not alive while the next box is searched
        edit.alive ^= free   # the untaken survivors are removed
        edit.outside = False   # and so is every row outside the subset
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


def _apply_one(cloud: PointCloud, step) -> Edit:
    edit = Edit(cloud, step.boxes)
    step.apply(edit)
    return edit.finish()


def apply_pipeline(cloud, steps: Sequence[EditStep | SubstituteStep]
                   ) -> tuple[Edit, EditReport]:
    """Run edit steps in order, each consuming the previous output.

    ``cloud`` is a ``PointCloud`` or a reader (``formats.open_reader``).
    It is read once, into the one ``cloud.Edit`` that every step works on
    and that is the result: it reads the input again, a batch at a time,
    when it is written.  The first failing step aborts the pipeline with a
    PipelineStepError carrying the step index and the underlying error.
    """
    edit = Edit(cloud, [box for step in steps for box in step.boxes])
    report = EditReport(input_count=edit.total, output_count=edit.total)
    for i, step in enumerate(steps):
        try:
            report.steps.append(step.apply(edit))
        except Exception as exc:
            raise PipelineStepError(i, step.op, exc) from exc
    report.output_count = edit.count
    return edit.finish(), report

"""Simplex placement and the perspective projection used by polytope figures."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

Vec3 = tuple[float, float, float]

# Regular tetrahedron, unit edge, centered at the origin; one corner per pure
# joint strategy in cell order (AA, AB, BA, BB).
_S = 1.0 / (2.0 * math.sqrt(2.0))
TETRAHEDRON: tuple[Vec3, Vec3, Vec3, Vec3] = (
    (_S, _S, _S),
    (_S, -_S, -_S),
    (-_S, _S, -_S),
    (-_S, -_S, _S),
)

TETRA_EDGES = tuple(itertools.combinations(range(4), 2))
TETRA_FACES = tuple(itertools.combinations(range(4), 3))


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _normalize(a: Vec3) -> Vec3:
    n = math.sqrt(_dot(a, a))
    return (a[0] / n, a[1] / n, a[2] / n)


# The camera's distance from the origin and the focal length of the projection.
CAMERA_DISTANCE = 4.0
FOCAL_LENGTH = 2.4


@dataclass(frozen=True)
class Projection:
    """Perspective camera looking at the origin from (azimuth, elevation)."""

    azimuth_deg: float
    elevation_deg: float

    @property
    def camera(self) -> Vec3:
        az = math.radians(self.azimuth_deg)
        el = math.radians(self.elevation_deg)
        return (
            CAMERA_DISTANCE * math.cos(el) * math.cos(az),
            CAMERA_DISTANCE * math.cos(el) * math.sin(az),
            CAMERA_DISTANCE * math.sin(el),
        )

    def _basis(self) -> tuple[Vec3, Vec3, Vec3]:
        cam = self.camera
        forward = _normalize((-cam[0], -cam[1], -cam[2]))
        world_up = (0.0, 0.0, 1.0)
        side = _cross(forward, world_up)
        if _dot(side, side) < 1e-12:  # looking straight up/down
            world_up = (0.0, 1.0, 0.0)
            side = _cross(forward, world_up)
        right = _normalize(side)
        up = _cross(right, forward)
        return right, up, forward

    def project(self, point: Vec3) -> tuple[float, float]:
        cam = self.camera
        right, up, forward = self._basis()
        v = _sub(point, cam)
        depth = _dot(v, forward)
        return (FOCAL_LENGTH * _dot(v, right) / depth, FOCAL_LENGTH * _dot(v, up) / depth)


def hidden_tetra_edges(projection: Projection) -> frozenset[tuple[int, int]]:
    """Edges whose adjacent faces both face away from the camera."""
    cam = projection.camera
    visible_faces = []
    for face in TETRA_FACES:
        a, b, c = (TETRAHEDRON[i] for i in face)
        normal = _cross(_sub(b, a), _sub(c, a))
        centroid = tuple((a[i] + b[i] + c[i]) / 3.0 for i in range(3))
        if _dot(normal, centroid) < 0:  # orient outward from the body center
            normal = (-normal[0], -normal[1], -normal[2])
        visible_faces.append(_dot(normal, _sub(cam, centroid)) > 0)
    hidden = []
    for edge in TETRA_EDGES:
        adjacent = [k for k, face in enumerate(TETRA_FACES) if set(edge) <= set(face)]
        if not any(visible_faces[k] for k in adjacent):
            hidden.append(edge)
    return frozenset(hidden)


def simplex_position(prob: tuple[float, float, float, float]) -> Vec3:
    """Barycentric position of a joint distribution inside the tetrahedron."""
    x = y = z = 0.0
    for weight, corner in zip(prob, TETRAHEDRON):
        x += weight * corner[0]
        y += weight * corner[1]
        z += weight * corner[2]
    return (x, y, z)

"""Simplex placement and the fixed perspective camera of polytope figures.

The camera, its basis and the tetrahedron edges it cannot see are computed
once, at import.
"""

from __future__ import annotations

import itertools
import math

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


# The one perspective camera of every polytope figure, looking at the origin.
CAMERA_AZIMUTH_DEG = -65.0
CAMERA_ELEVATION_DEG = 18.0
CAMERA_DISTANCE = 4.0
FOCAL_LENGTH = 2.4

_AZ = math.radians(CAMERA_AZIMUTH_DEG)
_EL = math.radians(CAMERA_ELEVATION_DEG)
CAMERA: Vec3 = (
    CAMERA_DISTANCE * math.cos(_EL) * math.cos(_AZ),
    CAMERA_DISTANCE * math.cos(_EL) * math.sin(_AZ),
    CAMERA_DISTANCE * math.sin(_EL),
)
# The camera basis; at this elevation the forward vector is never parallel to
# the world's up axis (0, 0, 1), so their cross product is a valid right vector.
_FORWARD = _normalize((-CAMERA[0], -CAMERA[1], -CAMERA[2]))
_RIGHT = _normalize(_cross(_FORWARD, (0.0, 0.0, 1.0)))
_UP = _cross(_RIGHT, _FORWARD)


def project(point: Vec3) -> tuple[float, float]:
    """The point's position on the image plane of the fixed camera."""
    v = _sub(point, CAMERA)
    depth = _dot(v, _FORWARD)
    return (FOCAL_LENGTH * _dot(v, _RIGHT) / depth, FOCAL_LENGTH * _dot(v, _UP) / depth)


def _hidden_tetra_edges() -> frozenset[tuple[int, int]]:
    """Edges whose adjacent faces both face away from the camera."""
    visible_faces = []
    for face in TETRA_FACES:
        a, b, c = (TETRAHEDRON[i] for i in face)
        normal = _cross(_sub(b, a), _sub(c, a))
        centroid = tuple((a[i] + b[i] + c[i]) / 3.0 for i in range(3))
        if _dot(normal, centroid) < 0:  # orient outward from the body center
            normal = (-normal[0], -normal[1], -normal[2])
        visible_faces.append(_dot(normal, _sub(CAMERA, centroid)) > 0)
    hidden = []
    for edge in TETRA_EDGES:
        adjacent = [k for k, face in enumerate(TETRA_FACES) if set(edge) <= set(face)]
        if not any(visible_faces[k] for k in adjacent):
            hidden.append(edge)
    return frozenset(hidden)


HIDDEN_TETRA_EDGES = _hidden_tetra_edges()


def simplex_position(prob: tuple[float, float, float, float]) -> Vec3:
    """Barycentric position of a joint distribution inside the tetrahedron."""
    x = y = z = 0.0
    for weight, corner in zip(prob, TETRAHEDRON):
        x += weight * corner[0]
        y += weight * corner[1]
        z += weight * corner[2]
    return (x, y, z)

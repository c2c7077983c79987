"""Deterministic TikZ and SVG figure generation for every visualization family."""

from .canvas import Scene, to_svg, to_tikz
from .figures import (
    EmbeddingFigureData,
    FigureKind,
    FigureSpec,
    UnsupportedFigureError,
    angle_pairs,
    build_scene,
    render_embedding,
    render_figure,
)
from .files import load_matrix, load_points
from .style import StyleOptions

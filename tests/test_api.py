"""The public library surface: the names the packages export, and the README's
Python examples, which must run against them."""

import ast
import re
import types
from pathlib import Path

import twobytwo
import twobytwo.render

README = Path(__file__).resolve().parent.parent / "README.md"


def public_names(module) -> list[str]:
    """The names a module exports: no leading `_`, and no submodule."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_twobytwo_public_names():
    assert public_names(twobytwo) == [
        "Game", "JointDistribution", "MarginalPair", "Player", "as_rational",
        "best_response_set", "br_class", "br_graph", "cce_polytope", "census",
        "class_of_embedding", "conditional", "embed", "format_rational",
        "game_from_flat", "game_to_flat", "is_nash", "joint", "joint_in_cce",
        "marginals_from_joint", "nash_set", "ordinal_graph", "permute",
        "product_joint", "transform_affine",
    ]


def test_render_public_names():
    assert public_names(twobytwo.render) == [
        "EmbeddingFigureData", "FigureKind", "FigureSpec", "Scene", "StyleOptions",
        "UnsupportedFigureError", "angle_pairs", "build_scene", "load_matrix",
        "load_points", "render_embedding", "render_figure", "to_svg", "to_tikz",
    ]


def test_readme_python_blocks_run():
    """Every ```python block of the README runs, in order and in one namespace,
    and each statement whose line is marked `# True` evaluates true."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if lines[stmt.lineno - 1].rstrip().endswith("# True"):
                assert isinstance(stmt, ast.Expr), source
                assert eval(source, namespace), source
                checked += 1
            else:
                exec(source, namespace)
    assert checked >= 1

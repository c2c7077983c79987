"""The public record types as a caller sees them: construction by keyword and
by position, defaults, equality and hashing, the exact `repr`, immutability,
copies, and every message their checks raise."""

import copy
import pickle
from fractions import Fraction

import pytest

from twobytwo.core import ConditionalTable, Game, JointDistribution, MarginalPair, advantages
from twobytwo.embedding import EmbeddingPoint
from twobytwo.equilibria import Box, CcePolytope, NashSet
from twobytwo.graphs import BRClass, BRGraph, OrdinalGraph
from twobytwo.render import EmbeddingFigureData, FigureKind, FigureSpec, Scene, StyleOptions
from twobytwo.render.canvas import Line

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)
VERTEX = JointDistribution((HALF, HALF, ZERO, ZERO))
VERTEX_TEXT = "JointDistribution(prob=(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)))"
BOX = Box(ZERO, HALF, ONE, ONE)
BOX_TEXT = "Box(p_low=Fraction(0, 1), p_high=Fraction(1, 2), q_low=Fraction(1, 1), q_high=Fraction(1, 1))"

#: Each immutable public type: its fields in order, as a caller would pass
#: them, and the exact `repr` of the value they build.
FROZEN = [
    (Game, {"row": (ONE, Fraction(2), HALF, ZERO), "col": (ZERO, ONE, ONE, ZERO)},
     "Game(row=(Fraction(1, 1), Fraction(2, 1), Fraction(1, 2), Fraction(0, 1)), "
     "col=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)))"),
    (JointDistribution, {"prob": (HALF, HALF, ZERO, ZERO)}, VERTEX_TEXT),
    (MarginalPair, {"row_prob_a": HALF, "col_prob_a": ONE},
     "MarginalPair(row_prob_a=Fraction(1, 2), col_prob_a=Fraction(1, 1))"),
    (ConditionalTable, {"rows": ((ONE, ZERO), None)},
     "ConditionalTable(rows=((Fraction(1, 1), Fraction(0, 1)), None))"),
    (Box, {"p_low": ZERO, "p_high": HALF, "q_low": ONE, "q_high": ONE}, BOX_TEXT),
    (NashSet, {"components": (BOX,)}, f"NashSet(components=({BOX_TEXT},))"),
    (CcePolytope, {"vertices": (VERTEX,), "edges": ((0, 0),), "dimension": 0},
     f"CcePolytope(vertices=({VERTEX_TEXT},), edges=((0, 0),), dimension=0)"),
    (EmbeddingPoint, {"row_direction": (2, -1), "col_direction": None},
     "EmbeddingPoint(row_direction=(2, -1), col_direction=None)"),
    (OrdinalGraph, {"levels": ((1, 2), (3,), (0,)), "edges": ((1, 3), (2, 3), (3, 0))},
     "OrdinalGraph(levels=((1, 2), (3,), (0,)), edges=((1, 3), (2, 3), (3, 0)))"),
    (BRClass, {"canonical": BRGraph(1, -1, 1, -1), "index": 6, "name": "coordination"},
     "BRClass(canonical=BRGraph(row_given_col_a=1, row_given_col_b=-1, col_given_row_a=1, "
     "col_given_row_b=-1), index=6, name='coordination')"),
    (FigureSpec, {"kind": FigureKind.JOINT, "payload": VERTEX, "style": StyleOptions(show_tick_labels=False)},
     f"FigureSpec(kind=<FigureKind.JOINT: 'joint'>, payload={VERTEX_TEXT}, style=StyleOptions("
     "show_axes_labels=True, show_tick_labels=False, show_best_response_names=True))"),
    (EmbeddingFigureData, {"points": ((30.0, 300.0),), "heatmap": ((1.0, 2.0),)},
     "EmbeddingFigureData(points=((30.0, 300.0),), heatmap=((1.0, 2.0),))"),
    (StyleOptions, {"show_axes_labels": False, "show_tick_labels": True, "show_best_response_names": False},
     "StyleOptions(show_axes_labels=False, show_tick_labels=True, show_best_response_names=False)"),
]

frozen_cases = pytest.mark.parametrize("cls,fields,text", FROZEN, ids=[case[0].__name__ for case in FROZEN])


@frozen_cases
def test_construction_by_keyword_and_by_position(cls, fields, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    for value in (by_keyword, by_position):
        assert type(value) is cls
        for name, field_value in fields.items():
            assert getattr(value, name) is field_value
    assert by_keyword == by_position
    assert cls.__match_args__ == tuple(fields)


@frozen_cases
def test_equal_values_compare_and_hash_alike(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@frozen_cases
def test_repr_text(cls, fields, text):
    assert repr(cls(**fields)) == str(cls(**fields)) == text


@frozen_cases
def test_assignment_and_deletion_raise(cls, fields, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == cls(**fields) and repr(value) == text


@frozen_cases
def test_copies_and_pickles_are_equal(cls, fields, text):
    value = cls(**fields)
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and other == value and repr(other) == text


def test_game_compares_only_with_games():
    row, col = (ONE, ZERO, ZERO, ONE), (ONE, ZERO, ZERO, ONE)
    game = Game(row=row, col=col)
    assert game != (row, col)
    assert advantages(copy.deepcopy(game)) == advantages(pickle.loads(pickle.dumps(game))) == advantages(game)


def test_types_without_defaults_need_every_field():
    for cls, _, _ in FROZEN:
        if cls not in (EmbeddingFigureData, StyleOptions):
            with pytest.raises(TypeError):
                cls()
    with pytest.raises(TypeError):
        FigureSpec(FigureKind.JOINT)


def test_defaults():
    assert StyleOptions() == StyleOptions(True, True, True)
    assert FigureSpec(FigureKind.JOINT, VERTEX).style == StyleOptions()
    data = EmbeddingFigureData()
    assert data.points == () and data.heatmap is None
    assert EmbeddingFigureData(((1.0, 2.0),)).heatmap is None
    assert Scene().prims == [] and Scene().prims is not Scene().prims


def test_scene_is_a_mutable_list_of_primitives():
    line = Line(0, 0, 1, 1, (0, 0, 0), 0.8)
    prims = [line]
    scene = Scene(prims=prims)
    assert scene.prims is prims and Scene(prims) == scene == Scene([Line(0, 0, 1, 1, (0, 0, 0), 0.8)])
    assert Scene() == Scene() != scene
    assert repr(scene) == "Scene(prims=[Line(x1=0, y1=0, x2=1, y2=1, color=(0, 0, 0), width=0.8, dashed=False, tag='')])"
    with pytest.raises(TypeError):
        hash(scene)
    scene.add(line, line)
    assert len(prims) == 3
    scene.prims = []
    assert scene == Scene()


#: The fields of each type that checks its values, for construction by keyword.
FIELDS = {
    JointDistribution: ("prob",),
    MarginalPair: ("row_prob_a", "col_prob_a"),
    EmbeddingFigureData: ("points", "heatmap"),
}


@pytest.mark.parametrize("cls,args,message", [
    (JointDistribution, ((0.5, 0.5, ZERO, ZERO),), "joint probability 0.5 is not an int or Fraction"),
    (JointDistribution, ((HALF, -HALF, ONE, ZERO),), "negative joint probability in 1/2 -1/2 1 0"),
    (JointDistribution, ((HALF, HALF, HALF, ZERO),), "joint probabilities must sum to 1, got 1/2 1/2 1/2 0"),
    (MarginalPair, (0.5, ONE), "marginal probability 0.5 is not an int or Fraction"),
    (MarginalPair, (HALF, Fraction(3, 2)), "marginal probability 3/2 outside [0, 1]"),
    (MarginalPair, (-HALF, ZERO), "marginal probability -1/2 outside [0, 1]"),
    (EmbeddingFigureData, ((), ()), "heatmap matrix must be rectangular and nonempty"),
    (EmbeddingFigureData, ((), ((),)), "heatmap matrix must be rectangular and nonempty"),
    (EmbeddingFigureData, ((), ((1.0,), (1.0, 2.0))), "heatmap matrix must be rectangular and nonempty"),
    (EmbeddingFigureData, ((), ((1.0, float("nan")),)), "non-finite heatmap value nan"),
    (EmbeddingFigureData, (((1.0,),),), "point (1.0,) is not a (row angle, column angle) pair"),
    (EmbeddingFigureData, (((1.0, float("inf")),),), "non-finite point coordinate inf"),
])
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError) as by_position:
        cls(*args)
    keywords = dict(zip(FIELDS[cls], args))
    with pytest.raises(ValueError) as by_keyword:
        cls(**keywords)
    assert str(by_position.value) == str(by_keyword.value) == message


def test_replace_runs_the_checks():
    """`_replace` on a named tuple, which stands in for `dataclasses.replace`,
    checks the new values as the constructor does."""
    assert VERTEX._replace(prob=(ONE, ZERO, ZERO, ZERO)) == JointDistribution((ONE, ZERO, ZERO, ZERO))
    with pytest.raises(ValueError, match="^negative joint probability in 1/2 -1/2 1 0$"):
        VERTEX._replace(prob=(HALF, -HALF, ONE, ZERO))
    with pytest.raises(ValueError, match=r"^marginal probability 2 outside \[0, 1\]$"):
        MarginalPair(HALF, ONE)._replace(col_prob_a=Fraction(2))
    with pytest.raises(ValueError, match="^non-finite point coordinate nan$"):
        EmbeddingFigureData()._replace(points=((float("nan"), 0.0),))

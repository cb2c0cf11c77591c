"""The node protocol of symfun: structural identity, children() and the
fold.

Every node compares and hashes by its class and fields, through the one
__eq__/__hash__ of ScalarExpr; cutoff specs compare by identity.
children() lists the ScalarExpr-valued fields in field order, and
subtrees() walks them in preorder.  fold calls one hook per node class,
named by the class, and folds each distinct subtree once; expr_diff
calls its hook set's hooks the same way, through its cache.  A hook set
holds no public callable that is not some node class's hook."""

from fractions import Fraction

import pytest

from jetideals import symfun, verifier
from jetideals.symfun import (Add, Const, Coord, Cutoff, CutoffSpec,
                              DEFAULT_CUTOFF, Div, Mul, Norm, Pow, ScalarExpr,
                              expr_derive, expr_diff, expr_parse, fold,
                              subtrees)

X, Y, Z = Coord(0), Coord(1), Coord(2)

# one builder per node class: each call builds a new, equal instance
BUILDERS = {
    Const: lambda: Const(Fraction(-3, 2)),
    Coord: lambda: Coord(1),
    Add: lambda: Add((X, Const(2), Y)),
    Mul: lambda: Mul((Const(3), X, Y)),
    Pow: lambda: Pow(Add((X, Y)), 3),
    Div: lambda: Div(X, Add((Y, Z))),
    Norm: lambda: Norm((2, 0)),
    Cutoff: lambda: Cutoff(DEFAULT_CUTOFF, Norm((0, 1)), Fraction(1, 2), 1),
}

TEXTS = ["x^2*y - y^3/3 + 7/2",
         "x*y/(x^2 + y^2)^2",
         "norm(x,y)^3 - abs2(x,y,z)",
         "(y^3/z)*theta(norm(x,y), 1/2) + x*theta(1/norm(x,y,z), 3)"]


def _fields(node):
    """The ScalarExpr-valued fields of node, tuples flattened, in the
    order of the class's __slots__."""
    out = []
    for name in type(node).__slots__:
        value = getattr(node, name)
        items = value if isinstance(value, tuple) else (value,)
        out.extend(v for v in items if isinstance(v, ScalarExpr))
    return tuple(out)


def test_every_node_class_has_a_builder():
    assert set(ScalarExpr.__subclasses__()) == set(BUILDERS)


@pytest.mark.parametrize("cls", ScalarExpr.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_children_are_the_node_valued_fields_in_order(cls):
    node = BUILDERS[cls]()
    assert type(node) is cls
    assert tuple(node.children()) == _fields(node)
    assert all(isinstance(c, ScalarExpr) for c in node.children())


@pytest.mark.parametrize("cls", ScalarExpr.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_identity_is_the_base_class_one(cls):
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != object() and a != 0


def test_subtrees_is_preorder_on_a_mixed_tree():
    cut = Cutoff(DEFAULT_CUTOFF, Norm((0, 1)), 1)
    power = Pow(Y, 2)
    quotient = Div(cut, power)
    product = Mul((Const(2), X))
    tree = Add((product, quotient, Z))
    assert list(subtrees(tree)) == [tree, product, Const(2), X, quotient,
                                    cut, Norm((0, 1)), power, Y, Z]
    assert list(subtrees(X)) == [X]


@pytest.mark.parametrize("text", TEXTS)
def test_equal_trees_built_twice_are_equal_and_hash_equal(text):
    a = expr_parse(text, 3)
    b = expr_parse(text, 3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert list(subtrees(a)) == list(subtrees(b))


def test_nodes_of_different_classes_are_unequal():
    assert Const(0) != Coord(0)
    assert Coord(0) != Const(0)
    assert Add((X, Y)) != Mul((X, Y))
    assert Norm((0,)) != Coord(0)
    assert len({Const(0), Coord(0), Add((X, Y)), Mul((X, Y))}) == 4


def test_cutoff_specs_compare_by_identity():
    twin_spec = CutoffSpec(q=DEFAULT_CUTOFF.q, a=DEFAULT_CUTOFF.a,
                           b=DEFAULT_CUTOFF.b)
    assert Cutoff(DEFAULT_CUTOFF, X, 1) == Cutoff(DEFAULT_CUTOFF, X, 1)
    assert Cutoff(DEFAULT_CUTOFF, X, 1) != Cutoff(twin_spec, X, 1)


# every hook set of the package that folds or derives expression trees
HOOK_SETS = [symfun._Kernel, symfun._Enclose, symfun._Diff, symfun._Degree,
             symfun._Printer, verifier._FreeNorms, verifier._RingFraction,
             verifier._DefinedFraction, verifier._Rescale]


def test_each_node_class_names_its_own_hook():
    names = [cls.hook for cls in BUILDERS]
    assert all(names) and len(set(names)) == len(names)


@pytest.mark.parametrize("hooks", HOOK_SETS, ids=lambda h: h.__name__)
def test_every_hook_set_has_a_hook_for_every_node_class(hooks):
    assert [cls.__name__ for cls in BUILDERS
            if not callable(getattr(hooks, cls.hook, None))] == []


@pytest.mark.parametrize("hooks", HOOK_SETS, ids=lambda h: h.__name__)
def test_every_public_callable_of_a_hook_set_is_a_node_class_hook(hooks):
    names = {cls.hook for cls in BUILDERS}
    assert sorted(name for name in dir(hooks) if not name.startswith("_")
                  and callable(getattr(hooks, name))
                  and name not in names) == []


class _Recorder:
    """Hooks that fold every child, in field order, then record the
    node."""

    def __init__(self):
        self.folded = []

    def const(self, e, visit):
        kids = tuple(map(visit, e.children()))
        self.folded.append(e)
        return (type(e).__name__, kids)

    coord = add = mul = pow = div = norm = cutoff = const


def test_folding_a_table_folds_each_distinct_subtree_once():
    trees = [expr_parse(text, 3) for text in TEXTS]
    table = trees + [expr_derive(t, (1, 0, 0)) for t in trees] + trees
    hooks = _Recorder()
    values = fold(table, hooks)
    assert len(values) == len(table)
    assert len(hooks.folded) == len(set(hooks.folded))
    assert set(hooks.folded) == {s for t in table for s in subtrees(t)}
    # children are folded before their parent
    order = {node: k for k, node in enumerate(hooks.folded)}
    assert all(order[c] < order[node]
               for node in hooks.folded for c in node.children())
    # a tree given twice folds to the one value
    assert all(a is b for a, b in zip(values[:4], values[-4:]))


def test_a_node_class_without_a_hook_raises_type_error(monkeypatch):
    class NoCutoff(_Recorder):
        cutoff = None

    with pytest.raises(TypeError, match="NoCutoff has no hook for node "
                                        "class Cutoff"):
        fold([Add((X, BUILDERS[Cutoff]()))], NoCutoff())
    # a derivative kept from an earlier call would not reach the hook
    expr_diff.cache_clear()
    monkeypatch.setattr(symfun._Diff, "cutoff", None)
    with pytest.raises(TypeError, match="_Diff has no hook for node "
                                        "class Cutoff"):
        expr_diff(Add((X, BUILDERS[Cutoff]())), 0)


def test_a_memo_given_to_fold_carries_values_across_calls():
    memo, first, second = {}, _Recorder(), _Recorder()
    fold([BUILDERS[Pow]()], first, memo)
    fold([BUILDERS[Div]()], second, memo)
    # X, Y and X + Y were folded by the first call
    assert first.folded == [X, Y, Add((X, Y)), Pow(Add((X, Y)), 3)]
    assert second.folded == [Z, Add((Y, Z)), Div(X, Add((Y, Z)))]

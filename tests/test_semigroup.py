import numpy as np
import pytest

from varcong.semigroup import (FiniteSemigroup, build, eggbox, eggbox_dot,
                               eggbox_text)
from varcong.transform import all_transformations, compose, identity, rank
from varcong.variant import build_context


@pytest.fixture(scope="module")
def t3():
    return build(all_transformations(3), compose)


def test_build_tabulates_the_product(t3):
    assert len(t3) == 27
    elems = t3.elements
    for i in (0, 5, 13, 26):
        for j in (1, 7, 22):
            assert elems[t3.product(i, j)] == compose(elems[i], elems[j])


def test_associativity_check_rejects_bad_table():
    mul = np.zeros((2, 2), dtype=np.int64)
    mul[1, 1] = 1
    FiniteSemigroup(["a", "b"], mul)  # a zero semigroup with 1*1 = 1 is fine
    mul2 = np.array([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        FiniteSemigroup(["a", "b"], mul2)


def test_identity_and_idempotents(t3):
    assert t3.elements[t3.identity_index()] == identity(3)
    idem = t3.idempotent_indices()
    assert len(idem) == 10
    assert all(t3.product(i, i) == i for i in idem)


def test_greens_classes_of_t3(t3):
    g = t3.greens()
    ranks = [rank(f) for f in t3.elements]
    # D = same rank on a full transformation monoid
    for x in range(27):
        for y in range(27):
            assert (g.d_class[x] == g.d_class[y]) == (ranks[x] == ranks[y])
    # L = same image, R = same kernel
    from varcong.transform import image, kernel
    for x in range(27):
        for y in range(27):
            assert (g.l_class[x] == g.l_class[y]) == (
                image(t3.elements[x]) == image(t3.elements[y]))
            assert (g.r_class[x] == g.r_class[y]) == (
                kernel(t3.elements[x]) == kernel(t3.elements[y]))


def test_regular_elements(t3):
    # every element of a full transformation monoid is regular
    assert len(t3.regular_elements()) == 27


def test_eggbox_shape(t3):
    boxes = eggbox(t3)
    assert [b["depth"] for b in boxes] == [3, 2, 1]
    top, mid, low = boxes
    assert (top["num_r"], top["num_l"], top["h_size"]) == (1, 1, 6)
    assert (mid["num_r"], mid["num_l"], mid["h_size"]) == (3, 3, 2)
    assert (low["num_r"], low["num_l"], low["h_size"]) == (1, 3, 1)
    # group cells carry an idempotent
    idem = set(t3.idempotent_indices())
    for box in boxes:
        for row, grow in zip(box["grid"], box["group"]):
            for cell, is_group in zip(row, grow):
                assert is_group == bool(set(cell) & idem)


def test_eggbox_renderings(t3):
    text = eggbox_text(t3)
    assert text.endswith("\n")
    assert "D-class" in text and "[6*]" in text
    dot = eggbox_dot(t3, name="t3")
    assert dot.startswith("digraph t3 {")
    assert dot.rstrip().endswith("}")
    assert dot.count("<TABLE") == 3


@pytest.mark.parametrize("sandwich", [None, "3: 1 2 2", "4: 1 1 3 3"])
def test_d_order_matches_the_stepwise_closure(sandwich):
    if sandwich is None:
        S = build(all_transformations(3), compose)
    else:
        S = build_context(sandwich).txa()
    g = S.greens()
    assert "d_order" not in vars(g)       # built only when read
    # reference: one boolean step at a time, to the reflexive-transitive closure
    d, mul = g.d_class, S.mul
    step = np.zeros((g.num_d, g.num_d), dtype=bool)
    step[d[mul.ravel()], np.tile(d, len(mul))] = True
    step[d[mul.ravel()], np.repeat(d, len(mul))] = True
    leq = np.eye(g.num_d, dtype=bool)
    while True:
        nxt = leq | (step @ leq)
        if (nxt == leq).all():
            break
        leq = nxt
    assert g.d_order.dtype == bool
    assert (g.d_order == leq).all()

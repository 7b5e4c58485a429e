import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from varcong import congruence
from varcong.congruence import (CapExceeded, EquivalenceRelation,
                                NotPermutable, OracleCheckFailed,
                                canonical_labels, closure_labels, components,
                                congruence_closure, dump_congruences,
                                enumerate_all_congruences, is_congruence,
                                join_labels, join_with_each,
                                principal_congruence_count,
                                principal_congruences)
from varcong.semigroup import build
from varcong.transform import all_transformations, compose
from varcong.variant import build_context


@pytest.fixture(scope="module")
def t2():
    return build(all_transformations(2), compose)


def test_constructors_and_canonical_labels():
    d = EquivalenceRelation.diagonal(4)
    u = EquivalenceRelation.universal(4)
    assert d.num_blocks() == 4 and u.num_blocks() == 1
    p = EquivalenceRelation.from_pairs(4, [(3, 1)])
    assert p.to_blocks() == [[0], [1, 3], [2]]
    b = EquivalenceRelation.from_blocks(4, [[1, 3], [0], [2]])
    assert b == p
    assert hash(b) == hash(p)
    with pytest.raises(ValueError):
        EquivalenceRelation.from_blocks(4, [[0, 1], [2]])  # 3 uncovered
    with pytest.raises(ValueError):
        EquivalenceRelation.from_blocks(4, [[0, 1], [1, 2], [3]])


@pytest.mark.parametrize("blocks", [
    [[0, 1], [2], [-1]],      # would wrap to element 3
    [[0, 1000], [1, 2, 3]],
    [[0, 1], [2, 3.0]],
    [[0, 1], [2, True], [3]],
    [[0, 1], [2, [3]]],
    5,
    {"a": 1},
    [0, 1, 2, 3],
])
def test_from_blocks_rejects_malformed_input(blocks):
    with pytest.raises(ValueError):
        EquivalenceRelation.from_blocks(4, blocks)


def test_lattice_operations():
    x = EquivalenceRelation.from_pairs(5, [(0, 1), (2, 3)])
    y = EquivalenceRelation.from_pairs(5, [(1, 2), (3, 4)])
    assert x.meet(y) == EquivalenceRelation.diagonal(5)
    assert x.join(y) == EquivalenceRelation.universal(5)
    assert x.leq(x.join(y)) and x.meet(y).leq(x)
    assert not x.leq(y)
    assert x.pair_count() == 5 + 2 * 2


def test_compose_and_matrix():
    x = EquivalenceRelation.from_pairs(4, [(0, 1)])
    y = EquivalenceRelation.from_pairs(4, [(1, 2)])
    m = x.compose(y)
    assert m[0, 2] and not m[2, 0]  # one-step relational composition
    assert (x.matrix() == x.matrix().T).all()


def test_restrict_and_image_under():
    x = EquivalenceRelation.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    sub = x.restrict([0, 1, 4])
    assert sub.to_blocks() == [[0, 1], [2]]
    push = x.image_under(np.array([0, 0, 1, 1, 1, 2]), 3)
    assert push.num_blocks() == 2  # 4~5 forces 1~2 downstairs


def test_components_labels():
    rel = EquivalenceRelation(components(5, [0, 4], [4, 2]))
    assert rel.to_blocks() == [[0, 2, 4], [1], [3]]


def test_serialize_round_trip():
    x = EquivalenceRelation.from_pairs(4, [(0, 3)])
    assert x.serialize() == "[[0,3],[1],[2]]"
    text = dump_congruences([x, EquivalenceRelation.diagonal(4)])
    assert text.splitlines() == sorted(["[[0,3],[1],[2]]", "[[0],[1],[2],[3]]"])


def test_congruence_closure(t2):
    # closing {identity ~ swap} inside T_2
    swap = next(i for i, f in enumerate(t2.elements) if f.images == (2, 1))
    ident = t2.identity_index()
    rel = congruence_closure(t2, [(ident, swap)])
    assert is_congruence(rel, t2)
    assert rel.contains(ident, swap)
    # left translation by a constant drags the constants together
    consts = [i for i, f in enumerate(t2.elements) if len(set(f.images)) == 1]
    assert rel.contains(*consts)
    assert rel.num_blocks() == 2


def test_is_congruence_detects_failure(t2):
    swap = next(i for i, f in enumerate(t2.elements) if f.images == (2, 1))
    not_cong = EquivalenceRelation.from_pairs(4, [(t2.identity_index(), swap)])
    assert not is_congruence(not_cong, t2)


def test_enumerate_all_congruences_t2(t2):
    congs = enumerate_all_congruences(t2)
    assert len(congs) == 4
    keys = {c.key() for c in congs}
    assert EquivalenceRelation.diagonal(4).key() in keys
    assert EquivalenceRelation.universal(4).key() in keys
    for c in congs:
        assert is_congruence(c, t2)
    # sorted coarse-to-fine by block count, then by label key
    blocks = [c.num_blocks() for c in congs]
    assert blocks == sorted(blocks, reverse=True)


def test_principal_congruences(t2):
    principals = principal_congruences(t2)
    assert principal_congruence_count(t2) == len(principals)
    # principals of T_2 already form the whole lattice minus the diagonal
    assert len(principals) == 3


def test_cap_guard(t2):
    with pytest.raises(CapExceeded) as exc:
        enumerate_all_congruences(t2, cap=3)
    assert "cap" in str(exc.value)
    with pytest.raises(CapExceeded):
        principal_congruences(t2, cap=3)


def test_oracle_check_is_not_an_assert(t2, monkeypatch):
    """The final is_congruence sweep raises a named error, so it holds
    under python -O as well."""
    swap = next(i for i, f in enumerate(t2.elements) if f.images == (2, 1))
    bad = EquivalenceRelation.from_pairs(4, [(t2.identity_index(), swap)])
    assert not is_congruence(bad, t2)
    monkeypatch.setattr(congruence, "join_with_each",
                        lambda labels, reps: np.tile(bad.block_id, (len(reps), 1)))
    with pytest.raises(OracleCheckFailed):
        enumerate_all_congruences(t2)


# -- the batched kernels against their one-at-a-time counterparts ----------

def _principal_labels(mul, x, y):
    """(x,y)# one pair at a time: the components of the translates
    (sxt, syt), s, t in S^1, saturated by closure_labels."""
    m = len(mul)
    lx = np.concatenate([[x], mul[:, x]])
    ly = np.concatenate([[y], mul[:, y]])
    mx = np.concatenate([lx[:, None], mul[lx, :]], axis=1).ravel()
    my = np.concatenate([ly[:, None], mul[ly, :]], axis=1).ravel()
    graph = csr_matrix((np.ones(len(mx), dtype=np.int8), (mx, my)), shape=(m, m))
    _, labels = connected_components(graph, directed=False)
    return closure_labels(mul, labels)


def _principal_reference(mul):
    seen = {}
    for x in range(len(mul)):
        for y in range(x + 1, len(mul)):
            rel = EquivalenceRelation(_principal_labels(mul, x, y))
            seen.setdefault(rel.key(), rel)
    return list(seen.values())


def _table(name):
    if name.startswith("T_"):
        return build(all_transformations(int(name[2:])), compose).mul
    return build_context(name).P.mul


@pytest.mark.parametrize("name", ["T_1", "T_2", "T_3", "3: 1 2 2", "4: 1 1 3 3"])
def test_principal_congruences_match_the_per_pair_pass(name):
    mul = _table(name)
    assert principal_congruences(mul) == _principal_reference(mul)


@pytest.mark.parametrize("budget", [1, 97, 4096])
def test_batch_boundaries_do_not_change_the_oracle(monkeypatch, budget):
    mul = _table("3: 1 2 2")
    principals = principal_congruences(mul)
    everything = enumerate_all_congruences(mul)
    monkeypatch.setattr(congruence, "EDGE_BUDGET", budget)
    assert principal_congruences(mul) == principals
    assert enumerate_all_congruences(mul) == everything


@pytest.mark.parametrize("name", ["T_1", "1: 1"])
def test_oracle_without_generators(name):
    mul = _table(name)
    assert len(mul) == 1
    assert principal_congruences(mul) == []
    assert enumerate_all_congruences(mul) == [EquivalenceRelation.diagonal(1)]
    reps = np.empty((0, 1), dtype=np.int64)
    assert join_with_each(np.zeros(1, dtype=np.int32), reps).shape == (0, 1)


@st.composite
def partitions(draw):
    """A partition to join and one to six generators, on one small universe."""
    m = draw(st.integers(1, 14))
    count = draw(st.integers(1, 6))
    label_lists = st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
    return [canonical_labels(draw(label_lists)) for _ in range(count + 1)]


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_join_with_each_matches_join_labels(parts):
    labels, gens = parts[0], parts[1:]
    reps = np.array([congruence._block_reps(g) for g in gens])
    rows = join_with_each(labels, reps)
    assert rows.shape == (len(gens), len(labels))
    assert rows.dtype == congruence.LABEL_DTYPE
    for row, g in zip(rows, gens):
        assert (row == join_labels(labels, g)).all()
        assert (canonical_labels(row) == row).all()
        # joining the result with the same generator again changes nothing
        again = join_with_each(row, congruence._block_reps(g)[None, :])
        assert (again[0] == row).all()
        assert EquivalenceRelation(row).key() == row.tobytes()


# -- the components kernel and the permutability predicate ------------------

def _csgraph_labels(n, src, dst):
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    return canonical_labels(connected_components(graph, directed=False)[1])


@st.composite
def graphs(draw, max_nodes=16):
    n = draw(st.integers(0, max_nodes))
    node = st.integers(0, n - 1) if n else st.nothing()
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return n, src, dst


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_components_matches_csgraph(graph):
    n, src, dst = graph
    labels = components(n, src, dst)
    assert labels.shape == (n,) and labels.dtype == congruence.LABEL_DTYPE
    if n:
        assert (labels == _csgraph_labels(n, src, dst)).all()


@pytest.mark.parametrize("n", [0, 1, 5])
def test_components_without_edges(n):
    none = np.empty(0, dtype=np.int64)
    assert (components(n, none, none) == np.arange(n)).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), graphs(max_nodes=8))
def test_row_components_are_per_row_components(rows, graph):
    m, src, dst = graph
    row = np.arange(len(src)) % rows * m     # spread the edges over the rows
    out = congruence._row_components(rows, m, row + src, row + dst)
    assert out.shape == (rows, m)
    for r in range(rows):
        mine = row == r * m
        assert (out[r] == components(m, src[mine], dst[mine])).all()


def _partition(draw, m):
    return EquivalenceRelation(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))


@st.composite
def partition_pairs(draw):
    m = draw(st.integers(1, 10))
    a, b = _partition(draw, m), _partition(draw, m)
    if draw(st.booleans()):
        b = a.meet(b)       # a refinement always permutes with a
    return a, b


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
def test_permuting_join_matches_the_composition(pair):
    a, b = pair
    if (a.compose(b) == a.join(b).matrix()).all():
        assert a.permuting_join(b) == a.join(b)
        assert b.permuting_join(a) == a.join(b)
    else:
        with pytest.raises(NotPermutable, match="do not meet"):
            a.permuting_join(b)


def test_permuting_join_names_the_blocks():
    a = EquivalenceRelation.from_pairs(3, [(0, 1)])
    b = EquivalenceRelation.from_pairs(3, [(1, 2)])
    message = r"element 0, the block \[2\] of the first and \[0\] of the second"
    with pytest.raises(NotPermutable, match=message):
        a.permuting_join(b)
    with pytest.raises(ValueError):
        a.permuting_join(EquivalenceRelation.diagonal(4))


@st.composite
def partition_triples(draw):
    m = draw(st.integers(1, 9))
    return tuple(_partition(draw, m) for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(partition_triples())
def test_lattice_laws(triple):
    x, y, z = triple
    m = x.n
    assert x.meet(y) == y.meet(x) and x.join(y) == y.join(x)
    assert x.meet(y.meet(z)) == x.meet(y).meet(z)
    assert x.join(y.join(z)) == x.join(y).join(z)
    assert x.meet(x.join(y)) == x and x.join(x.meet(y)) == x
    assert x.meet(x) == x and x.join(x) == x
    assert x.leq(y) == (x.meet(y) == x) == (x.join(y) == y)
    assert x.meet(y).leq(x) and x.leq(x.join(y))
    assert EquivalenceRelation.diagonal(m).leq(x) and x.leq(EquivalenceRelation.universal(m))
    # the join is the least upper bound among the three
    if x.leq(z) and y.leq(z):
        assert x.join(y).leq(z)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=20), st.randoms(use_true_random=False))
def test_canonical_labels_is_idempotent(labels, rnd):
    once = canonical_labels(np.array(labels, dtype=np.int64))
    assert (canonical_labels(once) == once).all()
    # renaming the blocks changes nothing
    names = list(range(100))
    rnd.shuffle(names)
    renamed = np.array([names[v + 5] for v in labels], dtype=np.int64)
    assert (canonical_labels(renamed) == once).all()

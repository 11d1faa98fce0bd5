import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import quadratic_nn
from evrect.errors import CapacityError, DataError
from evrect.kdtree import (
    PackedTree,
    batch_descent,
    build,
    descend,
    descend_batch,
    dump_rom,
    exact_nn,
    harvest_dims,
    pack,
    parse_rom,
    quantized_descend,
    structural_equal,
    unpack,
)


def test_single_point_tree():
    tree = build(np.asarray([[1.0, 2.0, 3.0]]))
    assert tree.n_nodes == 1
    assert tree.depth == 0
    assert descend(tree, np.asarray([9.0, 9.0, 9.0])) == 0


def test_two_points_split_on_only_varying_dim():
    pts = np.zeros((2, 5))
    pts[1, 3] = 4.0
    tree = build(pts)
    assert tree.split_dim[0] == 3
    assert descend(tree, pts[0]) == 0
    assert descend(tree, pts[1]) == 1


def test_self_retrieval_64_points(rng):
    pts = rng.standard_normal((64, 5))
    tree = build(pts)
    for i in range(64):
        assert descend(tree, pts[i]) == i
    assert np.array_equal(descend_batch(tree, pts), np.arange(64))


def test_depth_bound_and_comparison_count(rng):
    for k in (2, 7, 33, 128):
        pts = rng.uniform(size=(k, 4))
        tree = build(pts)
        assert tree.depth <= math.ceil(math.log2(k)) + 1
        depths = tree.depths()
        leaf_node = {int(tree.leaf_index[n]): n for n in np.flatnonzero(tree.is_leaf)}
        for i in rng.choice(k, size=min(k, 10), replace=False):
            # descend makes one comparison per internal node above the leaf
            # it reaches, here point i's own
            assert descend(tree, pts[i]) == i
            assert depths[leaf_node[i]] <= math.ceil(math.log2(k)) + 1


def test_descend_single_leaf_any_query():
    tree = build(np.asarray([[5.0, 5.0]]))
    assert descend(tree, np.asarray([100.0, -3.0])) == 0


def test_duplicate_points_rejected():
    with pytest.raises(DataError, match="duplicate"):
        build(np.asarray([[1.0, 2.0], [1.0, 2.0]]))


def test_empty_input_rejected():
    with pytest.raises(DataError):
        build(np.empty((0, 3)))


def test_collapsed_median_moves_pivot():
    # split-dim values [0, 2, 2]: the median equals the maximum, which
    # would send every point left; the pivot drops below the maximum so
    # the right side stays non-empty and self-retrieval still holds
    pts = np.asarray([[0.0, 5.0], [2.0, 6.0], [2.0, 7.0]])
    tree = build(pts)
    assert tree.split_dim[0] == 0
    assert tree.split_val[0] == 0.0
    for i in range(3):
        assert descend(tree, pts[i]) == i


def test_exact_nn_trivial_and_ties(rng):
    pts = rng.standard_normal((10, 3))
    assert exact_nn(pts, pts[7]) == 7
    two = np.asarray([[0.0, 0.0], [2.0, 0.0]])
    assert exact_nn(two, np.asarray([1.0, 0.0])) == 0


def test_exact_nn_matches_quadratic_oracle(rng):
    pts = rng.standard_normal((100, 4))
    for _ in range(25):
        q = rng.standard_normal(4)
        assert exact_nn(pts, q) == quadratic_nn(pts, q)


def test_recall_at_one_reported(rng):
    pts = rng.standard_normal((500, 5))
    tree = build(pts)
    queries = rng.standard_normal((500, 5))
    leaves = descend_batch(tree, queries)
    hits = sum(int(leaves[i]) == exact_nn(pts, queries[i]) for i in range(len(queries)))
    recall = hits / len(queries)
    # measured only; backtracking-free descent trades recall for speed
    print(f"descend recall@1 vs exact search: {recall:.3f}")
    assert 0.0 <= recall <= 1.0


def test_harvest_dims_sorted_ascending():
    pts = np.zeros((2, 5))
    pts[1, 3] = 1.0
    assert harvest_dims(build(pts)).kept_dims == (3,)
    single = build(np.asarray([[1.0, 2.0]]))
    assert harvest_dims(single).kept_dims == ()
    rng = np.random.default_rng(5)
    proj = harvest_dims(build(rng.standard_normal((64, 12))))
    assert list(proj.kept_dims) == sorted(proj.kept_dims)


def test_rebuild_identity_survives_variance_ties():
    # mirrored columns tie on variance at every node; the kept-dim
    # ordering must not flip which dimension argmax picks
    rng = np.random.default_rng(6)
    half = rng.integers(0, 9, size=(32, 4)).astype(float)
    pts = np.unique(np.hstack([half, half[:, ::-1]]), axis=0)
    tree = build(pts)
    proj = harvest_dims(tree)
    rebuilt = build(proj.restrict(pts))
    dim_map = {d: i for i, d in enumerate(proj.kept_dims)}
    assert structural_equal(tree, rebuilt, dim_map)


def test_harvest_restrict_rebuild_structural_identity(rng):
    pts = np.round(rng.uniform(0, 50, size=(950, 81)), 1)
    pts = np.unique(pts, axis=0)
    tree = build(pts)
    proj = harvest_dims(tree)
    assert len(proj.kept_dims) <= 81
    restricted = proj.restrict(pts)
    rebuilt = build(restricted)
    dim_map = {d: i for i, d in enumerate(proj.kept_dims)}
    assert structural_equal(tree, rebuilt, dim_map)
    print(f"kept {len(proj.kept_dims)} of 81 dims")


def test_harvest_shrinks_small_dictionaries(rng):
    # 16 leaves mean at most 15 split dimensions, so an 81-D space must
    # lose dimensions; the rebuild on the kept ones is still identical
    pts = rng.standard_normal((16, 81))
    tree = build(pts)
    proj = harvest_dims(tree)
    assert 1 <= len(proj.kept_dims) <= 15
    rebuilt = build(proj.restrict(pts))
    dim_map = {d: i for i, d in enumerate(proj.kept_dims)}
    assert structural_equal(tree, rebuilt, dim_map)


def test_structural_equal_detects_differences(rng):
    pts = rng.standard_normal((16, 3))
    a = build(pts)
    b = build(pts)
    assert structural_equal(a, b)
    other = build(rng.standard_normal((16, 3)))
    assert not structural_equal(a, other)


def test_pack_round_trip_small(rng):
    pts = rng.standard_normal((20, 4))
    tree = build(pts)
    packed = pack(tree)
    assert np.all(packed.words >> np.uint64(49) == 0)
    back = unpack(packed)
    assert np.array_equal(back.is_leaf, tree.is_leaf)
    assert np.array_equal(back.left, tree.left)
    assert np.array_equal(back.right, tree.right)
    assert np.array_equal(back.leaf_index, tree.leaf_index)
    internal = ~tree.is_leaf
    assert np.array_equal(back.split_dim[internal], tree.split_dim[internal])
    # split values come back quantized to the 8-bit grid
    spread = packed.vmax - packed.vmin
    assert np.all(np.abs(back.split_val[internal] - tree.split_val[internal]) <= spread / 255 / 2 + 1e-12)


def test_pack_range_endpoints_code_255_and_0():
    pts = np.asarray([[0.0], [1.0], [2.0], [10.0]])
    tree = build(pts)
    packed = pack(tree)
    internal = np.flatnonzero(~tree.is_leaf)
    codes = {float(tree.split_val[i]): int((packed.words[i] >> np.uint64(4)) & np.uint64(0xFF)) for i in internal}
    assert codes[max(codes)] == 255
    assert codes[min(codes)] == 0


def test_pack_degenerate_range_single_split():
    pts = np.asarray([[0.0], [4.0]])
    tree = build(pts)
    packed = pack(tree)
    assert packed.vmin == packed.vmax
    code = int((packed.words[0] >> np.uint64(4)) & np.uint64(0xFF))
    assert code == 0
    back = unpack(packed)
    assert back.split_val[0] == packed.vmin


def test_pack_capacity_errors(rng):
    wide = rng.standard_normal((4, 20))
    wide[:, 17] = np.arange(4) * 100.0  # forces a split dim >= 16
    with pytest.raises(CapacityError):
        pack(build(wide))
    big = rng.standard_normal((2_100, 3))
    with pytest.raises(CapacityError, match="node"):
        pack(build(big))


def test_quantized_descend_scalar_equals_batch(rng):
    pts = rng.uniform(size=(64, 6))
    packed = pack(build(pts))
    queries = rng.uniform(size=(200, 6))
    batch = descend_batch(unpack(packed, 6), queries)
    for i in range(len(queries)):
        assert quantized_descend(packed, queries[i]) == batch[i]


def test_quantized_vs_float_agreement_reported(rng):
    pts = rng.uniform(size=(256, 5))
    tree = build(pts)
    packed = pack(tree)
    queries = rng.uniform(size=(1_000, 5))
    float_leaves = descend_batch(tree, queries)
    quant_leaves = descend_batch(unpack(packed, 5), queries)
    agreement = float(np.mean(float_leaves == quant_leaves))
    print(f"quantized descend agreement with float: {agreement:.3f}")
    assert 0.0 <= agreement <= 1.0


def test_rom_dump_and_parse_round_trip(rng):
    pts = rng.standard_normal((33, 4))
    packed = pack(build(pts))
    text = dump_rom(packed)
    lines = text.strip().splitlines()
    assert len(lines) == packed.n_nodes
    assert all(len(line) == 13 for line in lines)
    again = parse_rom(text, vmin=packed.vmin, vmax=packed.vmax)
    assert np.array_equal(again.words, packed.words)


def test_parse_rom_errors():
    with pytest.raises(DataError, match="13 hex"):
        parse_rom("abc\n")
    with pytest.raises(DataError, match="invalid hex"):
        parse_rom("zzzzzzzzzzzzz\n")
    # forms int(_, 16) takes: a 0x prefix, an underscore, a leading +, and
    # a non-ASCII digit (ARABIC-INDIC DIGIT ZERO)
    for line in ("0x00000000001", "00000_0000001", "+000000000001", "000000000000\u0660"):
        assert len(line) == 13 and int(line, 16) < 1 << 49
        with pytest.raises(DataError, match="ROM line 1: invalid hex"):
            parse_rom(line + "\n")
    with pytest.raises(DataError, match="49 bits"):
        parse_rom("fffffffffffff\n")
    with pytest.raises(DataError, match="empty"):
        parse_rom("")


def test_parse_rom_rejects_images_that_are_not_trees(rng):
    packed = pack(build(rng.standard_normal((9, 3))))
    words = packed.words
    inner = int(np.flatnonzero((words >> np.uint64(48)) == 0)[1])
    leaves = np.flatnonzero(words >> np.uint64(48))
    back_to_root = words.copy()
    back_to_root[inner] &= ~np.uint64(0xFFF << 36)           # left child 0
    past_the_end = words.copy()
    past_the_end[0] |= np.uint64(0xFFF << 24)                # right child 4095
    twin_leaf = words.copy()
    twin_leaf[leaves[1]] = twin_leaf[leaves[0]]              # leaf id used twice
    for bad, match in ((back_to_root, "later node"), (past_the_end, "later node"),
                       (twin_leaf, "permutation")):
        text = dump_rom(PackedTree(words=bad, vmin=packed.vmin, vmax=packed.vmax))
        with pytest.raises(DataError, match=f"ROM image: .*{match}"):
            parse_rom(text, vmin=packed.vmin, vmax=packed.vmax)
    text = dump_rom(packed)
    for vmin, vmax in ((1.0, 0.0), (float("nan"), 1.0), (0.0, float("inf")), (-1e308, 1e308)):
        with pytest.raises(DataError, match="finite, ordered"):
            parse_rom(text, vmin=vmin, vmax=vmax)


_ROM_LINES = dump_rom(pack(build(np.random.default_rng(5).standard_normal((9, 3))))).splitlines()
_ROM_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 63), st.integers(0, 52)),
    st.tuples(st.just("line"), st.integers(0, 63),
              st.text(alphabet="0123456789abcdefABCDEF+-_x \t\u0663", max_size=14)),
    st.tuples(st.just("drop"), st.integers(0, 63), st.just(None)),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_ROM_EDITS, max_size=4), vmin=st.floats(), vmax=st.floats())
def test_parse_rom_fuzz_gives_a_tree_or_a_data_error(edits, vmin, vmax):
    """A real ROM image with bits flipped, lines replaced or dropped, over any
    range: a PackedTree of the lines' words with finite split values, or a
    DataError.  A finite range too wide for a float gave inf and nan splits."""
    lines = list(_ROM_LINES)
    for op, at, arg in edits:
        if not lines:
            break
        at %= len(lines)
        if op == "flip":  # a bit of the original word at that line
            lines[at] = "%013x" % (int(_ROM_LINES[at % len(_ROM_LINES)], 16) ^ (1 << arg))
        elif op == "line":
            lines[at] = arg
        else:
            del lines[at]
    try:
        packed = parse_rom("\n".join(lines), vmin=vmin, vmax=vmax)
    except DataError:
        return
    assert isinstance(packed, PackedTree)
    assert len(packed.words) == sum(1 for line in lines if line.strip())
    tree = unpack(packed)
    assert np.isfinite(tree.split_val[~tree.is_leaf]).all()


def test_descend_dimension_mismatch(rng):
    tree = build(rng.standard_normal((4, 3)))
    with pytest.raises(DataError, match="dimension"):
        descend(tree, np.zeros(2))
    with pytest.raises(DataError):
        descend_batch(tree, np.zeros((5, 2)))
    wide = np.zeros((5, 4))
    wide[:, 0] = [-2.0, -1.0, 0.0, 1.0, 2.0]
    wide[:, 2:] = np.arange(10).reshape(5, 2) - 5.0
    assert np.array_equal(batch_descent(tree, 4, (0, 2, 3))(wide), descend_batch(tree, wide[:, [0, 2, 3]]))
    for columns in ((0, 2), (0, 2, 4), (-1, 0, 1)):
        with pytest.raises(DataError, match="column"):
            batch_descent(tree, 4, columns)

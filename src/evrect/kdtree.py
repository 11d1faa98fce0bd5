"""Max-variance k-d tree with backtracking-free descent.

Nodes live in flat parallel arrays in preorder (root at 0).  Each
internal node splits on the dimension of maximum variance at the median
value, with ties going left; descent applies the same rule, so every
training point reaches its own leaf.  The dimensions a tree actually
splits on form a virtual projection: rebuilding the tree on just those
dimensions reproduces the structure exactly.

A packed 49-bit-per-node encoding mirrors the ROM layout of the
hardware profile, with 8-bit affine-quantized split values.

:func:`descend` and :func:`quantized_descend` walk one query and are the
reference models.  :func:`batch_descent` prepares, from the checked
:func:`node_columns` that the pipeline's grid walk reads too, the walk of
whole query matrices in the C loop of ``_native`` (a per-level numpy loop
where it cannot be built).  It reads each matrix in place through a column
map, so a tree over a virtual projection descends the full descriptor
matrix without a copy of the kept columns; :func:`descend_batch` walks one
matrix of the tree's width.  Both raise DataError at a step that does not
go to a later node, and :func:`check_tree` rejects such a tree up front, so
no walk reads outside the tree or runs forever.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import CapacityError, DataError

MAX_PACKED_NODES = 1 << 12
MAX_PACKED_LEAVES = 1 << 12
MAX_PACKED_DIMS = 1 << 4


class KdTree:
    """Flat-array tree; leaves carry the index of their training point."""

    __slots__ = ("is_leaf", "split_dim", "split_val", "left", "right", "leaf_index", "dim", "n_points")

    def __init__(
        self,
        is_leaf: np.ndarray,
        split_dim: np.ndarray,
        split_val: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_index: np.ndarray,
        dim: int,
        n_points: int,
    ) -> None:
        self.is_leaf = is_leaf
        self.split_dim = split_dim
        self.split_val = split_val
        self.left = left
        self.right = right
        self.leaf_index = leaf_index
        self.dim = dim
        self.n_points = n_points

    @property
    def n_nodes(self) -> int:
        return len(self.is_leaf)

    def depths(self) -> np.ndarray:
        """Per-node depth (root 0), derived from the child pointers."""
        out = np.zeros(self.n_nodes, dtype=np.int32)
        for i in range(self.n_nodes):
            if not self.is_leaf[i]:
                out[self.left[i]] = out[i] + 1
                out[self.right[i]] = out[i] + 1
        return out

    @property
    def depth(self) -> int:
        return int(self.depths().max())


def build(points: np.ndarray) -> KdTree:
    """Build the tree down to singleton leaves.

    Dictionary entries must be pairwise distinct; a node whose points
    all collapse at the median keeps its right side non-empty by moving
    the split just below the maximum.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DataError("points must be a non-empty 2-D array")
    k, d = pts.shape
    if len(np.unique(pts, axis=0)) != k:
        raise DataError("duplicate points: leaves hold exactly one entry each")

    n_nodes = 2 * k - 1
    is_leaf = np.zeros(n_nodes, dtype=bool)
    split_dim = np.full(n_nodes, -1, dtype=np.int32)
    split_val = np.full(n_nodes, np.nan, dtype=np.float64)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    leaf_index = np.full(n_nodes, -1, dtype=np.int32)

    next_id = 0
    # stack entries: (parent id, is_right_child, member indices); preorder
    # ids come from popping left children before right subtrees
    stack: list[tuple[int, bool, np.ndarray]] = [(-1, False, np.arange(k))]
    while stack:
        parent, is_right, members = stack.pop()
        node = next_id
        next_id += 1
        if parent >= 0:
            if is_right:
                right[parent] = node
            else:
                left[parent] = node
        if len(members) == 1:
            is_leaf[node] = True
            leaf_index[node] = members[0]
            continue
        sub = pts[members]
        dim = int(np.argmax(sub.var(axis=0)))
        vals = sub[:, dim]
        pivot = float(np.median(vals))
        vmax = vals.max()
        if pivot >= vmax:
            pivot = float(vals[vals < vmax].max())
        split_dim[node] = dim
        split_val[node] = pivot
        goes_left = vals <= pivot
        stack.append((node, True, members[~goes_left]))
        stack.append((node, False, members[goes_left]))

    return KdTree(is_leaf, split_dim, split_val, left, right, leaf_index, d, k)


def descend(tree: KdTree, query: np.ndarray) -> int:
    """Root-to-leaf walk; one scalar comparison per internal node visited."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (tree.dim,):
        raise DataError(f"query dimension {q.shape} does not match tree dimension {tree.dim}")
    i = 0
    while not tree.is_leaf[i]:
        i = tree.left[i] if q[tree.split_dim[i]] <= tree.split_val[i] else tree.right[i]
    return int(tree.leaf_index[i])


def descend_batch(tree: KdTree, queries: np.ndarray) -> np.ndarray:
    """The leaf :func:`descend` gives for each row of ``queries``, a matrix
    ``tree.dim`` columns wide."""
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise DataError("queries must be 2-D")
    return batch_descent(tree, q.shape[1])(q)


def node_columns(tree: KdTree, width: int, columns=None) -> np.ndarray:
    """The query column each node of ``tree`` reads, -1 at a leaf, for
    queries ``width`` columns wide: tree dimension j reads column
    ``columns[j]``, or column j when ``columns`` is None.  DataError unless
    every column lies inside the queries."""
    if columns is None:
        if width != tree.dim:
            raise DataError(f"queries must be 2-D with {tree.dim} columns")
        cols = np.arange(tree.dim, dtype=np.int64)
    else:
        cols = np.asarray(columns, dtype=np.int64)
        if cols.shape != (tree.dim,):
            raise DataError(f"queries must be 2-D and columns must map all {tree.dim} tree dimensions")
        if cols.size and (cols.min() < 0 or cols.max() >= width):
            raise DataError(f"a column index lies outside the {width} query columns")
    internal = _internal_nodes(tree)
    node_col = np.full(tree.n_nodes, -1, dtype=np.int64)
    node_col[internal] = cols[tree.split_dim[internal]]
    return node_col


def batch_descent(tree: KdTree, width: int, columns=None):
    """:func:`descend_batch` over matrices ``width`` columns wide, with the
    tree's node arrays checked and laid out once, for a caller that descends
    many blocks: returns a function of ``(queries, norm=None)``.

    Tree dimension j reads column ``columns[j]`` of the matrix, or column j
    when ``columns`` is None, so a tree over a virtual projection descends
    the full descriptor matrix in place.  With ``norm``, one value per row,
    each row descends as if divided by its norm where that is > 0 (numpy's
    ``divide`` with that ``where``), without a divided copy."""
    node_col = node_columns(tree, width, columns)
    n = tree.n_nodes
    native = _native.descent(node_col, tree.split_val, tree.left, tree.right, tree.leaf_index)

    def walk(queries: np.ndarray, norm=None) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != width:
            raise DataError(f"queries must be 2-D with {width} columns")
        if norm is not None:
            norm = np.ascontiguousarray(norm, dtype=np.float64)
            if norm.shape != (len(q),):
                raise DataError(f"norms must be one per query row, not of shape {norm.shape}")
        if native is not None:
            return native.leaves(q, norm)
        cur = np.zeros(len(q), dtype=np.int64)
        active = np.arange(len(q)) if node_col[0] >= 0 else np.arange(0)
        while active.size:
            idx = cur[active]
            vals = q[active, node_col[idx]]
            if norm is not None:
                d = norm[active]
                np.divide(vals, d, out=vals, where=d > 0.0)
            go_left = vals <= tree.split_val[idx]
            nxt = np.where(go_left, tree.left[idx], tree.right[idx])
            if ((nxt <= idx) | (nxt >= n)).any():
                raise DataError(_native.BAD_STEP)
            cur[active] = nxt
            active = active[node_col[nxt] >= 0]
        return tree.leaf_index[cur].astype(np.int64)

    return walk


def _internal_nodes(tree: KdTree) -> np.ndarray:
    """Indices of the internal nodes, after checking that the node arrays
    share one length and that every split dimension lies below ``tree.dim``."""
    n = tree.n_nodes
    if n == 0 or any(len(a) != n for a in (tree.split_dim, tree.split_val, tree.left, tree.right, tree.leaf_index)):
        raise DataError("tree node arrays are empty or differ in length")
    internal = np.flatnonzero(~tree.is_leaf)
    dims = tree.split_dim[internal]
    if ((dims < 0) | (dims >= tree.dim)).any():
        raise DataError(f"a split dimension lies outside the tree's {tree.dim}")
    return internal


def check_tree(tree: KdTree) -> None:
    """DataError unless every walk of ``tree`` ends at a leaf of one of its
    ``n_points`` entries: node arrays of one length, split dimensions below
    ``tree.dim``, children later than their parent and inside the tree, and
    leaf ids a permutation of 0..n_points-1."""
    internal = _internal_nodes(tree)
    for child in (tree.left[internal], tree.right[internal]):
        if ((child <= internal) | (child >= tree.n_nodes)).any():
            raise DataError(_native.BAD_STEP)
    if not np.array_equal(np.sort(tree.leaf_index[tree.is_leaf]), np.arange(tree.n_points)):
        raise DataError(f"leaf ids are not a permutation of 0..{tree.n_points - 1}")


def exact_nn(points: np.ndarray, query: np.ndarray) -> int:
    """Linear-scan nearest neighbor, ties to the lowest index."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) == 0:
        raise DataError("point set must be non-empty")
    q = np.asarray(query, dtype=np.float64)
    diff = pts - q
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))


@dataclass(frozen=True)
class VirtualProjection:
    """Dimensions a tree actually splits on, in ascending index order.

    Ascending order keeps argmax tie-breaking stable under the column
    selection, so a rebuild on the restricted data reproduces the tree
    even when two dimensions tie on variance exactly.
    """

    kept_dims: tuple[int, ...]
    source_dim: int

    def __post_init__(self) -> None:
        kept = np.asarray(self.kept_dims, dtype=np.int64)
        if kept.size and (kept[0] < 0 or kept[-1] >= self.source_dim or (np.diff(kept) <= 0).any()):
            raise DataError(f"kept dimensions must ascend and lie in 0..{self.source_dim - 1}")

    def restrict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)[..., list(self.kept_dims)]


def harvest_dims(tree: KdTree) -> VirtualProjection:
    dims = np.unique(tree.split_dim[~tree.is_leaf])
    return VirtualProjection(kept_dims=tuple(int(d) for d in dims), source_dim=tree.dim)


def structural_equal(a: KdTree, b: KdTree, dim_map: dict[int, int] | None = None) -> bool:
    """True when the two trees share shape, ids, split values, and
    (optionally relabeled) split dimensions."""
    if a.n_nodes != b.n_nodes:
        return False
    if not (
        np.array_equal(a.is_leaf, b.is_leaf)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.leaf_index, b.leaf_index)
    ):
        return False
    internal = ~a.is_leaf
    if not np.array_equal(a.split_val[internal], b.split_val[internal]):
        return False
    a_dims = a.split_dim[internal]
    if dim_map is not None:
        a_dims = np.asarray([dim_map[int(d)] for d in a_dims], dtype=np.int32)
    return bool(np.array_equal(a_dims, b.split_dim[internal]))


@dataclass(frozen=True)
class PackedTree:
    """ROM image of a tree: one 49-bit word per node plus the split-value
    quantization range.

    Word layout, most significant bit first:
    kind(1) | left(12) | right(12) | leaf_index(12) | split_val(8) | split_dim(4).
    """

    words: np.ndarray
    vmin: float
    vmax: float

    @property
    def n_nodes(self) -> int:
        return len(self.words)


def _quantize(vals: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    if vmax <= vmin:
        return np.zeros(len(vals), dtype=np.uint64)
    codes = np.rint((vals - vmin) / (vmax - vmin) * 255.0)
    return np.clip(codes, 0, 255).astype(np.uint64)


def _dequantize(codes: np.ndarray, vmin: float, vmax: float) -> np.ndarray:
    # same operation order as quantized_descend so both paths agree bitwise
    scale = (vmax - vmin) / 255.0
    return vmin + codes.astype(np.float64) * scale


def pack(tree: KdTree) -> PackedTree:
    """Encode the tree for the fixed-width hardware profile.

    Field widths cap the tree at 4096 nodes, 4096 dictionary entries,
    and 16 distinct split dimensions; anything larger is an error.
    """
    n = tree.n_nodes
    if n > MAX_PACKED_NODES:
        raise CapacityError(f"{n} nodes exceed the {MAX_PACKED_NODES}-node packed limit")
    if tree.n_points > MAX_PACKED_LEAVES:
        raise CapacityError(f"{tree.n_points} entries exceed the {MAX_PACKED_LEAVES}-leaf packed limit")
    internal = ~tree.is_leaf
    if internal.any() and int(tree.split_dim[internal].max()) >= MAX_PACKED_DIMS:
        raise CapacityError(f"split dimension index ≥ {MAX_PACKED_DIMS} cannot be packed")

    if internal.any():
        vals = tree.split_val[internal]
        vmin = float(vals.min())
        vmax = float(vals.max())
    else:
        vmin = vmax = 0.0

    kind = tree.is_leaf.astype(np.uint64)
    left = np.where(internal, tree.left, 0).astype(np.uint64)
    right = np.where(internal, tree.right, 0).astype(np.uint64)
    leaf = np.where(tree.is_leaf, tree.leaf_index, 0).astype(np.uint64)
    dim = np.where(internal, tree.split_dim, 0).astype(np.uint64)
    codes = np.zeros(n, dtype=np.uint64)
    if internal.any():
        codes[internal] = _quantize(tree.split_val[internal], vmin, vmax)
    words = (kind << 48) | (left << 36) | (right << 24) | (leaf << 12) | (codes << 4) | dim
    return PackedTree(words=words, vmin=vmin, vmax=vmax)


def unpack(packed: PackedTree, dim: int | None = None) -> KdTree:
    """Rebuild a descendable tree from the ROM image.

    Split values come back quantized; the training points are gone.  The
    tree's dimension is ``dim``, by default one past its highest split
    dimension.
    """
    w = packed.words
    if (w >> 49).any():
        raise DataError("packed word wider than 49 bits")
    is_leaf = (w >> 48).astype(bool)
    left = np.where(is_leaf, -1, ((w >> 36) & 0xFFF).astype(np.int64)).astype(np.int32)
    right = np.where(is_leaf, -1, ((w >> 24) & 0xFFF).astype(np.int64)).astype(np.int32)
    leaf_index = np.where(is_leaf, ((w >> 12) & 0xFFF).astype(np.int64), -1).astype(np.int32)
    codes = (w >> 4) & 0xFF
    split_dim = np.where(is_leaf, -1, (w & 0xF).astype(np.int64)).astype(np.int32)
    split_val = np.where(is_leaf, np.nan, _dequantize(codes, packed.vmin, packed.vmax))
    internal = ~is_leaf
    if dim is None:
        dim = int(split_dim[internal].max()) + 1 if internal.any() else 0
    n_points = int(is_leaf.sum())
    return KdTree(is_leaf, split_dim, split_val, left, right, leaf_index, dim, n_points)


def quantized_descend(packed: PackedTree, query: np.ndarray) -> int:
    """Descend the ROM image directly, decoding each word as visited."""
    q = np.asarray(query, dtype=np.float64)
    words = packed.words
    scale = (packed.vmax - packed.vmin) / 255.0
    i = 0
    while True:
        word = int(words[i])
        if word >> 48:
            return (word >> 12) & 0xFFF
        val = packed.vmin + ((word >> 4) & 0xFF) * scale
        if q[word & 0xF] <= val:
            i = (word >> 36) & 0xFFF
        else:
            i = (word >> 24) & 0xFFF


def dump_rom(packed: PackedTree) -> str:
    """One 13-hex-digit word per line, root first."""
    return "".join("%013x\n" % int(w) for w in packed.words)


_HEX_WORD = re.compile("[0-9a-fA-F]{13}")


def parse_rom(text: str, vmin: float = 0.0, vmax: float = 0.0) -> PackedTree:
    """Read :func:`dump_rom`'s hex lines back, with the split-value range
    ``[vmin, vmax]`` that the words alone do not hold.  DataError unless the
    image is a tree that :func:`check_tree` accepts and the range is ordered
    and gives finite split values, so that every walk of it ends at a leaf."""
    # the largest split value, vmin + 255 * scale as _dequantize computes it,
    # must be finite too
    if not (vmin <= vmax and math.isfinite(vmin + 255 * ((vmax - vmin) / 255.0))):
        raise DataError(f"ROM split range [{vmin}, {vmax}] is not a finite, ordered range")
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if len(line) != 13:
            raise DataError(f"ROM line {lineno}: expected 13 hex digits")
        # int(line, 16) alone also takes a 0x prefix, a sign, underscores
        # and non-ASCII digits
        if not _HEX_WORD.fullmatch(line):
            raise DataError(f"ROM line {lineno}: invalid hex")
        word = int(line, 16)
        if word >> 49:
            raise DataError(f"ROM line {lineno}: word wider than 49 bits")
        words.append(word)
    if not words:
        raise DataError("empty ROM image")
    packed = PackedTree(words=np.asarray(words, dtype=np.uint64), vmin=vmin, vmax=vmax)
    try:
        check_tree(unpack(packed))
    except DataError as exc:
        raise DataError(f"ROM image: {exc}") from None
    return packed

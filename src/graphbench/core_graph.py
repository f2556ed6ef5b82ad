"""Graph representation, Laplacian algebra and symmetric spectral operations."""

from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

VARIANTS = ("raw", "sym_norm", "augmented", "augmented_sym_norm")

SYMMETRY_TOL = 1e-10


def check_integer(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer (a bool is not)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise a ValueError unless ``seed`` is an integer >= 0, a seed numpy's generators take."""
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_graph(g) -> None:
    """Raise a ValueError naming ``g`` unless it is a Graph."""
    if not isinstance(g, Graph):
        raise ValueError(f"g must be a Graph, got {type(g).__name__}")


def check_positive_finite(name: str, value) -> None:
    """Raise a ValueError naming ``name`` unless value is a finite real > 0 (a bool is not one)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # compared, not passed to math.isfinite, which overflows on an int beyond the float range
    if not (real and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def finite_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; a ValueError naming ``name`` when an entry is NaN or ±inf."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite entries")
    return values


def integer_array(name: str, values) -> np.ndarray:
    """``values`` as int64; a ValueError naming ``name`` and its first non-int64 value."""
    values = np.asarray(values)
    if values.dtype == object and all(isinstance(v, numbers.Integral) for v in values.flat):
        outside = [v for v in values.flat if not -(2**63) <= v < 2**63]  # numpy's object ints
    elif values.dtype.kind == "f":
        bad = values[~np.isfinite(values) | (values != np.floor(values))]
        if bad.size:
            raise ValueError(f"{name} must be integers, got {bad[0]}")
        outside = values[(values < -(2.0**63)) | (values >= 2.0**63)]
    elif values.dtype.kind in "biu":
        outside = values[values > np.iinfo(np.int64).max]
    else:
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    if len(outside):
        raise ValueError(f"{name} must lie within int64, got {outside[0]}")
    return values.astype(int)


class IsolatedVertexWarning(UserWarning):
    """Raised when symmetric normalization meets a degree-zero vertex."""


EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


@dataclass
class Graph:
    """Sparse symmetric weighted graph.

    ``edges`` is a NumPy structured array of ``EDGE_DTYPE``: one record per
    undirected edge, with fields ``i``, ``j`` (int64, 0 <= i < j < n) and
    ``w`` (float64, finite and > 0). The constructor accepts that array, or
    (i, j, w) triples as a list of tuples or lists or an (m, 3) array, and
    keeps the given order; records unpack as ``for i, j, w in g.edges``.
    Self-loop weights live in ``diagonal`` (finite and >= 0; all zeros
    unless augmented).
    """

    n: int
    edges: np.ndarray = field(default_factory=list)
    diagonal: np.ndarray = None
    variant: str = "raw"

    def __post_init__(self):
        check_integer("n", self.n)
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.diagonal is None:
            self.diagonal = np.zeros(self.n)
        self.diagonal = np.asarray(self.diagonal, dtype=float)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.diagonal.shape != (self.n,):
            raise ValueError("diagonal length must equal vertex count")
        if not np.all(np.isfinite(self.diagonal) & (self.diagonal >= 0)):
            raise ValueError("self-loop weights must be finite and >= 0")
        if not (isinstance(self.edges, np.ndarray) and self.edges.dtype == EDGE_DTYPE):
            # read once as floats: an int64 cast would truncate an index of 0.7 to 0
            try:
                triples = np.asarray(self.edges, dtype=float)
            except (TypeError, ValueError):
                raise ValueError("edges must be (i, j, w) triples") from None
            triples = triples.reshape(0, 3) if triples.size == 0 else triples
            if triples.ndim != 2 or triples.shape[1] != 3:
                raise ValueError("edges must be (i, j, w) triples")
            index = integer_array("edge indices", triples[:, :2])
            self.edges = np.empty(len(triples), dtype=EDGE_DTYPE)
            self.edges["i"], self.edges["j"], self.edges["w"] = *index.T, triples[:, 2]
        else:
            self.edges = np.array(self.edges)
        if self.edges.ndim != 1:
            raise ValueError("edges must be (i, j, w) triples")
        i, j, w = _columns(self.edges)
        duplicate = np.ones(i.size, dtype=bool)
        duplicate[np.unique(i * self.n + j, return_index=True)[1]] = False
        for bad, rule in (
            (~((0 <= i) & (i < j) & (j < self.n)), "need 0 <= i < j < n"),
            (~((w > 0) & np.isfinite(w)), "weight must be finite and positive"),
            (duplicate, "duplicate edge"),
        ):
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"bad edge ({i[k]}, {j[k]}, {w[k]}): {rule}")
        if self.variant in ("raw", "sym_norm") and np.any(self.diagonal != 0):
            raise ValueError(f"variant {self.variant!r} forbids self-loops")

    @property
    def n_edges(self) -> int:
        return self.edges.size

    def to_sparse(self) -> sparse.csr_matrix:
        """Adjacency matrix in CSR form, diagonal entries stored explicitly."""
        return _symmetric_csr(self.n, *_columns(self.edges), self.diagonal)

    def neighbor_counts(self) -> np.ndarray:
        """Number of incident edges per vertex (self-loops excluded)."""
        i, j, _ = _columns(self.edges)
        return np.bincount(np.concatenate([i, j]), minlength=self.n)


def _columns(edges: np.ndarray):
    return edges["i"], edges["j"], edges["w"]


def _symmetric_csr(n: int, i, j, w, diagonal) -> sparse.csr_matrix:
    """n x n CSR matrix with w at (i, j) and (j, i) and every diagonal entry stored.

    The pairs i < j are distinct, so each entry is set once and none is summed.
    """
    v = np.arange(n)
    rows, cols = np.concatenate([i, j, v]), np.concatenate([j, i, v])
    return sparse.csr_matrix((np.concatenate([w, w, diagonal]), (rows, cols)), shape=(n, n))


def from_arrays(n: int, i, j, w, diagonal=None, variant: str = "raw") -> Graph:
    """Build a Graph from parallel arrays of edge endpoints (i < j) and weights."""
    edges = np.empty(len(w), dtype=EDGE_DTYPE)
    edges["i"], edges["j"], edges["w"] = integer_array("i", i), integer_array("j", j), w
    return Graph(n, edges, diagonal, variant)


def from_dense(A: np.ndarray, threshold: float = 0.0) -> Graph:
    """Build a raw Graph from a dense symmetric matrix, dropping weights <= threshold."""
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    A = finite_array("adjacency", A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("adjacency must be square")
    if np.max(np.abs(A - A.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("adjacency must be symmetric")
    i, j = np.nonzero(np.triu(A > threshold, k=1))
    return from_arrays(n, i, j, A[i, j], np.diag(A).copy())


def _add_edge_weights(d: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Add each edge's weight to d at both its ends, in place; returns d."""
    # one addition per endpoint, in edge order, so sums match a plain loop bit for bit
    i, j, w = _columns(edges)
    np.add.at(d, np.stack([i, j], axis=1).ravel(), np.repeat(w, 2))
    return d


def degrees(g: Graph) -> np.ndarray:
    """Per-vertex weighted degree: incident edge weights plus self-loop weight."""
    return _add_edge_weights(g.diagonal.copy(), g.edges)


def normalize(g: Graph, target_variant: str) -> Graph:
    """Produce the requested adjacency variant from a raw graph.

    ``augmented`` adds unit self-loops before any normalization; the
    ``*sym_norm`` variants rescale weight (i, j) by 1/sqrt(d_i * d_j) using
    degrees of the matrix being normalized. Degree-zero vertices keep a zero
    row and trigger an IsolatedVertexWarning.
    """
    check_graph(g)
    if g.variant != "raw":
        raise ValueError("normalize expects a raw-variant graph")
    if target_variant not in VARIANTS:
        raise ValueError(f"unknown variant {target_variant!r}")

    if target_variant == "raw":
        return Graph(g.n, g.edges, g.diagonal.copy(), "raw")
    if target_variant.startswith("augmented"):
        g = Graph(g.n, g.edges, g.diagonal + 1.0, "augmented")
        if target_variant == "augmented":
            return g

    d = degrees(g)
    isolated = d <= 0
    if np.any(isolated):
        warnings.warn(
            f"{int(isolated.sum())} isolated vertex rows left zero under "
            "symmetric normalization",
            IsolatedVertexWarning,
        )
    inv_sqrt = np.zeros_like(d)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(d[~isolated])
    # an isolated vertex has no edges, so every edge keeps a positive weight
    i, j, w = _columns(g.edges)
    return from_arrays(
        g.n, i, j, w * inv_sqrt[i] * inv_sqrt[j], g.diagonal * inv_sqrt**2, target_variant
    )


def laplacian(g: Graph) -> sparse.csr_matrix:
    """Combinatorial Laplacian L = D - W of the edges between distinct vertices, in CSR form.

    Self-loops cancel in D - W, so they are left out: an augmented graph has
    its raw graph's L, bit for bit. Each entry is set once, so ``.toarray()``
    equals the dense D - W bit for bit.
    """
    i, j, w = _columns(g.edges)
    return _symmetric_csr(g.n, i, j, -w, _add_edge_weights(np.zeros(g.n), g.edges))


def eigendecompose(A, lowest: int | None = None) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Symmetric eigendecomposition of a square scipy.sparse operator, block by block.

    Returns one (vertices, eigenvalues, eigenvectors) triple per connected block
    of the off-diagonal pattern, in the order of each block's lowest vertex: the
    block's ``lowest`` pairs, or all, eigenvalues ascending and eigenvectors as
    columns on the block's vertices alone. The blocks' spectra together are the
    operator's, so no copy of an eigenvalue repeated across blocks (a
    disconnected Laplacian's zero) is missed; a caller that needs one global
    order merges them. A block within the Lanczos basis, max(5 lowest, 20)
    vectors, gets np.linalg.eigh; a larger block B gets ARPACK's implicitly
    restarted Lanczos on c I - B, with c, B's largest absolute row sum,
    bounding its spectrum, and a fixed start vector. A solve that does not
    converge raises ArpackNoConvergence.
    """
    if lowest is not None:
        check_integer("lowest", lowest)
        if lowest < 1:
            raise ValueError(f"lowest must be >= 1, got {lowest}")
    if not sparse.issparse(A):
        raise ValueError(f"A must be a scipy.sparse operator, got {type(A).__name__}")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be square")
    A = sparse.csr_matrix(A, dtype=float)
    n = A.shape[0]
    lowest = n if lowest is None else min(lowest, n)
    finite_array("operator", A.data)
    if np.max(np.abs((A - A.T).data), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("operator must be symmetric")
    block = _block_labels(A)
    # scipy's default basis, max(2 lowest + 1, 20), restarts more often: on the
    # Cora-shaped Laplacians of the ucv benchmark (lowest = 9) it needed ~2x the matvecs
    basis = max(5 * lowest, 20)
    blocks = []
    sizes = np.unique(block, return_counts=True)[1]
    # split after every block, so the last piece is empty (and the only one when n = 0)
    for idx in np.split(np.argsort(block, kind="stable"), np.cumsum(sizes))[:-1]:
        B = A[idx][:, idx] if idx.size < n else A  # one block holds every vertex in order
        if basis >= idx.size:
            w, V = np.linalg.eigh(B.toarray())
        else:
            # imported here: scipy.sparse.linalg adds ~0.1 s to `import graphbench`
            from scipy.sparse.linalg import eigsh

            c = float(abs(B).sum(axis=1).max())
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, idx.size)
            shifted = c * sparse.identity(idx.size) - B
            mu, V = eigsh(shifted, lowest, which="LA", ncv=basis, tol=1e-12, v0=v0)
            w, V = c - mu[::-1], V[:, ::-1]  # eigsh's mu ascend
        blocks.append((idx, w[:lowest], V[:, :lowest]))
    return blocks


def matrix_exponential(A) -> np.ndarray:
    """exp(A) for symmetric A, each connected block B shifted: e^(-lambda_max(B)) exp(B).

    A is a square scipy.sparse operator, as eigendecompose reads; the result is
    dense, each block's exponential built from its own pairs. Each block's
    spectral norm is 1, so the result stays finite where exp(A) overflows
    (lambda_max above ~709), a light block keeps its weights next to a heavy
    one, and the factor, constant on each block, moves no vertex's class in
    propagate_labels. Spectral weights below the smallest normal float are
    flushed to zero: next to their block's top weight 1 they add nothing, and
    subnormal operands made the product ~100x slower (n=1000, lambda_max 723).
    """
    blocks = eigendecompose(A)
    E = np.zeros(A.shape)
    for idx, vals, F in blocks:
        weights = np.exp(vals - vals[-1])
        weights[weights < np.finfo(float).tiny] = 0.0
        E[np.ix_(idx, idx)] = (F * weights) @ F.T
    return (E + E.T) / 2.0


def connected_components(g: Graph) -> np.ndarray:
    """Each vertex's connected component, named by the lowest vertex index in it."""
    i, j, _ = _columns(g.edges)
    return _min_labels(g.n, i, j)


def _block_labels(A: sparse.csr_matrix) -> np.ndarray:
    """Each row's connected block of symmetric A's off-diagonal pattern, read from one triangle."""
    i, j = A.nonzero()
    upper = i < j
    return _min_labels(A.shape[0], i[upper], j[upper])


def _min_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each of n vertices' connected component under the pairs (i, j), named by its lowest vertex.

    Min-label propagation with pointer jumping: importing scipy.sparse.csgraph
    instead would cost each process ~0.08 s and ~8 MB.
    """
    comp = np.arange(n)
    while True:
        prev = comp.copy()
        np.minimum.at(comp, i, comp[j])
        np.minimum.at(comp, j, comp[i])
        while not np.array_equal(comp, comp[comp]):  # jump until every label is a root
            comp = comp[comp]
        if np.array_equal(comp, prev):
            return comp


def write_graph(g: Graph, path) -> None:
    """Serialize a graph: header `#n=<n> variant=<variant>`, then `i<TAB>j<TAB>w` lines."""
    with open(path, "w") as fh:
        fh.write(f"#n={g.n} variant={g.variant}\n")
        for i in range(g.n):
            if g.diagonal[i] != 0:
                fh.write(f"{i}\t{i}\t{float(g.diagonal[i])!r}\n")
        for i, j, w in g.edges.tolist():
            fh.write(f"{i}\t{j}\t{w!r}\n")


def read_graph(path) -> Graph:
    """Parse a graph file written by write_graph; malformed input raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing graph header line")
        fields = {}
        for key, _, value in (part.partition("=") for part in header[1:].split()):
            if key not in ("n", "variant"):
                raise ValueError(f"line 1: unknown header key {key!r}")
            if key in fields:
                raise ValueError(f"line 1: header key {key!r} repeats")
            fields[key] = value
        if not fields.get("n", "").isdecimal():  # int() rejects digits like "²"
            raise ValueError("line 1: header needs n=<vertex count>")
        n = int(fields["n"])
        variant = fields.get("variant", "raw")
        if variant not in VARIANTS:
            raise ValueError(f"line 1: unknown variant {variant!r}")
        diagonal = np.zeros(n)
        edges = []
        first_line = {}  # vertex pair -> line that gave it
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected i<TAB>j<TAB>w")
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"line {lineno}: vertex index outside 0..{n - 1}")
            if not np.isfinite(w):
                raise ValueError(f"line {lineno}: non-finite weight {w}")
            if i != j and w <= 0:
                raise ValueError(f"line {lineno}: edge weight {w} must be positive")
            if i == j and w < 0:
                raise ValueError(f"line {lineno}: self-loop weight {w} must be >= 0")
            if i == j and w != 0 and variant in ("raw", "sym_norm"):
                raise ValueError(f"line {lineno}: variant {variant!r} forbids self-loops")
            if i > j:
                raise ValueError(f"line {lineno}: edges must satisfy i < j")
            if (i, j) in first_line:
                raise ValueError(
                    f"line {lineno}: vertex pair ({i}, {j}) repeats line {first_line[i, j]}"
                )
            first_line[i, j] = lineno
            if i == j:
                diagonal[i] = w
            else:
                edges.append((i, j, w))
    return Graph(n=n, edges=edges, diagonal=diagonal, variant=variant)

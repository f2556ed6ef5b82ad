"""Graph representation, Laplacian algebra and symmetric spectral operations."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

VARIANTS = ("raw", "sym_norm", "augmented", "augmented_sym_norm")

SYMMETRY_TOL = 1e-10


class IsolatedVertexWarning(UserWarning):
    """Raised when symmetric normalization meets a degree-zero vertex."""


EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


@dataclass
class Graph:
    """Sparse symmetric weighted graph.

    ``edges`` is a NumPy structured array of ``EDGE_DTYPE``: one record per
    undirected edge, with fields ``i``, ``j`` (int64, 0 <= i < j < n) and
    ``w`` (float64, finite and > 0). The constructor accepts that array or
    a list of (i, j, w) tuples and keeps the given order; records
    unpack as ``for i, j, w in g.edges``. Self-loop weights live in
    ``diagonal`` (finite and >= 0; all zeros unless augmented).
    """

    n: int
    edges: np.ndarray = field(default_factory=list)
    diagonal: np.ndarray = None
    variant: str = "raw"

    def __post_init__(self):
        if self.diagonal is None:
            self.diagonal = np.zeros(self.n)
        self.diagonal = np.asarray(self.diagonal, dtype=float)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.diagonal.shape != (self.n,):
            raise ValueError("diagonal length must equal vertex count")
        if not np.all(np.isfinite(self.diagonal) & (self.diagonal >= 0)):
            raise ValueError("self-loop weights must be finite and >= 0")
        self.edges = np.array(self.edges, dtype=EDGE_DTYPE)
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
    edges["i"], edges["j"], edges["w"] = i, j, w
    return Graph(n, edges, diagonal, variant)


def from_dense(A: np.ndarray, threshold: float = 0.0) -> Graph:
    """Build a raw Graph from a dense symmetric matrix, dropping weights <= threshold."""
    A = np.asarray(A, dtype=float)
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


def eigendecompose(A, lowest: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition of a dense or scipy.sparse operator.

    Returns (eigenvalues ascending, eigenvectors as columns). Without
    ``lowest``, or with ``lowest`` >= the dimension, np.linalg.eigh
    decomposes the dense form. Otherwise the pairs 0..lowest-1 come from
    each connected block of the off-diagonal pattern, so no copy of an
    eigenvalue repeated across blocks (a disconnected Laplacian's zero) is
    missed. A block within the Lanczos basis, max(5 lowest, 20) vectors,
    gets np.linalg.eigh; a larger block B gets ARPACK's implicitly restarted
    Lanczos on c I - B, with c, B's largest absolute row sum, bounding its
    spectrum, and a fixed start vector. A solve that does not converge
    raises ArpackNoConvergence. The blocks' pairs are merged by a stable
    sort, each eigenvector zero outside its block.
    """
    if lowest is not None and lowest < 1:
        raise ValueError(f"lowest must be >= 1, got {lowest}")
    A = sparse.csr_matrix(A, dtype=float) if sparse.issparse(A) else np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be square")
    full = lowest is None or lowest >= A.shape[0]
    if full and sparse.issparse(A):
        A = A.toarray()  # checked in the dense form, which eigh needs anyway
    entries = (lambda M: M.data) if sparse.issparse(A) else (lambda M: M)
    if not np.isfinite(entries(A)).all():
        raise ValueError("operator has non-finite entries")
    if np.max(np.abs(entries(A - A.T)), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("operator must be symmetric")
    if full:
        return np.linalg.eigh(A)
    n = A.shape[0]
    A = sparse.csr_matrix(A)
    block = _min_labels(n, *A.nonzero())
    # scipy's default basis, max(2 lowest + 1, 20), restarts more often: on the
    # Cora-shaped Laplacians of the ucv benchmark (lowest = 9) it needed ~2x the matvecs
    basis = max(5 * lowest, 20)
    pairs = []  # (eigenvalue, block's vertices, eigenvector on the block)
    sizes = np.unique(block, return_counts=True)[1]
    for idx in np.split(np.argsort(block, kind="stable"), np.cumsum(sizes)[:-1]):
        B = A[idx][:, idx]
        if basis >= idx.size:
            w, V = np.linalg.eigh(B.toarray())
        else:
            # imported here: scipy.sparse.linalg adds ~0.1 s to `import graphbench`
            from scipy.sparse.linalg import eigsh

            c = float(abs(B).sum(axis=1).max())
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, idx.size)
            shifted = c * sparse.identity(idx.size) - B
            mu, V = eigsh(shifted, lowest, which="LA", ncv=basis, tol=1e-12, v0=v0)
            w = c - mu
        pairs += [(w[r], idx, V[:, r]) for r in range(min(lowest, w.size))]
    pairs = sorted(pairs, key=lambda pair: pair[0])[:lowest]
    vecs = np.zeros((n, lowest))
    for r, (_, idx, v) in enumerate(pairs):
        vecs[idx, r] = v
    return np.array([pair[0] for pair in pairs]), vecs


def matrix_exponential(A: np.ndarray) -> np.ndarray:
    """exp(A - lambda_max I) = e^(-lambda_max) exp(A) for symmetric A, via spectral calculus.

    lambda_max is the largest eigenvalue of the same decomposition. The
    spectral norm is 1, so the result stays finite where exp(A) overflows
    (lambda_max above ~709), and the positive factor moves no row's argmax.
    Spectral weights below the smallest normal float are flushed to zero:
    next to the top weight 1 they add nothing, and subnormal operands made
    the product ~100x slower (n=1000, lambda_max 723).
    """
    vals, F = eigendecompose(A)
    weights = np.exp(vals - vals[-1])
    weights[weights < np.finfo(float).tiny] = 0.0
    E = (F * weights) @ F.T
    return (E + E.T) / 2.0


def connected_components(g: Graph) -> np.ndarray:
    """Each vertex's connected component, named by the lowest vertex index in it."""
    i, j, _ = _columns(g.edges)
    return _min_labels(g.n, i, j)


def _min_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each of n vertices' connected component under the pairs (i, j), named by its lowest vertex.

    Min-label propagation with pointer jumping: importing scipy.sparse.csgraph
    instead would cost each process ~0.08 s and ~8 MB.
    """
    comp = np.arange(n)
    while True:
        prev, comp = comp, comp.copy()
        np.minimum.at(comp, i, prev[j])
        np.minimum.at(comp, j, prev[i])
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

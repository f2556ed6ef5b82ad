"""Graph topology inference toolkit and downstream-task benchmark harness."""

from .core_graph import (
    Graph,
    connected_components,
    degrees,
    eigendecompose,
    from_arrays,
    from_dense,
    laplacian,
    matrix_exponential,
    normalize,
    read_graph,
    write_graph,
)
from .inference import (
    knn_select,
    nnk_graph,
    nnls_solve,
    similarity_matrix,
    smooth_graph,
)
from .metrics import accuracy, add_noise_to_snr, ami, snr_db
from .tasks import (
    best_tau_denoise,
    denoise,
    discretize,
    kmeans,
    propagate_labels,
    sgc_predict,
    simoncelli_response,
    spectral_cluster,
    spectral_embed,
)

__version__ = "0.1.0"

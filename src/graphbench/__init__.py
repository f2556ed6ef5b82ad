"""Graph topology inference toolkit and downstream-task benchmark harness."""

from .core_graph import (
    Graph,
    SpectralDecomposition,
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
    NaiveConfig,
    NnkConfig,
    SmoothConfig,
    knn_select,
    naive_graph,
    nnk_graph,
    nnls_solve,
    smooth_graph,
)
from .metrics import accuracy, add_noise_to_snr, ami, mse, snr_db
from .tasks import (
    Partition,
    SemiSupervisedLabels,
    SgcParams,
    best_tau_denoise,
    denoise,
    discretize,
    kmeans,
    label_propagate,
    propagate_labels,
    sgc_fit_predict,
    sgc_predict,
    simoncelli_response,
    spectral_cluster,
    spectral_embed,
)

__version__ = "0.1.0"

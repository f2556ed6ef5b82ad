"""Seeded synthetic dataset bundles with the paper's shapes.

Each generator writes a dataset directory in the format the graphbench
README documents (``features.txt``, ``labels.txt``, ``signal.txt``,
``noisy.txt``, ``graph.tsv``, ``meta.txt``). It uses numpy only, never
graphbench, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Cora's class sizes (2708 papers, 7 classes), used as proportions.
CORA_CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
# The class topics and the smooth field are fixed; the seed draws the
# documents, the vertex positions and the noise. Scores then vary less from
# seed to seed, so a changed result stands out.
TOPIC_SEED = 0
FIELD_SEED = 0
OBSERVATION_SNR_DB = 10.0


def _write_meta(root: Path, name: str, seed: int, C: int | None = None) -> None:
    lines = [f"name={name}", f"seed={seed}"]
    if C is not None:
        lines.append(f"C={C}")
    (root / "meta.txt").write_text("\n".join(lines) + "\n")


def cora_like(root, seed: int, n: int, F: int, words_per_doc: float, topic_frac: float) -> Path:
    """Bag-of-words citation bundle: n documents, F binary word features, 7 classes.

    Every class owns a topic, a skewed distribution over its own random word
    subset. A document draws about ``words_per_doc`` distinct words; each
    draw comes from its class topic with probability ``topic_frac`` and from
    a corpus-wide Zipf background otherwise. ``topic_frac`` sets how much
    class signal the features carry.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    C = len(CORA_CLASS_SIZES)
    sizes = np.floor(np.array(CORA_CLASS_SIZES) * n / sum(CORA_CLASS_SIZES)).astype(int)
    sizes[0] += n - sizes.sum()
    labels = rng.permutation(np.repeat(np.arange(C), sizes))

    topic_rng = np.random.default_rng(TOPIC_SEED)
    background = 1.0 / np.arange(1, F + 1) ** 0.8
    background = topic_rng.permutation(background / background.sum())
    topic_words = F // 8
    topics = np.zeros((C, F))
    for c in range(C):
        words = topic_rng.choice(F, size=topic_words, replace=False)
        weights = 1.0 / np.arange(1, topic_words + 1) ** 0.5
        topics[c, words] = weights / weights.sum()

    X = np.zeros((n, F), dtype=np.int8)
    lengths = np.maximum(rng.poisson(words_per_doc, size=n), 3)
    for i in range(n):
        from_topic = rng.random(lengths[i]) < topic_frac
        n_topic = int(from_topic.sum())
        X[i, rng.choice(F, size=n_topic, p=topics[labels[i]])] = 1
        X[i, rng.choice(F, size=lengths[i] - n_topic, p=background)] = 1

    np.savetxt(root / "features.txt", X, fmt="%d")
    np.savetxt(root / "labels.txt", labels, fmt="%d")
    _write_meta(root, f"cora-like-{n}", seed, C)
    return root


def _add_noise(clean: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Clean signal plus centred Gaussian noise scaled to exactly ``snr_db``."""
    noise = rng.standard_normal(clean.size)
    noise -= noise.mean()
    noise *= math.sqrt(float(clean @ clean) / 10.0 ** (snr_db / 10.0) / float(noise @ noise))
    return clean + noise


def road_like(
    root, seed: int, n: int, mean_degree: float, smoothness: float, geometry_seed=None
) -> Path:
    """Road-network denoising bundle: a geometric graph and a smooth signal on it.

    Vertices sit on a jittered square lattice, filled row by row like a
    street grid, and are joined when closer than the radius that gives
    ``mean_degree`` at uniform density; that graph is the reference
    ``graph.tsv``, with unit weights. The clean signal samples a fixed smooth
    field, ``sum_m a_m cos(2 pi f_m . p + phi_m)`` with ``|f_m| <=
    smoothness``, centred and scaled to unit variance. ``noisy.txt`` adds
    Gaussian noise at exactly 7 dB input SNR. The single observation row in
    ``features.txt``, from which graphs are inferred, is a second,
    independent noisy reading at ``OBSERVATION_SNR_DB``.

    With ``geometry_seed`` set, jitter and noise come from it and ``seed``
    only permutes the vertex labels.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed if geometry_seed is None else geometry_seed, 2])
    side = math.ceil(math.sqrt(n))
    cells = np.arange(n)
    lattice = np.column_stack([cells % side, cells // side]) + 0.5
    P = (lattice + rng.uniform(-0.3, 0.3, size=(n, 2))) / side
    radius = math.sqrt(mean_degree / (math.pi * (n - 1)))
    D2 = np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=2)
    iu, ju = np.triu_indices(n, k=1)
    keep = D2[iu, ju] < radius * radius
    edges = np.column_stack([iu[keep], ju[keep]])

    field_rng = np.random.default_rng(FIELD_SEED)
    n_waves = 12
    freqs = field_rng.normal(size=(n_waves, 2))
    freqs *= (smoothness * field_rng.random(n_waves) / np.linalg.norm(freqs, axis=1))[:, None]
    phases = field_rng.uniform(0, 2 * math.pi, n_waves)
    amps = field_rng.normal(size=n_waves)
    clean = np.cos(2 * math.pi * P @ freqs.T + phases) @ amps
    clean = (clean - clean.mean()) / clean.std()
    noisy = _add_noise(clean, 7.0, rng)
    observed = _add_noise(clean, OBSERVATION_SNR_DB, rng)
    if geometry_seed is not None:
        perm = np.random.default_rng([seed, 3]).permutation(n)  # new v is old perm[v]
        clean, noisy, observed = clean[perm], noisy[perm], observed[perm]
        edges = np.sort(np.argsort(perm)[edges], axis=1)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    np.savetxt(root / "signal.txt", clean, fmt="%.17g")
    np.savetxt(root / "noisy.txt", noisy, fmt="%.17g")
    np.savetxt(root / "features.txt", observed[None, :], fmt="%.17g")
    with open(root / "graph.tsv", "w") as fh:
        fh.write(f"#n={n} variant=raw\n")
        for i, j in edges:
            fh.write(f"{i}\t{j}\t1.0\n")
    _write_meta(root, f"road-like-{n}", seed)
    return root

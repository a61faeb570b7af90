"""Vector, product, optimized-product, additive and score-aware quantizers.

All trainers are seeded and deterministic. Codebooks store float32
codewords; distance tables and objectives accumulate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from annkit.core import Collection
from annkit.ivf import KMeansKind, _assign, _lloyd, _lloyd_means, _sq_dists, _sq_norms, kmeans_train

__all__ = [
    "VqModel",
    "PqCodebook",
    "OpqModel",
    "AqCodebook",
    "AqCode",
    "vq_train",
    "vq_encode",
    "vq_decode",
    "pq_train",
    "pq_encode",
    "pq_decode",
    "pq_adc",
    "adc_offsets",
    "pq_adc_scan",
    "opq_train",
    "aq_train",
    "aq_encode",
    "aq_decode",
    "aq_adc",
    "aq_adc_scan",
    "residual_decompose",
    "score_aware_weight",
    "score_aware_vq_train",
    "reconstruction_mse",
]


# ---------------------------------------------------------------------------
# vector quantization


@dataclass
class VqModel:
    centroids: np.ndarray  # (C, d) float32


def vq_train(X: Collection, C: int, seed: int = 0, max_iters: int = 50) -> VqModel:
    model = kmeans_train(X, C, KMeansKind.EUCLIDEAN, max_iters=max_iters, seed=seed)
    return VqModel(centroids=model.centroids)


def vq_encode(model: VqModel, u: np.ndarray) -> int:
    return int(_assign(np.asarray(u, dtype=np.float64)[None, :],
                       model.centroids.astype(np.float64), KMeansKind.EUCLIDEAN)[0])


def vq_decode(model: VqModel, code: int) -> np.ndarray:
    return model.centroids[code]


# ---------------------------------------------------------------------------
# product quantization


@dataclass
class PqCodebook:
    codewords: np.ndarray  # (L, C, d_sub) float32, contiguous chunks

    @property
    def n_subspaces(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_codewords(self) -> int:
        return self.codewords.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.codewords.shape[2]


def pq_train(X: Collection, L: int, C: int, seed: int = 0, max_iters: int = 50) -> PqCodebook:
    """L independent KMeans problems, one per contiguous chunk."""
    d = X.dim
    if d % L != 0:
        raise ValueError(f"d={d} not divisible by L={L}")
    d_sub = d // L
    books = []
    for i in range(L):
        chunk = Collection(np.ascontiguousarray(X.vectors[:, i * d_sub:(i + 1) * d_sub]))
        centroids, _ = _lloyd(chunk, C, KMeansKind.EUCLIDEAN, max_iters, seed * 7919 + i)
        books.append(centroids.astype(np.float32))
    return PqCodebook(codewords=np.stack(books))


def pq_encode(cb: PqCodebook, u: np.ndarray) -> np.ndarray:
    u64 = np.asarray(u, dtype=np.float64)
    d_sub = cb.sub_dim
    code = np.empty(cb.n_subspaces, dtype=np.int64)
    for i in range(cb.n_subspaces):
        chunk = u64[i * d_sub:(i + 1) * d_sub][None, :]
        code[i] = _assign(chunk, cb.codewords[i].astype(np.float64), KMeansKind.EUCLIDEAN)[0]
    return code


def pq_encode_all(cb: PqCodebook, X: Collection) -> np.ndarray:
    mat = X.vectors.astype(np.float64)
    d_sub = cb.sub_dim
    codes = np.empty((len(X), cb.n_subspaces), dtype=np.int64)
    for i in range(cb.n_subspaces):
        codes[:, i] = _assign(mat[:, i * d_sub:(i + 1) * d_sub],
                              cb.codewords[i].astype(np.float64), KMeansKind.EUCLIDEAN)
    return codes


def pq_decode(cb: PqCodebook, code: np.ndarray) -> np.ndarray:
    return np.concatenate([cb.codewords[i, int(code[i])] for i in range(cb.n_subspaces)])


def pq_adc(cb: PqCodebook, q: np.ndarray) -> np.ndarray:
    """(L, C) table of squared chunk distances for one query."""
    chunks = np.asarray(q, dtype=np.float64).reshape(cb.n_subspaces, 1, cb.sub_dim)
    diff = cb.codewords.astype(np.float64) - chunks
    return np.einsum("lcj,lcj->lc", diff, diff)


def adc_offsets(codes: np.ndarray, n_codewords: int) -> np.ndarray:
    """Flat positions of an (m, L) code array in a raveled (L, C) table:
    entry [n, i] becomes ``codes[n, i] + i * C``. Compute once per encoded
    collection and reuse for every query."""
    codes = np.asarray(codes)
    return (codes + np.arange(codes.shape[1]) * n_codewords).astype(np.intp)


def pq_adc_scan(tables: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Asymmetric distances of every encoded row: per row, the sum of its
    L table entries, equal to the exact squared distance between the raw
    query and the decoded code. One gather and one row sum; each row is
    summed in the same order as a per-row lookup, so the scores are
    bit-identical to it."""
    return tables.ravel().take(offsets).sum(axis=1)


# ---------------------------------------------------------------------------
# optimized product quantization


@dataclass
class OpqModel:
    rotation: np.ndarray  # (d, d) float32 orthogonal
    codebook: PqCodebook
    objective_trace: Optional[list] = None


def _procrustes_rotation(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Orthogonal R minimizing ||R @ source - target||_F (polar factor)."""
    m_matrix = target @ source.T
    w, _, vt = np.linalg.svd(m_matrix)
    return w @ vt


def opq_train(X: Collection, L: int, C: int, iters: int, seed: int = 0,
              kmeans_iters: int = 10) -> OpqModel:
    """Alternate PQ fitting on rotated data with the closed-form rotation
    update. The rotation starts at identity, codebooks warm-start between
    iterations, and the shared objective ||R u - decode(code)||^2 never
    increases across outer iterations."""
    d = X.dim
    if d % L != 0:
        raise ValueError(f"d={d} not divisible by L={L}")
    rotation = np.eye(d)
    mat = X.vectors.astype(np.float64)
    codebook = pq_train(X, L, C, seed=seed, max_iters=kmeans_iters)
    trace = []

    rotated = mat @ rotation.T
    for _ in range(iters):
        codes = pq_encode_all(codebook, Collection(rotated.astype(np.float32)))
        # codeword update: per-chunk means under the fixed assignment
        d_sub = d // L
        new_books = codebook.codewords.astype(np.float64)
        for i in range(L):
            chunk = rotated[:, i * d_sub:(i + 1) * d_sub]
            new_books[i] = _lloyd_means(chunk, codes[:, i], new_books[i])[0]
        codebook = PqCodebook(codewords=new_books.astype(np.float32))
        recon = _pq_reconstruct(codebook, codes)
        rotation = _procrustes_rotation(recon.T, mat.T)
        rotated = mat @ rotation.T
        trace.append(float(np.sum((rotated - recon) ** 2)))

    return OpqModel(rotation=rotation.astype(np.float32), codebook=codebook,
                    objective_trace=trace)


def _pq_reconstruct(cb: PqCodebook, codes: np.ndarray) -> np.ndarray:
    words = cb.codewords.astype(np.float64)
    return words[np.arange(cb.n_subspaces), codes].reshape(codes.shape[0], -1)


# ---------------------------------------------------------------------------
# additive quantization


@dataclass
class AqCodebook:
    codewords: np.ndarray  # (L, C, d) float32, full-dimension
    beam_width: int

    @property
    def n_codebooks(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_codewords(self) -> int:
        return self.codewords.shape[1]


@dataclass(frozen=True)
class AqCode:
    codes: np.ndarray  # (L,) int64, one codeword per codebook
    norm_sq: float  # stored ||u||^2, kept in full precision

    def __post_init__(self):
        if self.norm_sq < 0:
            raise ValueError("stored norm must be non-negative")


def aq_encode(cb: AqCodebook, u: np.ndarray, beam: Optional[int] = None) -> AqCode:
    """Beam search over codebook tuples: each round extends every partial
    tuple with its best codewords from every unused codebook and keeps the
    B lowest-error extensions."""
    B = cb.beam_width if beam is None else beam
    if B < 1:
        raise ValueError("beam width must be at least 1")
    u64 = np.asarray(u, dtype=np.float64)
    L, C = cb.n_codebooks, cb.n_codewords
    words = cb.codewords.astype(np.float64)

    # beam state: (error, used mask, codes tuple, residual)
    beam_state = [(float(u64 @ u64), 0, (), u64)]
    for _ in range(L):
        extensions = {}
        for err, used, codes, residual in beam_state:
            for i in range(L):
                if used & (1 << i):
                    continue
                diff = words[i] - residual
                errors = np.einsum("ij,ij->i", diff, diff)
                top = np.argsort(errors, kind="stable")[:B]
                for j in top:
                    new_codes = tuple(sorted(codes + ((i, int(j)),)))
                    if new_codes not in extensions:
                        extensions[new_codes] = (float(errors[j]), used | (1 << i),
                                                 residual - words[i, j])
        ranked = sorted(extensions.items(), key=lambda kv: (kv[1][0], kv[0]))[:B]
        beam_state = [(err, used, codes, res) for codes, (err, used, res) in ranked]

    best_err, _, best_codes, _ = min(beam_state, key=lambda s: (s[0], s[2]))
    codes = np.empty(L, dtype=np.int64)
    for i, j in best_codes:
        codes[i] = j
    return AqCode(codes=codes, norm_sq=float(u64 @ u64))


def aq_decode(cb: AqCodebook, code: AqCode) -> np.ndarray:
    words = cb.codewords.astype(np.float64)
    return np.sum(words[np.arange(cb.n_codebooks), code.codes], axis=0)


def _aq_refit_codewords(mat: np.ndarray, codes: np.ndarray, L: int, C: int) -> np.ndarray:
    """Least-squares codeword update for fixed assignments.

    The objective decomposes per output dimension; the shared normal matrix
    comes from the (L*C)-column indicator design."""
    m = mat.shape[0]
    cols = L * C
    indicator = np.zeros((m, cols))
    for i in range(L):
        indicator[np.arange(m), i * C + codes[:, i]] = 1.0
    gram = indicator.T @ indicator
    rhs = indicator.T @ mat
    solution, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return solution.reshape(L, C, mat.shape[1])


def aq_train(X: Collection, L: int, C: int, beam: int, iters: int, seed: int = 0) -> tuple:
    """Alternate beam encoding with the least-squares codeword refit.

    Encoding keeps a point's previous tuple whenever the fresh beam search
    fails to improve it, so the training error is non-increasing per outer
    iteration. Returns (codebook, codes array, error trace)."""
    rng = np.random.default_rng(seed)
    m = len(X)
    mat = X.vectors.astype(np.float64)
    # init: random data points scaled down, one codebook at a time
    words = mat[rng.choice(m, size=L * C, replace=m < L * C)].reshape(L, C, X.dim) / L
    cb = AqCodebook(codewords=words.astype(np.float32), beam_width=beam)

    codes = np.zeros((m, L), dtype=np.int64)
    prev_errors = np.full(m, np.inf)
    trace = []
    for _ in range(iters):
        words64 = cb.codewords.astype(np.float64)
        for n in range(m):
            candidate = aq_encode(cb, mat[n], beam)
            recon = np.sum(words64[np.arange(L), candidate.codes], axis=0)
            err = float(np.sum((mat[n] - recon) ** 2))
            old_recon = np.sum(words64[np.arange(L), codes[n]], axis=0)
            old_err = float(np.sum((mat[n] - old_recon) ** 2))
            if err < old_err:
                codes[n] = candidate.codes
                prev_errors[n] = err
            else:
                prev_errors[n] = old_err
        new_words = _aq_refit_codewords(mat, codes, L, C)
        cb = AqCodebook(codewords=new_words.astype(np.float32), beam_width=beam)
        words64 = cb.codewords.astype(np.float64)
        recon = np.zeros_like(mat)
        for i in range(L):
            recon += words64[i][codes[:, i]]
        trace.append(float(np.sum((mat - recon) ** 2)))
    return cb, codes, trace


def aq_adc(cb: AqCodebook, q: np.ndarray) -> np.ndarray:
    """(L, C) table of codeword inner products with the query."""
    q64 = np.asarray(q, dtype=np.float64)
    return np.einsum("lcd,d->lc", cb.codewords.astype(np.float64), q64)


def aq_adc_scan(cb: AqCodebook, q: np.ndarray, offsets: np.ndarray,
                norms: np.ndarray) -> np.ndarray:
    """``||q||^2 - 2 <q, reconstruction> + stored ||u||^2`` for every
    encoded row at once (only the inner product is approximate, the norm
    term is exact): ``offsets`` from :func:`adc_offsets` on the stacked
    codes, ``norms`` the stored ``norm_sq`` values. Bit-identical to the
    same sum one row at a time."""
    q64 = np.asarray(q, dtype=np.float64)
    ip = pq_adc_scan(aq_adc(cb, q), offsets)
    return float(q64 @ q64) - 2.0 * ip + norms


# ---------------------------------------------------------------------------
# score-aware quantization for inner product


def residual_decompose(u: np.ndarray, u_tilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the reconstruction residual into components parallel and
    orthogonal to the data point."""
    u64 = np.asarray(u, dtype=np.float64)
    t64 = np.asarray(u_tilde, dtype=np.float64)
    norm_sq = float(u64 @ u64)
    if norm_sq == 0.0:
        raise ValueError("residual decomposition undefined for zero vectors")
    r = u64 - t64
    r_par = (float(r @ u64) / norm_sq) * u64
    return r_par, r - r_par


def score_aware_weight(theta: float, t: float) -> float:
    """Relative weight of the parallel residual under an indicator weight
    at score threshold theta, for a point of norm t."""
    if not 0 <= theta < t:
        raise ValueError("need 0 <= theta < t")
    ratio_sq = (theta / t) ** 2
    return ratio_sq / (1.0 - ratio_sq)


def score_aware_vq_train(X: Collection, C: int, theta: float, iters: int = 25,
                         seed: int = 0) -> tuple[VqModel, np.ndarray, list]:
    """Modified Lloyd for the anisotropic objective
    eta * ||r_par||^2 + ||r_perp||^2 with eta = score_aware_weight.

    Points with norm <= theta can never clear the score threshold; the
    indicator weight makes their loss identically zero, so they are
    excluded from the objective and the centroid updates, and assigned by
    plain distance only for bookkeeping. The update step solves the
    weighted least squares exactly per cluster by accumulating each
    member's quadratic form. Returns (model, assignment, objective trace).
    """
    m = len(X)
    if not 1 <= C <= m:
        raise ValueError("need 1 <= C <= m")
    rng = np.random.default_rng(seed)
    mat = X.vectors.astype(np.float64)
    d = mat.shape[1]
    norms = np.linalg.norm(mat, axis=1)
    active = norms > theta
    etas = np.zeros(m)
    etas[active] = (theta / norms[active]) ** 2 / (1.0 - (theta / norms[active]) ** 2)
    units = np.zeros_like(mat)
    nz = norms > 0
    units[nz] = mat[nz] / norms[nz, None]

    sq_norms = _sq_norms(mat)
    along = np.einsum("ij,ij->i", mat, units)[:, None]  # <u, u_hat>

    def losses_to(centroids: np.ndarray) -> np.ndarray:
        # (m, C): anisotropic loss for active points, plain distance for the
        # zero-weight rest (their assignment never moves the objective)
        diff_sq = _sq_dists(mat, sq_norms, centroids)
        par = along - units @ centroids.T  # <u - c, u_hat>
        out = diff_sq + (etas[:, None] - 1.0) * par**2
        out[~active] = diff_sq[~active]
        return out

    def tracked_objective(losses, assign):
        per_point = losses[np.arange(m), assign]
        return float(per_point[active].sum())

    centroids = mat[rng.choice(m, size=C, replace=False)]
    losses = losses_to(centroids)
    assign = np.argmin(losses, axis=1)
    trace = [tracked_objective(losses, assign)]

    for _ in range(iters):
        new_centroids = centroids.copy()
        for c in range(C):
            members = np.flatnonzero((assign == c) & active)
            if not members.size:
                rest = np.flatnonzero(assign == c)
                if rest.size:  # weightless cluster: keep its centroid sane
                    new_centroids[c] = mat[rest].mean(axis=0)
                continue
            # sum of per-point quadratic forms M_u = I + (eta - 1) uhat uhat^T
            lhs = len(members) * np.eye(d)
            lhs += (units[members] * (etas[members] - 1.0)[:, None]).T @ units[members]
            rhs = mat[members].sum(axis=0)
            rhs += (units[members] * ((etas[members] - 1.0) *
                    np.einsum("ij,ij->i", units[members], mat[members]))[:, None]).sum(axis=0)
            # lstsq: theta=0 makes every eta zero and the normal matrix can
            # go singular on singleton clusters (flat along the point's ray)
            new_centroids[c] = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        # empty-cluster repair: re-seed at the costliest point of the largest cluster
        counts = np.bincount(assign, minlength=C)
        for c in np.flatnonzero(counts == 0):
            largest = int(np.argmax(counts))
            members = np.flatnonzero(assign == largest)
            member_losses = losses_to(new_centroids)[members, largest]
            worst = members[int(np.argmax(member_losses))]
            new_centroids[c] = mat[worst]
            assign[worst] = c
            counts = np.bincount(assign, minlength=C)
        centroids = new_centroids
        all_losses = losses_to(centroids)
        new_assign = np.argmin(all_losses, axis=1)
        trace.append(tracked_objective(all_losses, new_assign))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    model = VqModel(centroids=centroids.astype(np.float32))
    return model, assign.astype(np.int64), trace


def reconstruction_mse(X: Collection, reconstruct) -> float:
    """Mean squared reconstruction error of ``reconstruct(i) -> vector``."""
    mat = X.vectors.astype(np.float64)
    total = 0.0
    for i in range(len(X)):
        diff = mat[i] - np.asarray(reconstruct(i), dtype=np.float64)
        total += float(diff @ diff)
    return total / len(X)

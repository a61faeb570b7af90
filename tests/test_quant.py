import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annkit.core import Collection, DistanceKind, brute_force_topk
from annkit.quant import (
    PqCodebook,
    adc_offsets,
    aq_adc,
    aq_adc_scan,
    aq_decode,
    aq_encode,
    aq_train,
    opq_train,
    pq_adc,
    pq_adc_scan,
    pq_decode,
    pq_encode,
    pq_encode_all,
    pq_train,
    reconstruction_mse,
    residual_decompose,
    score_aware_vq_train,
    score_aware_weight,
    vq_decode,
    vq_encode,
    vq_train,
)
from quant_reference import aq_distance, pq_adc_distance


def rand_collection(m, d, seed):
    return Collection(np.random.default_rng(seed).standard_normal((m, d)).astype(np.float32))


def pq_adc_reference(cb: PqCodebook, q: np.ndarray) -> np.ndarray:
    """The ADC table one subspace at a time, each codebook widened on its
    pass: the loop that pq_adc's single broadcast replaced."""
    q64 = np.asarray(q, dtype=np.float64)
    d_sub = cb.sub_dim
    tables = np.empty((cb.n_subspaces, cb.n_codewords), dtype=np.float64)
    for i in range(cb.n_subspaces):
        diff = cb.codewords[i].astype(np.float64) - q64[i * d_sub:(i + 1) * d_sub]
        tables[i] = np.einsum("ij,ij->i", diff, diff)
    return tables


class TestVq:
    def test_seeded_centroid_bits_pinned(self):
        X = Collection(np.random.default_rng(61).standard_normal((1000, 16)).astype(np.float32))
        digest = hashlib.sha256(vq_train(X, 7, seed=2).centroids.tobytes()).hexdigest()
        assert digest == "43e3f8500ce911a082ae0ce0d78fb536f184ecdcd93bee4b9f753be0b1a51d74"

    def test_c_equals_m_zero_error(self):
        X = rand_collection(12, 4, 0)
        model = vq_train(X, 12, seed=1)
        mse = reconstruction_mse(X, lambda i: vq_decode(model, vq_encode(model, X.vectors[i])))
        assert mse == pytest.approx(0.0, abs=1e-9)

    def test_c_one_decodes_to_mean(self):
        X = rand_collection(30, 3, 2)
        model = vq_train(X, 1, seed=3)
        assert vq_encode(model, X.vectors[5]) == 0
        assert vq_decode(model, 0) == pytest.approx(X.vectors.mean(axis=0), abs=1e-5)

    def test_more_codewords_less_error(self):
        X = rand_collection(1000, 8, 4)
        mses = []
        for C in (16, 64):
            vals = []
            for seed in range(5):
                model = vq_train(X, C, seed=seed)
                vals.append(reconstruction_mse(
                    X, lambda i: vq_decode(model, vq_encode(model, X.vectors[i]))))
            mses.append(np.mean(vals))
        assert mses[0] >= mses[1]


class TestPq:
    def test_seeded_codeword_and_code_bits_pinned(self):
        """Lloyd's mean step and the assignment keep their arithmetic:
        seeded codewords and the codes of the training rows keep their bits."""
        X = Collection(np.random.default_rng(61).standard_normal((1000, 16)).astype(np.float32))
        cb = pq_train(X, 4, 16, seed=3, max_iters=20)
        assert (hashlib.sha256(cb.codewords.tobytes()).hexdigest()
                == "3f5c1b276ed2dc484b2e9b4224bb81aa629f26e99c95951026396cb75f1a4583")
        assert (hashlib.sha256(pq_encode_all(cb, X).tobytes()).hexdigest()
                == "1d2457d13172e0486647ae35e35b35befe2d6d7ba54a5d5fef1a08207d0cf29f")

    def test_indivisible_d_rejected(self):
        with pytest.raises(ValueError):
            pq_train(rand_collection(20, 7, 5), 2, 4)

    def test_code_length(self):
        X = rand_collection(50, 8, 6)
        cb = pq_train(X, 4, 8, seed=7)
        code = pq_encode(cb, X.vectors[3])
        assert code.shape == (4,)

    def test_l1_reduces_to_vq(self):
        X = rand_collection(80, 6, 8)
        vq = vq_train(X, 8, seed=9)
        cb = PqCodebook(codewords=vq.centroids[None, :, :])
        for i in (0, 17, 42):
            code = pq_encode(cb, X.vectors[i])
            assert code[0] == vq_encode(vq, X.vectors[i])
            assert np.array_equal(pq_decode(cb, code), vq_decode(vq, code[0]))

    def test_per_coordinate_codebook_zero_error(self):
        # L = d with one codeword per distinct per-dim value: exact on train set
        rng = np.random.default_rng(10)
        X = Collection(rng.choice([0.0, 1.0, 2.0], size=(40, 3)).astype(np.float32))
        cb = pq_train(X, 3, 3, seed=11)
        mse = reconstruction_mse(X, lambda i: pq_decode(cb, pq_encode(cb, X.vectors[i])))
        assert mse == pytest.approx(0.0, abs=1e-9)

    def test_adc_identity(self):
        X = rand_collection(200, 8, 12)
        cb = pq_train(X, 2, 16, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(300):
            q = rng.standard_normal(8)
            code = pq_encode(cb, rng.standard_normal(8))
            adc = pq_adc_distance(pq_adc(cb, q), code)
            direct = float(np.sum((q - pq_decode(cb, code).astype(np.float64)) ** 2))
            assert adc == pytest.approx(direct, rel=1e-5, abs=1e-9)

    def test_adc_zero_on_decoded_query(self):
        X = rand_collection(60, 4, 15)
        cb = pq_train(X, 2, 4, seed=16)
        code = pq_encode(cb, X.vectors[0])
        q = pq_decode(cb, code)
        assert pq_adc_distance(pq_adc(cb, q), code) == pytest.approx(0.0, abs=1e-10)

    def test_adc_hand_arithmetic(self):
        codewords = np.zeros((2, 2, 2), dtype=np.float32)
        codewords[0, 0] = [0, 0]
        codewords[0, 1] = [1, 0]
        codewords[1, 0] = [0, 1]
        codewords[1, 1] = [2, 2]
        cb = PqCodebook(codewords=codewords)
        q = np.array([1.0, 1.0, 1.0, 1.0])
        tables = pq_adc(cb, q)
        # chunk 0 vs codeword 1: (1-1)^2 + 1^2 = 1; chunk 1 vs codeword 0: 1 + 0 = 1
        assert pq_adc_distance(tables, np.array([1, 0])) == pytest.approx(2.0)


    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(1, 32), C=st.integers(1, 16), d_sub=st.integers(1, 64), seed=st.integers(0, 2**16))
    def test_adc_table_is_bit_identical_to_the_subspace_loop(self, L, C, d_sub, seed):
        rng = np.random.default_rng(seed)
        cb = PqCodebook(codewords=rng.standard_normal((L, C, d_sub)).astype(np.float32))
        for q in rng.standard_normal((3, L * d_sub)):
            got = pq_adc(cb, q)
            assert got.shape == (L, C) and got.dtype == np.float64
            assert np.array_equal(got, pq_adc_reference(cb, q))

    @pytest.mark.parametrize("L", [2, 8, 32])
    def test_adc_scan_is_bit_identical_to_per_row(self, L):
        X = rand_collection(3000, 64, 17)
        cb = pq_train(Collection(X.vectors[:500]), L, 16, seed=18, max_iters=5)
        codes = pq_encode_all(cb, X)
        offsets = adc_offsets(codes, cb.n_codewords)
        rng = np.random.default_rng(19)
        for _ in range(5):
            tables = pq_adc(cb, rng.standard_normal(64))
            per_row = np.array([pq_adc_distance(tables, code) for code in codes])
            assert np.array_equal(pq_adc_scan(tables, offsets), per_row)


class TestOpq:
    def test_seeded_model_bits_pinned(self):
        """The codeword step's per-cluster means keep their summation
        order: a seeded model's rotation and codewords keep their bits."""
        X = Collection(np.random.default_rng(61).standard_normal((400, 8)).astype(np.float32))
        model = opq_train(X, 2, 8, iters=3, seed=1)
        digest = hashlib.sha256(model.rotation.tobytes() + model.codebook.codewords.tobytes()).hexdigest()
        assert digest == "309f3cd8a478ad5a7f4c90780377a37988d96ed16498bbba3302d461069ce3d7"

    def test_zero_iterations_is_pq(self):
        X = rand_collection(100, 6, 17)
        model = opq_train(X, 2, 8, iters=0, seed=18)
        assert np.array_equal(model.rotation, np.eye(6, dtype=np.float32))
        pq = pq_train(X, 2, 8, seed=18, max_iters=10)
        assert np.array_equal(model.codebook.codewords, pq.codewords)

    def test_rotation_orthogonal_every_iteration(self):
        X = rand_collection(150, 8, 19)
        for iters in (1, 3, 6):
            model = opq_train(X, 2, 8, iters=iters, seed=20)
            R = model.rotation.astype(np.float64)
            assert np.abs(R @ R.T - np.eye(8)).max() <= 1e-6

    def test_objective_monotone(self):
        X = rand_collection(300, 8, 21)
        model = opq_train(X, 2, 16, iters=8, seed=22)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_beats_pq_on_correlated_dims(self):
        # first half of coordinates strongly correlated with the second half
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            base = rng.standard_normal((400, 4))
            mat = np.concatenate([base, base + 0.1 * rng.standard_normal((400, 4))], axis=1)
            X = Collection(mat.astype(np.float32))
            pq = pq_train(X, 2, 8, seed=seed)
            codes = pq_encode_all(pq, X)
            from annkit.quant import _pq_reconstruct

            pq_mse = float(np.mean(np.sum((mat - _pq_reconstruct(pq, codes)) ** 2, axis=1)))
            opq = opq_train(X, 2, 8, iters=10, seed=seed)
            rotated = mat @ opq.rotation.astype(np.float64).T
            ocodes = pq_encode_all(opq.codebook, Collection(rotated.astype(np.float32)))
            opq_mse = float(np.mean(np.sum((rotated - _pq_reconstruct(opq.codebook, ocodes)) ** 2, axis=1)))
            gaps.append(pq_mse - opq_mse)
        assert np.mean(gaps) >= 0


class TestAq:
    def test_l1_reduces_to_vq(self):
        X = rand_collection(60, 4, 23)
        cb, codes, _ = aq_train(X, 1, 8, beam=1, iters=3, seed=24)
        words = cb.codewords.astype(np.float64)[0]
        for i in range(10):
            code = aq_encode(cb, X.vectors[i])
            diff = words - X.vectors[i].astype(np.float64)
            nearest = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
            assert code.codes[0] == nearest

    def test_beam_matches_exhaustive(self):
        X = rand_collection(40, 6, 25)
        cb, _, _ = aq_train(X, 2, 4, beam=16, iters=3, seed=26)
        words = cb.codewords.astype(np.float64)
        rng = np.random.default_rng(27)
        for _ in range(15):
            u = rng.standard_normal(6)
            code = aq_encode(cb, u, beam=16)
            beam_err = float(np.sum((u - words[0, code.codes[0]] - words[1, code.codes[1]]) ** 2))
            best = min(
                float(np.sum((u - words[0, a] - words[1, b]) ** 2))
                for a in range(4) for b in range(4)
            )
            assert beam_err == pytest.approx(best, abs=1e-9)

    def test_narrow_beam_never_beats_exhaustive(self):
        X = rand_collection(40, 6, 28)
        cb, _, _ = aq_train(X, 2, 4, beam=2, iters=2, seed=29)
        words = cb.codewords.astype(np.float64)
        u = np.random.default_rng(30).standard_normal(6)
        code = aq_encode(cb, u, beam=2)
        beam_err = float(np.sum((u - words[0, code.codes[0]] - words[1, code.codes[1]]) ** 2))
        best = min(float(np.sum((u - words[0, a] - words[1, b]) ** 2))
                   for a in range(4) for b in range(4))
        assert beam_err >= best - 1e-12

    def test_reconstruction_is_sum_of_codewords(self):
        X = rand_collection(30, 5, 31)
        cb, _, _ = aq_train(X, 3, 4, beam=3, iters=2, seed=32)
        code = aq_encode(cb, X.vectors[7])
        recon = aq_decode(cb, code)
        manual = sum(cb.codewords.astype(np.float64)[i, code.codes[i]] for i in range(3))
        assert recon == pytest.approx(manual)

    def test_training_error_monotone(self):
        X = rand_collection(120, 6, 33)
        _, _, trace = aq_train(X, 2, 8, beam=4, iters=6, seed=34)
        assert np.all(np.diff(np.array(trace)) <= 1e-9)

    def test_distance_q_zero_gives_stored_norm(self):
        X = rand_collection(25, 4, 35)
        cb, _, _ = aq_train(X, 2, 4, beam=4, iters=2, seed=36)
        code = aq_encode(cb, X.vectors[3])
        assert aq_distance(cb, np.zeros(4), code) == pytest.approx(code.norm_sq)

    def test_distance_error_identity(self):
        X = rand_collection(25, 4, 37)
        cb, _, _ = aq_train(X, 2, 4, beam=4, iters=2, seed=38)
        rng = np.random.default_rng(39)
        for i in range(10):
            u = X.vectors[i].astype(np.float64)
            code = aq_encode(cb, u)
            q = rng.standard_normal(4)
            recon = aq_decode(cb, code)
            gap = aq_distance(cb, q, code) - float(np.sum((q - u) ** 2))
            assert gap == pytest.approx(2.0 * float(q @ (u - recon)), abs=1e-9)

    def test_adc_scan_is_bit_identical_to_per_row(self):
        X = rand_collection(300, 8, 40)
        cb, _, _ = aq_train(X, 3, 8, beam=3, iters=1, seed=41)
        codes = [aq_encode(cb, X.vectors[i]) for i in range(len(X))]
        offsets = adc_offsets(np.stack([c.codes for c in codes]), cb.n_codewords)
        norms = np.array([c.norm_sq for c in codes])
        rng = np.random.default_rng(42)
        for _ in range(5):
            q = rng.standard_normal(8).astype(np.float32)
            tables = aq_adc(cb, q)
            per_row = np.array([aq_distance(cb, q, c, tables) for c in codes])
            assert np.array_equal(aq_adc_scan(cb, q, offsets, norms), per_row)

    def test_exactly_representable_point(self):
        codewords = np.zeros((2, 2, 2), dtype=np.float32)
        codewords[0, 1] = [1, 0]
        codewords[1, 1] = [0, 1]
        cb = __import__("annkit.quant", fromlist=["AqCodebook"]).AqCodebook(
            codewords=codewords, beam_width=4)
        u = np.array([1.0, 1.0])
        code = aq_encode(cb, u)
        q = np.array([0.3, -0.7])
        assert aq_distance(cb, q, code) == pytest.approx(float(np.sum((q - u) ** 2)), abs=1e-9)


class TestIvfPqComposition:
    def test_two_stage_recall_within_sanity_band(self):
        # quantized rescoring may cost recall, but not more than 0.15
        from annkit.ivf import build_ivf, ivf_search, route

        from annkit.core import TopKResult, recall

        X = rand_collection(2000, 16, 50)
        index = build_ivf(X, 0, seed=51)
        L, C = 8, 256  # one byte per chunk, the usual PQ operating point
        cb = pq_train(X, L, C, seed=52, max_iters=15)
        codes = pq_encode_all(cb, X)
        rng = np.random.default_rng(53)
        queries = rng.standard_normal((50, 16)).astype(np.float32)
        ell = 8
        exact_recalls = []
        pq_recalls = []
        for q in queries:
            oracle = brute_force_topk(X, q, 10, DistanceKind.L2_SQUARED)
            exact_recalls.append(recall(oracle, ivf_search(index, X, q, 10, ell), 10))
            clusters = route(index, q, ell)
            cand = np.sort(np.concatenate([index.lists[int(c)] for c in clusters]))
            tables = pq_adc(cb, q)
            adc_scores = tables[np.arange(L)[None, :], codes[cand]].sum(axis=1)
            order = np.lexsort((cand, adc_scores))[:10]
            approx = TopKResult(ids=cand[order], scores=np.sort(adc_scores[order]), k=10)
            pq_recalls.append(recall(oracle, approx, 10))
        assert np.mean(pq_recalls) >= np.mean(exact_recalls) - 0.15


class TestResiduals:
    def test_collinear_reconstruction_no_perp(self):
        u = np.array([2.0, 0.0, 0.0])
        r_par, r_perp = residual_decompose(u, 0.5 * u)
        assert np.linalg.norm(r_perp) == pytest.approx(0.0, abs=1e-12)

    def test_exact_reconstruction_zero_residuals(self):
        u = np.array([1.0, 2.0, 3.0])
        r_par, r_perp = residual_decompose(u, u.copy())
        assert np.linalg.norm(r_par) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(r_perp) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual_decompose(np.zeros(3), np.ones(3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_identities(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(6)
        t = rng.standard_normal(6)
        r_par, r_perp = residual_decompose(u, t)
        assert r_par + r_perp == pytest.approx(u - t, abs=1e-9)
        assert abs(float(r_par @ r_perp)) <= 1e-9
        # Pythagoras
        assert float(np.sum((u - t) ** 2)) == pytest.approx(
            float(r_par @ r_par) + float(r_perp @ r_perp), abs=1e-9)


class TestScoreAware:
    def test_weight_zero_threshold(self):
        assert score_aware_weight(0.0, 1.0) == 0.0

    def test_weight_unity_point(self):
        assert score_aware_weight(1 / np.sqrt(2), 1.0) == pytest.approx(1.0)

    def test_weight_diverges_rejected(self):
        with pytest.raises(ValueError):
            score_aware_weight(1.0, 1.0)

    def test_seeded_model_bits_pinned(self):
        """Centroids, assignment and objective trace keep their bits."""
        X = Collection(np.random.default_rng(61).standard_normal((600, 16)).astype(np.float32))
        model, assign, trace = score_aware_vq_train(X, 12, theta=0.8, iters=10, seed=5)
        digest = hashlib.sha256(model.centroids.tobytes() + assign.tobytes()
                                + np.array(trace).tobytes()).hexdigest()
        assert digest == "218c39dd72dbda5b41253b1c13b4c8428adf0ecfa7b9101a0e9b9ee55c28ce1f"

    def test_objective_monotone(self):
        X = rand_collection(300, 8, 40)
        _, _, trace = score_aware_vq_train(X, 16, theta=0.5, seed=41)
        assert np.all(np.diff(np.array(trace)) <= 1e-9)

    def test_beats_plain_kmeans_on_skewed_norms(self):
        # Density- and norm-skewed instance: most points sit in tight
        # directional blobs at small norms, the MIPS winners are scattered
        # big-norm points. Plain KMeans shrinks the scattered clusters'
        # centroid norms (wide angular spread pulls means toward the
        # origin), so routing by quantized score misses the winners; the
        # anisotropic objective overshoots centroid norms to keep aligned
        # inner products honest. Two-stage eval at a fixed scan budget.
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            m, d, n_dense = 600, 8, 480
            blobs = rng.standard_normal((6, d))
            blobs /= np.linalg.norm(blobs, axis=1, keepdims=True)
            dd = blobs[rng.integers(6, size=n_dense)] + 0.08 * rng.standard_normal((n_dense, d))
            dd /= np.linalg.norm(dd, axis=1, keepdims=True)
            dense = dd * rng.uniform(0.95, 1.05, size=(n_dense, 1))
            sp = rng.standard_normal((m - n_dense, d))
            sp /= np.linalg.norm(sp, axis=1, keepdims=True)
            sparse = sp * rng.uniform(1.2, 1.35, size=(m - n_dense, 1))
            X = Collection(np.vstack([dense, sparse]).astype(np.float32))
            queries = rng.standard_normal((120, d)).astype(np.float32)

            plain = vq_train(X, 24, seed=seed)
            aware, assign, _ = score_aware_vq_train(X, 24, theta=0.9, seed=seed)
            plain_assign = np.array([vq_encode(plain, X.vectors[i]) for i in range(m)])

            def recall1_two_stage(centroids, assignment, ell=2):
                cents = centroids.astype(np.float64)
                mat = X.vectors.astype(np.float64)
                hits = 0
                for q in queries:
                    q64 = q.astype(np.float64)
                    truth = brute_force_topk(X, q, 1, DistanceKind.NEG_INNER_PRODUCT).ids[0]
                    routed = np.lexsort((np.arange(cents.shape[0]), -(cents @ q64)))[:ell]
                    cand = np.flatnonzero(np.isin(assignment, routed))
                    scores = -(mat[cand] @ q64)
                    hits += cand[np.lexsort((cand, scores))[0]] == truth
                return hits / len(queries)

            gaps.append(recall1_two_stage(aware.centroids, assign)
                        - recall1_two_stage(plain.centroids, plain_assign))
        assert np.mean(gaps) > 0

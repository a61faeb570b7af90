"""Per-row quantizer distances: the references the vectorized ADC scans
(``annkit.quant.pq_adc_scan`` and ``aq_adc_scan``) are tested against."""

from __future__ import annotations

from typing import Optional

import numpy as np

from annkit.quant import AqCode, AqCodebook, aq_adc


def pq_adc_distance(tables: np.ndarray, code: np.ndarray) -> float:
    """Asymmetric distance: L table lookups, equal to the exact squared
    distance between the raw query and the decoded code."""
    return float(tables[np.arange(tables.shape[0]), code].sum())


def aq_distance(cb: AqCodebook, q: np.ndarray, code: AqCode,
                tables: Optional[np.ndarray] = None) -> float:
    """||q||^2 - 2 <q, reconstruction> + stored ||u||^2; only the inner
    product is approximate, the norm term is exact."""
    q64 = np.asarray(q, dtype=np.float64)
    if tables is None:
        tables = aq_adc(cb, q)
    ip = float(tables[np.arange(cb.n_codebooks), code.codes].sum())
    return float(q64 @ q64) - 2.0 * ip + code.norm_sq

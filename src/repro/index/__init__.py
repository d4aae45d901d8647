"""Index-structure substrate.

Everything the four CPU baselines and GPUMEM's index need, built from
scratch: suffix arrays (vectorized prefix doubling), LCP arrays, the
Burrows-Wheeler transform, an FM-index with backward search, sparse and
enhanced sparse suffix arrays, and GPUMEM's sorted-key ``keys``/``locs``
k-mer index.
"""

from repro.index.bwt import bwt_from_sa, bwt_transform, inverse_bwt
from repro.index.compare import (
    common_prefix_len,
    common_suffix_len,
    compare_positions,
)
from repro.index.esa import EnhancedSparseSuffixArray, LCPIntervals
from repro.index.fm_index import FMIndex
from repro.index.kmer_index import KmerSeedIndex, build_kmer_index
from repro.index.lcp import lcp_array, lcp_kasai, naive_lcp_array
from repro.index.matching import SuffixArraySearcher
from repro.index.rmq import SparseTableRMQ
from repro.index.sais import sais_suffix_array
from repro.index.serialize import (
    FORMAT_VERSION,
    load_kmer_bundle,
    load_kmer_index,
    load_searcher,
    load_searcher_bundle,
    npz_path,
    save_kmer_bundle,
    save_kmer_index,
    save_searcher,
    save_searcher_bundle,
)
from repro.index.sparse_sa import SparseSuffixArray
from repro.index.store import (
    STORE_ENV_VAR,
    IndexStore,
    default_store,
    resolve_store,
    row_key,
    searcher_key,
    store_at,
)
from repro.index.suffix_array import (
    naive_suffix_array,
    rank_array,
    suffix_array,
    verify_suffix_array,
)

__all__ = [
    "common_prefix_len",
    "common_suffix_len",
    "compare_positions",
    "suffix_array",
    "naive_suffix_array",
    "sais_suffix_array",
    "rank_array",
    "verify_suffix_array",
    "lcp_array",
    "lcp_kasai",
    "naive_lcp_array",
    "SparseTableRMQ",
    "bwt_transform",
    "bwt_from_sa",
    "inverse_bwt",
    "FMIndex",
    "SparseSuffixArray",
    "EnhancedSparseSuffixArray",
    "LCPIntervals",
    "KmerSeedIndex",
    "build_kmer_index",
    "SuffixArraySearcher",
    "save_kmer_index",
    "load_kmer_index",
    "save_searcher",
    "load_searcher",
    "FORMAT_VERSION",
    "npz_path",
    "save_kmer_bundle",
    "load_kmer_bundle",
    "save_searcher_bundle",
    "load_searcher_bundle",
    "IndexStore",
    "STORE_ENV_VAR",
    "store_at",
    "default_store",
    "resolve_store",
    "row_key",
    "searcher_key",
]

//! Persistent embedding store + deterministic IVF-flat ANN index.
//!
//! This crate turns a corpus of table embeddings into something searchable:
//!
//! * [`EmbeddingStore`] — a flat, mmap-friendly f32 segment store persisted
//!   as an NTRW container (`ntr_tensor::io`: per-section CRC32s, a file-level
//!   CRC trailer, temp-file + fsync + rename), with a transactional
//!   bounds-checked load that either yields a verified store or a typed
//!   [`IndexError`] — never a partially applied one.
//! * [`IvfIndex`] — an IVF-flat approximate-nearest-neighbor index built with
//!   a seeded, sequential k-means so the same seed over the same store
//!   produces byte-identical persisted files regardless of thread count.
//! * [`SearchIndex`] — the pair of the two loaded from a directory, exposing
//!   `search(query, k, nprobe)` plus exact [`EmbeddingStore::brute_force_topk`]
//!   ground truth for recall harnesses.
//!
//! Why IVF-flat rather than HNSW: the store is already a flat contiguous f32
//! segment, so an inverted-file layout (centroids + per-list vector ids) reuses
//! it directly instead of duplicating vectors into a graph; construction is a
//! fixed number of Lloyd iterations over deterministic seeded init, which makes
//! the byte-identical-persistence guarantee trivial to state and test (HNSW's
//! insertion-order-dependent graph makes that guarantee much more fragile); and
//! search cost `(nlist + nprobe·n/nlist)·d` gives the required ≥5× win over
//! brute force at the 10k–100k corpus sizes this repo targets.
//!
//! File formats are documented in `DESIGN.md` §12.

mod ivf;
mod store;

pub use ivf::{IvfConfig, IvfIndex, PackedLists, SearchResult};
pub use store::EmbeddingStore;

use std::fmt;
use std::io;
use std::path::Path;

use ntr_tensor::io::{SectionError, ShortRead};

/// Typed error for every store/index failure path. Loading a truncated or
/// corrupted file must surface one of these — never a panic.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// Structural problem: bad magic, short read, unknown section, bad UTF-8.
    BadFormat(String),
    /// CRC or cross-file consistency failure (store vs index dim/count).
    Mismatch(String),
    /// `k` outside `1..=len` for a search against `len` stored vectors.
    BadK { k: usize, len: usize },
    /// Query (or pushed vector) dimensionality differs from the store's.
    DimMismatch { expected: usize, got: usize },
    /// Building an index over zero vectors.
    EmptyStore,
}

impl IndexError {
    /// Stable machine-readable tag, mirrored on the serve wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            IndexError::Io(_) => "Io",
            IndexError::BadFormat(_) => "BadFormat",
            IndexError::Mismatch(_) => "Mismatch",
            IndexError::BadK { .. } => "BadK",
            IndexError::DimMismatch { .. } => "DimMismatch",
            IndexError::EmptyStore => "EmptyStore",
        }
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "io error: {e}"),
            IndexError::BadFormat(m) => write!(f, "bad format: {m}"),
            IndexError::Mismatch(m) => write!(f, "mismatch: {m}"),
            IndexError::BadK { k, len } => {
                write!(f, "bad k: {k} not in 1..={len}")
            }
            IndexError::DimMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            IndexError::EmptyStore => write!(f, "cannot index an empty store"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

impl From<ShortRead> for IndexError {
    fn from(e: ShortRead) -> Self {
        IndexError::BadFormat(format!(
            "short read: needed {} bytes, {} remaining",
            e.needed, e.remaining
        ))
    }
}

impl From<SectionError> for IndexError {
    fn from(e: SectionError) -> Self {
        match e {
            SectionError::Checksum(m) => IndexError::Mismatch(m),
            SectionError::Malformed(m) => IndexError::BadFormat(m),
        }
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Sequential accumulation: the result is bit-stable for a given pair, which
/// the deterministic-build guarantee depends on.
pub(crate) fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// An embedding store and its IVF index assembled together (usually loaded
/// from one directory), plus a list-contiguous packed copy of the vectors
/// so searches scan sequential memory.
///
/// `packed` is a snapshot taken at construction. `EmbeddingStore` only ever
/// grows (`push`), and a grown store fails the shape check on the next
/// search, so the snapshot cannot silently go stale.
pub struct SearchIndex {
    pub store: EmbeddingStore,
    pub ivf: IvfIndex,
    packed: PackedLists,
}

impl SearchIndex {
    /// File name of the embedding store inside an index directory.
    pub const STORE_FILE: &'static str = "store.ntrs";
    /// File name of the IVF index inside an index directory.
    pub const IVF_FILE: &'static str = "index.ntri";

    /// Assembles an in-memory search index, verifying that the index was
    /// built over exactly this store (dim and vector count must agree) and
    /// packing the vectors into probe order.
    pub fn new(store: EmbeddingStore, ivf: IvfIndex) -> Result<SearchIndex, IndexError> {
        if ivf.dim() != store.dim() {
            return Err(IndexError::Mismatch(format!(
                "index dim {} != store dim {}",
                ivf.dim(),
                store.dim()
            )));
        }
        if ivf.n_vectors() != store.len() as u64 {
            return Err(IndexError::Mismatch(format!(
                "index built over {} vectors, store holds {}",
                ivf.n_vectors(),
                store.len()
            )));
        }
        let packed = ivf.pack(&store)?;
        Ok(SearchIndex { store, ivf, packed })
    }

    /// Load `store.ntrs` + `index.ntri` from `dir` (see [`SearchIndex::new`]
    /// for the cross-file validation).
    pub fn open(dir: &Path) -> Result<SearchIndex, IndexError> {
        let store = EmbeddingStore::load(&dir.join(Self::STORE_FILE))?;
        let ivf = IvfIndex::load(&dir.join(Self::IVF_FILE))?;
        Self::new(store, ivf)
    }

    /// Approximate top-`k` search over the packed lists. `nprobe = None`
    /// uses the index default. Identical results to
    /// [`IvfIndex::search`] against the store.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<SearchResult, IndexError> {
        let nprobe = nprobe.unwrap_or_else(|| self.ivf.default_nprobe());
        self.ivf.search_packed(&self.packed, query, k, nprobe)
    }
}

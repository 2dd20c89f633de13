//! Deterministic IVF-flat ANN index (`index.ntri`).
//!
//! Construction is seeded k-means over the store's embeddings: initial
//! centroids are the first `nlist` rows of a seeded Fisher–Yates permutation,
//! followed by a fixed number of sequential Lloyd iterations (ties broken
//! toward the lower centroid index, empty clusters keep their previous
//! centroid). Every floating-point reduction is sequential and unaffected by
//! `NTR_THREADS`, so the same seed over the same store produces byte-identical
//! persisted files — the deterministic-build test pins exactly that.
//!
//! Search computes distances to all `nlist` centroids, probes the `nprobe`
//! closest inverted lists, and keeps a deterministic top-`k` by
//! `(distance, id)`. Cost is `(nlist + nprobe·n/nlist)·dim` multiply-adds
//! versus `n·dim` for a brute-force scan.

use std::path::Path;

use ntr_tensor::io::{read_sections, save_sections, ByteReader};

use crate::store::{EmbeddingStore, TopK};
use crate::{l2_sq, IndexError};

const MAGIC: [u8; 4] = *b"NTRI";
const VERSION: u32 = 1;
const TAG_META: [u8; 4] = *b"META";
const TAG_CENT: [u8; 4] = *b"CENT";
const TAG_LIST: [u8; 4] = *b"LIST";

/// Build-time parameters. `Default` picks everything automatically.
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of inverted lists; `0` = auto (`sqrt(n)` clamped to `[1, n]`).
    pub nlist: usize,
    /// Lloyd iterations for k-means training.
    pub train_iters: usize,
    /// Seed for centroid initialization; same seed ⇒ byte-identical index.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            nlist: 0,
            train_iters: 8,
            seed: 7,
        }
    }
}

/// One answered search: ranked `(row id, squared L2 distance)` pairs plus the
/// number of stored vectors actually scanned (the work an exact scan avoids).
#[derive(Debug, Clone)]
pub struct SearchResult {
    pub hits: Vec<(u32, f32)>,
    pub scanned: usize,
}

/// A store's vectors copied into list-contiguous (probe) order — a derived,
/// never-persisted cache built by [`IvfIndex::pack`] so
/// [`IvfIndex::search_packed`] scans sequential memory.
#[derive(Debug)]
pub struct PackedLists {
    dim: usize,
    /// List-concatenated vectors, probe order.
    vecs: Vec<f32>,
    /// Store row id of each packed vector, same order.
    ids: Vec<u32>,
    /// `offsets[c]..offsets[c + 1]` bound list `c`, in vectors.
    offsets: Vec<usize>,
}

/// IVF-flat index: k-means centroids plus per-centroid id lists over a store.
#[derive(Debug)]
pub struct IvfIndex {
    dim: usize,
    n_vectors: u64,
    seed: u64,
    train_iters: u32,
    centroids: Vec<f32>,
    lists: Vec<Vec<u32>>,
}

/// Minimal deterministic RNG (splitmix64) for centroid initialization; kept
/// private so the on-disk format depends on nothing outside this crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

impl IvfIndex {
    /// Train an index over every vector currently in `store`.
    pub fn build(store: &EmbeddingStore, cfg: &IvfConfig) -> Result<IvfIndex, IndexError> {
        let n = store.len();
        if n == 0 {
            return Err(IndexError::EmptyStore);
        }
        let dim = store.dim();
        let nlist = if cfg.nlist == 0 {
            ((n as f64).sqrt().round() as usize).clamp(1, n)
        } else {
            cfg.nlist.clamp(1, n)
        };

        // Seeded Fisher–Yates permutation; the first nlist rows seed k-means.
        let mut rng = SplitMix64(cfg.seed ^ 0x4E54_5249); // "NTRI"
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let mut centroids = Vec::with_capacity(nlist * dim);
        for &row in perm.iter().take(nlist) {
            centroids.extend_from_slice(store.vector(row as usize));
        }

        let mut assign = vec![0u32; n];
        for _ in 0..cfg.train_iters {
            for (i, slot) in assign.iter_mut().enumerate() {
                *slot = nearest_centroid(&centroids, dim, store.vector(i));
            }
            // Recompute means with sequential f64 accumulation (deterministic,
            // and robust to long sums); empty clusters keep their centroid.
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0u64; nlist];
            for (i, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                for (d, v) in store.vector(i).iter().enumerate() {
                    sums[c * dim + d] += f64::from(*v);
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue;
                }
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                }
            }
        }

        let mut lists = vec![Vec::new(); nlist];
        for (i, slot) in assign.iter_mut().enumerate() {
            *slot = nearest_centroid(&centroids, dim, store.vector(i));
            lists[*slot as usize].push(i as u32);
        }

        Ok(IvfIndex {
            dim,
            n_vectors: n as u64,
            seed: cfg.seed,
            train_iters: cfg.train_iters as u32,
            centroids,
            lists,
        })
    }

    /// Embedding dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of store vectors the index was built over.
    pub fn n_vectors(&self) -> u64 {
        self.n_vectors
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Seed the index was trained under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Default probe count: an eighth of the lists, at least one. At the
    /// auto `nlist = sqrt(n)` this scans ~12.5% of the corpus for a ~7×
    /// distance-computation advantage over brute force.
    pub fn default_nprobe(&self) -> usize {
        (self.nlist() / 8).max(1)
    }

    /// The indexed collection must have exactly the shape this index was
    /// built over.
    fn check_shape(&self, len: usize, dim: usize) -> Result<(), IndexError> {
        if dim != self.dim || len as u64 != self.n_vectors {
            return Err(IndexError::Mismatch(format!(
                "index built over {} × {} store, given {} × {}",
                self.n_vectors, self.dim, len, dim
            )));
        }
        Ok(())
    }

    /// Shared query validation against an indexed collection of `len`
    /// vectors; returns the clamped probe count.
    fn validate_query(
        &self,
        len: usize,
        dim: usize,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<usize, IndexError> {
        self.check_shape(len, dim)?;
        if query.len() != self.dim {
            return Err(IndexError::DimMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        if k == 0 || k > len {
            return Err(IndexError::BadK { k, len });
        }
        Ok(nprobe.clamp(1, self.nlist()))
    }

    /// The `nprobe` inverted lists whose centroids are closest to `query`.
    fn probe_order(&self, query: &[f32], nprobe: usize) -> Vec<(u32, f32)> {
        let mut probes = TopK::new(nprobe);
        for c in 0..self.nlist() {
            probes.offer(
                c as u32,
                l2_sq(query, &self.centroids[c * self.dim..(c + 1) * self.dim]),
            );
        }
        probes.into_sorted()
    }

    /// Approximate top-`k`: probe the `nprobe` nearest inverted lists,
    /// reading vectors from `store` by row id. [`IvfIndex::search_packed`]
    /// answers identically but scans sequential memory; this indirect form
    /// needs no packed copy.
    pub fn search(
        &self,
        store: &EmbeddingStore,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<SearchResult, IndexError> {
        let nprobe = self.validate_query(store.len(), store.dim(), query, k, nprobe)?;
        let mut top = TopK::new(k);
        let mut scanned = 0usize;
        for (c, _) in self.probe_order(query, nprobe) {
            for &row in &self.lists[c as usize] {
                top.offer(row, l2_sq(query, store.vector(row as usize)));
                scanned += 1;
            }
        }
        Ok(SearchResult {
            hits: top.into_sorted(),
            scanned,
        })
    }

    /// Copies `store`'s vectors into list-contiguous (probe) order. A probe
    /// then sweeps sequential memory instead of chasing row ids through the
    /// store — at 10k+ vectors that is the difference between a
    /// prefetch-friendly scan and a random walk, and most of the index's
    /// latency advantage over brute force.
    pub fn pack(&self, store: &EmbeddingStore) -> Result<PackedLists, IndexError> {
        self.check_shape(store.len(), store.dim())?;
        let mut vecs = Vec::with_capacity(store.len() * self.dim);
        let mut ids = Vec::with_capacity(store.len());
        let mut offsets = Vec::with_capacity(self.lists.len() + 1);
        offsets.push(0usize);
        for list in &self.lists {
            for &row in list {
                vecs.extend_from_slice(store.vector(row as usize));
                ids.push(row);
            }
            offsets.push(ids.len());
        }
        Ok(PackedLists {
            dim: self.dim,
            vecs,
            ids,
            offsets,
        })
    }

    /// As [`IvfIndex::search`], over a packed copy of the same store:
    /// identical hits (same distances, same `(distance, id)` tie-breaks),
    /// sequential scans.
    pub fn search_packed(
        &self,
        packed: &PackedLists,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<SearchResult, IndexError> {
        let nprobe = self.validate_query(packed.ids.len(), packed.dim, query, k, nprobe)?;
        let mut top = TopK::new(k);
        let mut scanned = 0usize;
        for (c, _) in self.probe_order(query, nprobe) {
            let (lo, hi) = (packed.offsets[c as usize], packed.offsets[c as usize + 1]);
            for (i, v) in packed.vecs[lo * self.dim..hi * self.dim]
                .chunks_exact(self.dim)
                .enumerate()
            {
                top.offer(packed.ids[lo + i], l2_sq(query, v));
            }
            scanned += hi - lo;
        }
        Ok(SearchResult {
            hits: top.into_sorted(),
            scanned,
        })
    }

    /// Atomically persist to `path`. Returns the file size in bytes.
    pub fn save(&self, path: &Path) -> Result<u64, IndexError> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.dim as u32).to_le_bytes());
        meta.extend_from_slice(&self.n_vectors.to_le_bytes());
        meta.extend_from_slice(&self.seed.to_le_bytes());
        meta.extend_from_slice(&(self.nlist() as u32).to_le_bytes());
        meta.extend_from_slice(&self.train_iters.to_le_bytes());
        let mut cent = Vec::with_capacity(self.centroids.len() * 4);
        for v in &self.centroids {
            cent.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut list = Vec::new();
        list.extend_from_slice(&(self.nlist() as u32).to_le_bytes());
        for l in &self.lists {
            list.extend_from_slice(&(l.len() as u32).to_le_bytes());
            for &id in l {
                list.extend_from_slice(&id.to_le_bytes());
            }
        }
        let sections = [(TAG_META, meta), (TAG_CENT, cent), (TAG_LIST, list)];
        Ok(save_sections(path, MAGIC, VERSION, &sections)?.bytes)
    }

    /// Transactionally load from `path` — typed errors, never a panic.
    pub fn load(path: &Path) -> Result<IvfIndex, IndexError> {
        let bytes = std::fs::read(path)?;
        let sections = read_sections(&bytes, MAGIC, VERSION)?;

        let mut r = ByteReader::new(sections.require(TAG_META)?);
        let dim = r.u32()? as usize;
        let n_vectors = r.u64()?;
        let seed = r.u64()?;
        let nlist = r.u32()? as usize;
        let train_iters = r.u32()?;
        if nlist == 0 || dim == 0 {
            return Err(IndexError::BadFormat(format!(
                "degenerate index: nlist {nlist}, dim {dim}"
            )));
        }
        if nlist as u64 > n_vectors {
            return Err(IndexError::Mismatch(format!(
                "{nlist} list(s) over {n_vectors} vector(s)"
            )));
        }

        let cent = sections.require(TAG_CENT)?;
        let expected = (nlist as u64)
            .checked_mul(dim as u64)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| IndexError::BadFormat("centroid segment size overflows".into()))?;
        if cent.len() as u64 != expected {
            return Err(IndexError::Mismatch(format!(
                "CENT holds {} byte(s), expected {expected} for {nlist} × {dim} f32",
                cent.len()
            )));
        }
        let centroids = ByteReader::new(cent).f32s(nlist * dim)?;

        let mut r = ByteReader::new(sections.require(TAG_LIST)?);
        let got_nlist = r.u32()? as usize;
        if got_nlist != nlist {
            return Err(IndexError::Mismatch(format!(
                "LIST holds {got_nlist} list(s), META declares {nlist}"
            )));
        }
        let mut lists = Vec::with_capacity(nlist);
        let mut total = 0u64;
        for _ in 0..nlist {
            let len = r.u32()? as usize;
            // Pre-check against the bytes actually present before allocating.
            if (len as u64) * 4 > r.remaining() as u64 {
                return Err(IndexError::BadFormat(format!(
                    "list declares {len} id(s) but only {} byte(s) remain",
                    r.remaining()
                )));
            }
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                let id = r.u32()?;
                if u64::from(id) >= n_vectors {
                    return Err(IndexError::Mismatch(format!(
                        "list id {id} out of range for {n_vectors} vector(s)"
                    )));
                }
                ids.push(id);
            }
            total += len as u64;
            lists.push(ids);
        }
        if total != n_vectors {
            return Err(IndexError::Mismatch(format!(
                "lists hold {total} id(s), META declares {n_vectors}"
            )));
        }
        if !r.is_empty() {
            return Err(IndexError::BadFormat("trailing bytes in LIST".into()));
        }

        Ok(IvfIndex {
            dim,
            n_vectors,
            seed,
            train_iters,
            centroids,
            lists,
        })
    }
}

fn nearest_centroid(centroids: &[f32], dim: usize, v: &[f32]) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for (c, chunk) in centroids.chunks_exact(dim).enumerate() {
        let d = l2_sq(v, chunk);
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic clustered vectors: `n` points around `n_clusters`
    /// well-separated centers, no external RNG.
    fn clustered_store(n: usize, n_clusters: usize, dim: usize) -> EmbeddingStore {
        let mut s = EmbeddingStore::new(dim);
        let mut rng = SplitMix64(0xDEC0DE);
        for i in 0..n {
            let c = i % n_clusters;
            let mut v = vec![0.0f32; dim];
            for (d, slot) in v.iter_mut().enumerate() {
                let center = if d % n_clusters == c { 10.0 } else { 0.0 };
                let jitter = (rng.below(1000) as f32 / 1000.0) - 0.5;
                *slot = center + jitter;
            }
            s.push(format!("t{i}"), &v).unwrap();
        }
        s
    }

    #[test]
    fn exhaustive_probe_matches_brute_force_exactly() {
        let s = clustered_store(400, 8, 16);
        let ivf = IvfIndex::build(&s, &IvfConfig::default()).unwrap();
        for q in [0usize, 17, 123, 399] {
            let exact = s.brute_force_topk(s.vector(q), 10).unwrap();
            let approx = ivf.search(&s, s.vector(q), 10, ivf.nlist()).unwrap();
            assert_eq!(approx.hits, exact, "query {q}");
            assert_eq!(approx.scanned, s.len());
        }
    }

    #[test]
    fn default_nprobe_recall_is_high_on_clustered_data() {
        let s = clustered_store(600, 6, 16);
        let ivf = IvfIndex::build(&s, &IvfConfig::default()).unwrap();
        let k = 10;
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..50 {
            let exact = s.brute_force_topk(s.vector(q), k).unwrap();
            let approx = ivf
                .search(&s, s.vector(q), k, ivf.default_nprobe())
                .unwrap();
            assert!(approx.scanned < s.len(), "default nprobe must not scan all");
            for (id, _) in &exact {
                if approx.hits.iter().any(|(a, _)| a == id) {
                    hit += 1;
                }
            }
            total += k;
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "recall@10 {recall} < 0.9");
    }

    #[test]
    fn same_seed_builds_byte_identical_files() {
        let dir = std::env::temp_dir().join(format!("ntri_det_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = clustered_store(300, 5, 8);
        let cfg = IvfConfig {
            seed: 42,
            ..IvfConfig::default()
        };
        let a = IvfIndex::build(&s, &cfg).unwrap();
        let b = IvfIndex::build(&s, &cfg).unwrap();
        let pa = dir.join("a.ntri");
        let pb = dir.join("b.ntri");
        a.save(&pa).unwrap();
        b.save(&pb).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "same seed must persist byte-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trip_preserves_results() {
        let dir = std::env::temp_dir().join(format!("ntri_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = clustered_store(200, 4, 8);
        let ivf = IvfIndex::build(&s, &IvfConfig::default()).unwrap();
        let path = dir.join("index.ntri");
        ivf.save(&path).unwrap();
        let loaded = IvfIndex::load(&path).unwrap();
        assert_eq!(loaded.nlist(), ivf.nlist());
        assert_eq!(loaded.seed(), ivf.seed());
        let a = ivf.search(&s, s.vector(7), 5, 3).unwrap();
        let b = loaded.search(&s, s.vector(7), 5, 3).unwrap();
        assert_eq!(a.hits, b.hits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_rejects_bad_inputs() {
        let s = clustered_store(50, 4, 8);
        let ivf = IvfIndex::build(&s, &IvfConfig::default()).unwrap();
        assert_eq!(
            ivf.search(&s, s.vector(0), 0, 1).unwrap_err().kind(),
            "BadK"
        );
        assert_eq!(
            ivf.search(&s, s.vector(0), 51, 1).unwrap_err().kind(),
            "BadK"
        );
        assert_eq!(
            ivf.search(&s, &[0.0; 3], 5, 1).unwrap_err().kind(),
            "DimMismatch"
        );
        let other = clustered_store(49, 4, 8);
        assert_eq!(
            ivf.search(&other, &[0.0; 8], 5, 1).unwrap_err().kind(),
            "Mismatch"
        );
    }

    #[test]
    fn packed_search_is_identical_to_indirect_search() {
        let s = clustered_store(500, 7, 16);
        let ivf = IvfIndex::build(&s, &IvfConfig::default()).unwrap();
        let packed = ivf.pack(&s).unwrap();
        for q in [0usize, 3, 99, 250, 499] {
            for nprobe in [1, 2, ivf.default_nprobe(), ivf.nlist()] {
                let indirect = ivf.search(&s, s.vector(q), 10, nprobe).unwrap();
                let fast = ivf.search_packed(&packed, s.vector(q), 10, nprobe).unwrap();
                assert_eq!(fast.hits, indirect.hits, "query {q} nprobe {nprobe}");
                assert_eq!(fast.scanned, indirect.scanned);
            }
        }
        // Validation parity on the packed path.
        assert_eq!(
            ivf.search_packed(&packed, s.vector(0), 0, 1)
                .unwrap_err()
                .kind(),
            "BadK"
        );
        assert_eq!(
            ivf.search_packed(&packed, &[0.0; 3], 5, 1)
                .unwrap_err()
                .kind(),
            "DimMismatch"
        );
    }

    #[test]
    fn build_rejects_empty_store() {
        let s = EmbeddingStore::new(4);
        assert_eq!(
            IvfIndex::build(&s, &IvfConfig::default())
                .unwrap_err()
                .kind(),
            "EmptyStore"
        );
    }
}

//! Flat f32 embedding segment store (`store.ntrs`).
//!
//! Section payloads (the container framing is `ntr_tensor::io`'s):
//!
//! * `META` — u32 dim, u64 count, u32 n_pairs, then n_pairs × (str key,
//!   str value). Free-form key/value metadata makes the store
//!   self-describing: `ntr index build` records the model kind, vocab and
//!   corpus parameters here so query time can reconstruct the exact
//!   embedding space.
//! * `TIDS` — u64 count, then count length-prefixed table-id strings.
//! * `VECS` — count × dim f32 little-endian bit patterns, row-major and
//!   contiguous. The section body is exactly the in-memory `Vec<f32>` layout,
//!   so a loader may mmap the file and point at this segment directly.

use std::path::Path;

use ntr_tensor::io::{get_str, put_str, read_sections, save_sections, ByteReader};

use crate::{l2_sq, IndexError};

const MAGIC: [u8; 4] = *b"NTRS";
const VERSION: u32 = 1;
const TAG_META: [u8; 4] = *b"META";
const TAG_TIDS: [u8; 4] = *b"TIDS";
const TAG_VECS: [u8; 4] = *b"VECS";

/// A flat store of `len × dim` f32 embeddings with per-row string ids.
#[derive(Debug)]
pub struct EmbeddingStore {
    dim: usize,
    ids: Vec<String>,
    vecs: Vec<f32>,
    meta: Vec<(String, String)>,
}

impl EmbeddingStore {
    /// Empty store for `dim`-dimensional embeddings.
    pub fn new(dim: usize) -> EmbeddingStore {
        EmbeddingStore {
            dim,
            ids: Vec::new(),
            vecs: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Append one embedding. The vector must match the store's dimension.
    pub fn push(&mut self, id: impl Into<String>, vec: &[f32]) -> Result<(), IndexError> {
        if vec.len() != self.dim {
            return Err(IndexError::DimMismatch {
                expected: self.dim,
                got: vec.len(),
            });
        }
        self.ids.push(id.into());
        self.vecs.extend_from_slice(vec);
        Ok(())
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no embeddings are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Table id of row `i`.
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    /// Embedding of row `i`.
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.vecs[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole flat `len × dim` segment.
    pub fn vectors(&self) -> &[f32] {
        &self.vecs
    }

    /// Set (or replace) a metadata key.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(pair) = self.meta.iter_mut().find(|(k, _)| k == key) {
            pair.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Look up a metadata key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All metadata pairs in insertion order.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Atomically persist to `path`. Returns the file size in bytes.
    pub fn save(&self, path: &Path) -> Result<u64, IndexError> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.dim as u32).to_le_bytes());
        meta.extend_from_slice(&(self.len() as u64).to_le_bytes());
        meta.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        for (k, v) in &self.meta {
            put_str(&mut meta, k);
            put_str(&mut meta, v);
        }
        let mut tids = Vec::new();
        tids.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for id in &self.ids {
            put_str(&mut tids, id);
        }
        let mut vecs = Vec::with_capacity(self.vecs.len() * 4);
        for v in &self.vecs {
            vecs.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let sections = [(TAG_META, meta), (TAG_TIDS, tids), (TAG_VECS, vecs)];
        Ok(save_sections(path, MAGIC, VERSION, &sections)?.bytes)
    }

    /// Transactionally load from `path`: either a fully verified store or a
    /// typed error — truncated and corrupted files never panic.
    pub fn load(path: &Path) -> Result<EmbeddingStore, IndexError> {
        let bytes = std::fs::read(path)?;
        let sections = read_sections(&bytes, MAGIC, VERSION)?;

        let mut r = ByteReader::new(sections.require(TAG_META)?);
        let dim = r.u32()? as usize;
        let count = r.u64()?;
        let n_pairs = r.u32()? as usize;
        let mut meta = Vec::new();
        for _ in 0..n_pairs {
            let k = get_str(&mut r)?;
            let v = get_str(&mut r)?;
            meta.push((k, v));
        }
        if dim == 0 && count > 0 {
            return Err(IndexError::BadFormat(
                "zero-dimensional store with vectors".into(),
            ));
        }

        let mut r = ByteReader::new(sections.require(TAG_TIDS)?);
        let n_ids = r.u64()?;
        if n_ids != count {
            return Err(IndexError::Mismatch(format!(
                "TIDS holds {n_ids} id(s), META declares {count}"
            )));
        }
        let mut ids = Vec::new();
        for _ in 0..n_ids {
            ids.push(get_str(&mut r)?);
        }

        let vecs = sections.require(TAG_VECS)?;
        let expected = count
            .checked_mul(dim as u64)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| IndexError::BadFormat("vector segment size overflows".into()))?;
        if vecs.len() as u64 != expected {
            return Err(IndexError::Mismatch(format!(
                "VECS holds {} byte(s), expected {expected} for {count} × {dim} f32",
                vecs.len()
            )));
        }
        let vecs = ByteReader::new(vecs).f32s((count as usize) * dim)?;

        Ok(EmbeddingStore {
            dim,
            ids,
            vecs,
            meta,
        })
    }

    /// Exact top-`k` by squared L2 distance — the ground truth the recall
    /// harness and `--brute` query path compare against. Ties break toward
    /// the lower row index, matching the ANN search.
    pub fn brute_force_topk(&self, query: &[f32], k: usize) -> Result<Vec<(u32, f32)>, IndexError> {
        if query.len() != self.dim {
            return Err(IndexError::DimMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        if k == 0 || k > self.len() {
            return Err(IndexError::BadK { k, len: self.len() });
        }
        let mut top = TopK::new(k);
        for i in 0..self.len() {
            top.offer(i as u32, l2_sq(query, self.vector(i)));
        }
        Ok(top.into_sorted())
    }
}

/// Bounded best-`k` accumulator with deterministic (distance, id) ordering.
pub(crate) struct TopK {
    k: usize,
    // Kept sorted ascending by (distance, id); worst candidate is last.
    heap: Vec<(u32, f32)>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: Vec::with_capacity(k + 1),
        }
    }

    fn worse(a: (u32, f32), b: (u32, f32)) -> bool {
        match a.1.total_cmp(&b.1) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a.0 > b.0,
        }
    }

    pub(crate) fn offer(&mut self, id: u32, dist: f32) {
        if self.heap.len() == self.k {
            let worst = *self.heap.last().expect("k > 0");
            if !Self::worse(worst, (id, dist)) {
                return;
            }
            self.heap.pop();
        }
        let pos = self.heap.partition_point(|&c| !Self::worse(c, (id, dist)));
        self.heap.insert(pos, (id, dist));
    }

    pub(crate) fn into_sorted(self) -> Vec<(u32, f32)> {
        self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(3);
        s.set_meta("model", "bert");
        s.set_meta("dim", "3");
        for i in 0..8 {
            let f = i as f32;
            s.push(format!("tbl_{i}"), &[f, f * 0.5, -f]).unwrap();
        }
        s
    }

    #[test]
    fn push_rejects_wrong_dim() {
        let mut s = EmbeddingStore::new(3);
        let err = s.push("x", &[1.0, 2.0]).unwrap_err();
        assert_eq!(err.kind(), "DimMismatch");
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("ntrs_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ntrs");
        let s = sample_store();
        let bytes = s.save(&path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let loaded = EmbeddingStore::load(&path).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.dim(), s.dim());
        assert_eq!(loaded.meta(), s.meta());
        for i in 0..s.len() {
            assert_eq!(loaded.id(i), s.id(i));
            assert_eq!(loaded.vector(i), s.vector(i));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_and_cleans_up_tmp() {
        let dir = std::env::temp_dir().join(format!("ntrs_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ntrs");
        sample_store().save(&path).unwrap();
        let mut other = EmbeddingStore::new(2);
        other.push("only", &[1.0, 2.0]).unwrap();
        other.save(&path).unwrap();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::PathBuf::from(tmp).exists());
        let loaded = EmbeddingStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.dim(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_section_is_bad_format() {
        // Two `META` sections, every CRC valid: the loader must not pick one.
        let dir = std::env::temp_dir().join(format!("ntrs_dup_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ntrs");
        sample_store().save(&path).unwrap();
        let image = std::fs::read(&path).unwrap();
        let read = read_sections(&image, MAGIC, VERSION).unwrap();
        let sections: Vec<_> = [TAG_META, TAG_TIDS, TAG_VECS, TAG_META]
            .iter()
            .map(|&tag| (tag, read.require(tag).unwrap().to_vec()))
            .collect();
        save_sections(&path, MAGIC, VERSION, &sections).unwrap();
        let err = EmbeddingStore::load(&path).unwrap_err();
        assert_eq!(err.kind(), "BadFormat", "{err}");
        assert!(err.to_string().contains("more than once"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn brute_force_matches_hand_ranking() {
        let s = sample_store();
        let hits = s.brute_force_topk(s.vector(3), 3).unwrap();
        assert_eq!(hits[0].0, 3);
        assert_eq!(hits[0].1, 0.0);
        assert_eq!(hits.len(), 3);
        // Neighbors of row 3 in this linear layout are rows 2 and 4,
        // equidistant — the tie must break toward the lower id.
        assert_eq!(hits[1].0, 2);
        assert_eq!(hits[2].0, 4);
    }

    #[test]
    fn brute_force_rejects_bad_k_and_dim() {
        let s = sample_store();
        assert_eq!(s.brute_force_topk(&[0.0; 3], 0).unwrap_err().kind(), "BadK");
        assert_eq!(s.brute_force_topk(&[0.0; 3], 9).unwrap_err().kind(), "BadK");
        assert_eq!(
            s.brute_force_topk(&[0.0; 2], 1).unwrap_err().kind(),
            "DimMismatch"
        );
    }

    #[test]
    fn topk_is_deterministic_under_ties() {
        let mut t = TopK::new(2);
        t.offer(5, 1.0);
        t.offer(1, 1.0);
        t.offer(3, 1.0);
        assert_eq!(t.into_sorted(), vec![(1, 1.0), (3, 1.0)]);
    }
}

//! Content-addressed LRU cache of table encodings. What the service stores
//! is table-level (`Rows::CLS`): the `[1, d]` `[CLS]` state plus the
//! serialized table a reply reports the length of, not a state per token.
//!
//! The key is a 64-bit FNV-1a hash over everything that determines an
//! encoding bit-for-bit: the encoder spec (model family *and* serving
//! precision — a student's int8 output must never answer an f32 request),
//! the linearization strategy and its options, the context string, and
//! the table's full content (id, caption, column names, every cell's
//! text, entity annotations, shape).
//! Two requests with identical content therefore share one cached entry,
//! while any single-character difference lands on a different key.
//!
//! Capacity is measured in approximate bytes of the stored encodings, not
//! entry count, because an encoding's size still grows with the table (its
//! serialized ids and token metadata) and any caller may insert a
//! token-level one.
//! Eviction is least-recently-used. Hits, misses, and evictions are
//! counted for the `serve_end` trace event and the metrics snapshot.

use ntr::{EncoderSpec, TableEncoding};
use ntr_table::{LinearizerOptions, Table};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher. Field boundaries are marked with a
/// `0xFF` separator byte (invalid UTF-8, so no string content can collide
/// with a boundary).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The cache key for one encode request: hashes every input that the
/// encoding depends on.
pub fn content_key(
    spec: EncoderSpec,
    linearizer_name: &str,
    opts: &LinearizerOptions,
    table: &Table,
    context: &str,
) -> u64 {
    key_stream(
        spec,
        linearizer_name,
        opts,
        context,
        (&table.id, &table.caption, table.n_rows()),
        table.columns().iter().map(|c| c.name.as_str()),
        table
            .rows()
            .iter()
            .flatten()
            .map(|c| (c.raw.as_str(), c.entity)),
    )
}

/// The one key stream, fed by a built table ([`content_key`]) or a scanned
/// line ([`crate::wire::Body::key`]): `table` is (id, caption, rows), and
/// `cells` run row-major as (text, entity).
pub(crate) fn key_stream<'s>(
    spec: EncoderSpec,
    linearizer_name: &str,
    opts: &LinearizerOptions,
    context: &str,
    (id, caption, n_rows): (&str, &str, usize),
    columns: impl ExactSizeIterator<Item = &'s str>,
    cells: impl Iterator<Item = (&'s str, Option<u32>)>,
) -> u64 {
    let mut h = Fnv64::new();
    h.str(spec.kind.name());
    h.str(spec.precision.name());
    h.str(linearizer_name);
    h.num(opts.max_tokens as u64);
    h.num(opts.context_position as u64);
    h.str(context);
    h.str(id);
    h.str(caption);
    h.num(n_rows as u64);
    h.num(columns.len() as u64);
    columns.for_each(|name| h.str(name));
    for (raw, entity) in cells {
        h.str(raw);
        // Widen before the +1: `e + 1` in u32 wraps (panics in debug)
        // at `e == u32::MAX`, colliding annotated cells with bare ones.
        h.num(entity.map_or(0u64, |e| u64::from(e) + 1));
    }
    h.0
}

/// Approximate heap footprint of one cached encoding, in bytes.
fn approx_bytes(enc: &TableEncoding) -> usize {
    std::mem::size_of_val(enc.states.data()) + enc.encoded.heap_bytes() + 64 // map/entry overhead
}

struct Entry {
    enc: Arc<TableEncoding>,
    tick: u64,
    bytes: usize,
}

/// Counter snapshot for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Approximate bytes held right now.
    pub bytes: usize,
}

/// Byte-capacity LRU cache of [`TableEncoding`]s keyed by content hash.
///
/// A capacity of 0 disables the cache entirely: every lookup misses and
/// nothing is stored (used by benchmarks that must measure raw encode
/// throughput).
pub struct EmbeddingCache {
    capacity: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>, // recency tick -> key
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl EmbeddingCache {
    /// An empty cache holding at most `capacity_bytes` of encodings.
    pub fn new(capacity_bytes: usize) -> Self {
        EmbeddingCache {
            capacity: capacity_bytes,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<TableEncoding>> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                self.lru.remove(&entry.tick);
                self.tick += 1;
                entry.tick = self.tick;
                self.lru.insert(self.tick, key);
                Some(Arc::clone(&entry.enc))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores an encoding under `key`, evicting least-recently-used
    /// entries until the total fits the byte capacity. An encoding larger
    /// than the whole capacity is not stored at all.
    pub fn insert(&mut self, key: u64, enc: Arc<TableEncoding>) {
        if self.capacity == 0 {
            return;
        }
        let bytes = approx_bytes(&enc);
        if bytes > self.capacity {
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.lru.remove(&old.tick);
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.capacity {
            let (&oldest_tick, &oldest_key) = self
                .lru
                .iter()
                .next()
                .expect("bytes > 0 implies a live entry");
            self.lru.remove(&oldest_tick);
            let victim = self.map.remove(&oldest_key).expect("lru and map agree");
            self.bytes -= victim.bytes;
            self.evictions += 1;
        }
        self.tick += 1;
        self.lru.insert(self.tick, key);
        self.map.insert(
            key,
            Entry {
                enc,
                tick: self.tick,
                bytes,
            },
        );
        self.bytes += bytes;
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr::{build_encoder, ModelKind, Pipeline};
    use ntr_table::{Linearizer, RowMajorLinearizer};

    fn table(id: &str, cell: &str) -> Table {
        Table::from_strings(id, &["a", "b"], &[&[cell, "2"], &["3", "4"]])
    }

    fn encoding(cell: &str) -> Arc<TableEncoding> {
        let t = table("t", cell);
        let pipeline = Pipeline::builder()
            .vocab_from_tables(std::slice::from_ref(&t))
            .vocab_size(300)
            .build()
            .unwrap();
        let mut model = build_encoder(
            EncoderSpec::f32(ModelKind::Bert),
            &pipeline.default_config(),
        )
        .unwrap();
        Arc::new(pipeline.encode(model.as_mut(), &t, ""))
    }

    fn bert() -> EncoderSpec {
        EncoderSpec::f32(ModelKind::Bert)
    }

    #[test]
    fn key_is_content_sensitive() {
        let opts = LinearizerOptions::default();
        let lin = RowMajorLinearizer;
        let base = content_key(bert(), lin.name(), &opts, &table("t", "1"), "q");
        // Identical content -> identical key.
        assert_eq!(
            base,
            content_key(bert(), lin.name(), &opts, &table("t", "1"), "q")
        );
        // Any differing component -> different key.
        for other in [
            content_key(
                EncoderSpec::f32(ModelKind::Tapas),
                lin.name(),
                &opts,
                &table("t", "1"),
                "q",
            ),
            content_key(bert(), "template", &opts, &table("t", "1"), "q"),
            content_key(bert(), lin.name(), &opts, &table("t", "9"), "q"),
            content_key(bert(), lin.name(), &opts, &table("u", "1"), "q"),
            content_key(bert(), lin.name(), &opts, &table("t", "1"), "r"),
        ] {
            assert_ne!(base, other);
        }
        // Entity annotations are part of the content.
        let mut with_entity = table("t", "1");
        with_entity.cell_mut(0, 0).entity = Some(7);
        assert_ne!(
            base,
            content_key(bert(), lin.name(), &opts, &with_entity, "q")
        );
    }

    #[test]
    fn key_separates_precisions() {
        // A student's int8 encoding is a different bit pattern from its
        // f32 one; the precision must therefore be part of the key.
        let opts = LinearizerOptions::default();
        let lin = RowMajorLinearizer;
        let student = ModelKind::RowStudent;
        assert_ne!(
            content_key(
                EncoderSpec::f32(student),
                lin.name(),
                &opts,
                &table("t", "1"),
                "q"
            ),
            content_key(
                EncoderSpec::int8(student),
                lin.name(),
                &opts,
                &table("t", "1"),
                "q"
            ),
        );
    }

    #[test]
    fn key_survives_max_entity_id() {
        // Regression: the +1 disambiguating Some(e) from None used to run in
        // u32 and wrap (panic in debug) at e == u32::MAX. It must widen
        // first, keeping the three states distinct.
        let opts = LinearizerOptions::default();
        let lin = RowMajorLinearizer;
        let bare = content_key(bert(), lin.name(), &opts, &table("t", "1"), "q");
        let mut max_id = table("t", "1");
        max_id.cell_mut(0, 0).entity = Some(u32::MAX);
        let max_key = content_key(bert(), lin.name(), &opts, &max_id, "q");
        let mut near_max = table("t", "1");
        near_max.cell_mut(0, 0).entity = Some(u32::MAX - 1);
        let near_key = content_key(bert(), lin.name(), &opts, &near_max, "q");
        assert_ne!(bare, max_key);
        assert_ne!(max_key, near_key);
    }

    /// An entry's size counts the serialized table's two span maps, not
    /// only its states and token arrays: the maps are about 40 % of it.
    #[test]
    fn an_entry_counts_its_span_maps() {
        use std::mem::{size_of, size_of_val};
        use std::ops::Range;
        let enc = encoding("1");
        let e = &enc.encoded;
        let headers = (0..e.n_cols()).filter(|&c| e.header_span(c).is_some());
        let spans = e.cells().count() * size_of::<((usize, usize), Range<usize>)>()
            + headers.count() * size_of::<(usize, Range<usize>)>();
        let arrays = size_of_val(enc.states.data()) + size_of_val(e.ids()) + size_of_val(e.meta());
        assert!(spans > 0, "the test table has encoded cells");
        assert!(
            approx_bytes(&enc) >= arrays + spans,
            "{} bytes counted for {arrays} bytes of arrays and {spans} of span entries",
            approx_bytes(&enc)
        );
    }

    #[test]
    fn lru_eviction_by_bytes() {
        let enc = encoding("1");
        let one = approx_bytes(&enc);
        // Room for exactly two entries.
        let mut cache = EmbeddingCache::new(2 * one + 1);
        cache.insert(1, Arc::clone(&enc));
        cache.insert(2, Arc::clone(&enc));
        assert!(cache.get(1).is_some()); // 1 is now more recent than 2
        cache.insert(3, Arc::clone(&enc)); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut cache = EmbeddingCache::new(0);
        cache.insert(1, encoding("1"));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let enc = encoding("1");
        let one = approx_bytes(&enc);
        let mut cache = EmbeddingCache::new(4 * one);
        cache.insert(1, Arc::clone(&enc));
        cache.insert(1, Arc::clone(&enc));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, one);
        assert_eq!(stats.evictions, 0);
    }
}

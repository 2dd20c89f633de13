//! Exact recall@k harness over the synthetic KB: encode a real `ntr-corpus`
//! table corpus through the real pipeline, index the embeddings, and compare
//! IVF answers against brute-force ground truth.

use ntr::corpus::{CorpusConfig, TableCorpus, World, WorldConfig};
use ntr::table::LinearizerOptions;
use ntr::{build_encoder, EncodeRequest, EncoderSpec, ModelKind, Pipeline};
use ntr_index::{EmbeddingStore, IvfConfig, IvfIndex, SearchIndex};

const K: usize = 10;

/// Encodes a synthetic-KB corpus: the first `n_stored` tables fill the
/// store, the rest come back as held-out query vectors.
fn encode_corpus(corpus: &CorpusConfig, n_stored: usize) -> (EmbeddingStore, Vec<Vec<f32>>) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(&world, corpus);
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(600)
        .options(LinearizerOptions {
            max_tokens: 64,
            ..LinearizerOptions::default()
        })
        .build()
        .expect("vocab training");
    let cfg = ntr::models::ModelConfig::tiny(pipeline.tokenizer().vocab_size());
    let mut model = build_encoder(EncoderSpec::f32(ModelKind::Bert), &cfg).expect("f32 spec");
    let mut store = EmbeddingStore::new(cfg.d_model);
    let mut queries = Vec::new();
    let reqs: Vec<EncodeRequest> = corpus
        .tables
        .iter()
        .map(|t| EncodeRequest::captioned(t.clone()))
        .collect();
    for chunk in reqs.chunks(64) {
        let encodings = pipeline
            .encode_batch(model.as_mut(), chunk)
            .expect("encode_batch");
        for (req, enc) in chunk.iter().zip(encodings.iter()) {
            let emb = enc.table_embedding();
            if store.len() < n_stored {
                store.push(req.table.id.clone(), emb.data()).unwrap();
            } else {
                queries.push(emb.data().to_vec());
            }
        }
    }
    (store, queries)
}

/// Encodes `n_tables` synthetic-KB tables into an embedding store.
fn encoded_store(n_tables: usize) -> EmbeddingStore {
    let corpus = CorpusConfig {
        n_tables,
        ..CorpusConfig::default()
    };
    encode_corpus(&corpus, n_tables).0
}

/// Recall@K of the IVF answers against brute force over `queries`, and the
/// mean number of stored vectors each search scanned.
fn recall_at_k(
    store: &EmbeddingStore,
    ivf: &IvfIndex,
    queries: &[&[f32]],
    nprobe: usize,
) -> (f64, f64) {
    let (mut hit, mut scanned) = (0usize, 0usize);
    for &q in queries {
        let exact = store.brute_force_topk(q, K).unwrap();
        let approx = ivf.search(store, q, K, nprobe).unwrap();
        scanned += approx.scanned;
        for (id, _) in &exact {
            if approx.hits.iter().any(|(a, _)| a == id) {
                hit += 1;
            }
        }
    }
    let n = queries.len() as f64;
    (hit as f64 / (n * K as f64), scanned as f64 / n)
}

#[test]
fn kb_recall_against_brute_force_ground_truth() {
    let store = encoded_store(400);
    assert_eq!(store.len(), 400);
    let ivf = IvfIndex::build(&store, &IvfConfig::default()).unwrap();
    let queries: Vec<&[f32]> = (0..store.len())
        .step_by(9)
        .map(|q| store.vector(q))
        .collect();

    // Probing every list is an exact scan: recall must be perfect and the
    // ranked answers identical to brute force.
    for (i, &q) in queries.iter().take(5).enumerate() {
        let exact = store.brute_force_topk(q, K).unwrap();
        let approx = ivf.search(&store, q, K, ivf.nlist()).unwrap();
        assert_eq!(approx.hits, exact, "query {i}");
    }
    assert_eq!(recall_at_k(&store, &ivf, &queries, ivf.nlist()).0, 1.0);

    // The default probe budget scans a fraction of the corpus but must keep
    // recall high on the clustered KB embeddings (the full-size test below
    // holds 0.95; this small-store floor is deliberately looser).
    let (recall, _) = recall_at_k(&store, &ivf, &queries, ivf.default_nprobe());
    assert!(recall >= 0.8, "recall@{K} {recall} < 0.8 at default nprobe");
}

/// Stored tables of the full-size check.
const FULL_STORE: usize = 10_000;
/// Held-out query tables of the full-size check.
const FULL_QUERIES: usize = 200;
/// Least recall@K at the default nprobe on the full-size store.
const MIN_RECALL: f64 = 0.95;
/// Largest share of the store one default-nprobe search may scan: at most a
/// fifth, i.e. at least 5× less work than the exact scan.
const MAX_SCAN_SHARE: f64 = 0.2;

#[test]
fn full_size_store_keeps_recall_at_a_fifth_of_the_brute_force_work() {
    let corpus = CorpusConfig {
        n_tables: FULL_STORE + FULL_QUERIES,
        headerless_prob: 0.0,
        seed: 7,
        ..CorpusConfig::default()
    };
    let (store, held_out) = encode_corpus(&corpus, FULL_STORE);
    assert_eq!((store.len(), held_out.len()), (FULL_STORE, FULL_QUERIES));
    let ivf = IvfIndex::build(&store, &IvfConfig::default()).unwrap();
    let queries: Vec<&[f32]> = held_out.iter().map(Vec::as_slice).collect();

    let (recall, scanned) = recall_at_k(&store, &ivf, &queries, ivf.default_nprobe());
    let share = scanned / store.len() as f64;
    println!(
        "nprobe {} of {}: recall@{K} {recall:.4}, scan share {share:.4}",
        ivf.default_nprobe(),
        ivf.nlist()
    );
    assert!(
        recall >= MIN_RECALL,
        "recall@{K} {recall:.4} < {MIN_RECALL}"
    );
    assert!(
        share <= MAX_SCAN_SHARE,
        "a search scans {share:.4} of the store, over {MAX_SCAN_SHARE}"
    );
}

#[test]
fn kb_store_round_trips_through_search_index() {
    let store = encoded_store(200);
    let ivf = IvfIndex::build(&store, &IvfConfig::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("ntr_index_kb_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    store.save(&dir.join(SearchIndex::STORE_FILE)).unwrap();
    ivf.save(&dir.join(SearchIndex::IVF_FILE)).unwrap();
    let idx = SearchIndex::open(&dir).unwrap();
    let res = idx.search(idx.store.vector(3), 5, None).unwrap();
    assert_eq!(res.hits.len(), 5);
    assert_eq!(res.hits[0].0, 3, "a stored vector is its own nearest hit");
    assert_eq!(res.hits[0].1, 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

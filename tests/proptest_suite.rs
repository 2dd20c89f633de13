//! Property-based tests over the core data structures and invariants,
//! spanning the tensor math, CSV, tokenizer, SQL and masking layers.

use ntr::sql::{execute, parse_query, Answer};
use ntr::table::masking::{mask_mlm, MaskedExample, MlmConfig};
use ntr::table::{parse_csv, write_csv, Linearizer, LinearizerOptions, RowMajorLinearizer, Table};
use ntr::tensor::{par, simd, Tensor};
use ntr::tokenizer::{train::WordPieceTrainer, WordPieceTokenizer};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Tensor algebra
// ---------------------------------------------------------------------

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

proptest! {
    #[test]
    fn matmul_is_associative_enough(a in small_matrix(3, 4), b in small_matrix(4, 2), c in small_matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(ntr::tensor::allclose(left.data(), right.data(), 1e-3, 1e-3));
    }

    #[test]
    fn matmul_distributes_over_addition(a in small_matrix(3, 4), b in small_matrix(4, 2), c in small_matrix(4, 2)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(ntr::tensor::allclose(left.data(), right.data(), 1e-3, 1e-3));
    }

    #[test]
    fn transpose_is_involutive(a in small_matrix(4, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose(a in small_matrix(3, 4), b in small_matrix(5, 4)) {
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        prop_assert!(ntr::tensor::allclose(fast.data(), slow.data(), 1e-4, 1e-4));
    }

    #[test]
    fn softmax_rows_are_probability_distributions(a in small_matrix(4, 7)) {
        let s = a.softmax_rows();
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in small_matrix(2, 5), shift in -100.0f32..100.0) {
        let shifted = a.map(|x| x + shift);
        prop_assert!(ntr::tensor::allclose(
            a.softmax_rows().data(),
            shifted.softmax_rows().data(),
            1e-3,
            1e-4
        ));
    }
}

// ---------------------------------------------------------------------
// The matmul element contract: one k-ordered chain per element
// ---------------------------------------------------------------------

/// `(m, k, n, seed)`: `m` and `n` on both sides of 32, so products fall on
/// both sides of 32³, and `k` from one term to past one 256-long k-panel.
fn product_dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    let k = prop_oneof![Just(1usize), Just(16), Just(64), Just(300)];
    (1usize..=130, k, 1usize..=130, 0u64..u64::MAX)
}

/// Pseudo-random `[rows, cols]` values in `[-1, 1)` drawn from `seed`.
fn operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

/// A pseudo-random ascending subset of `0..len`, possibly empty.
fn pick(len: usize, seed: u64) -> Vec<usize> {
    (0..len)
        .filter(|&i| (i as u64 ^ seed).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63 == 1)
        .collect()
}

fn gather(t: &Tensor, rows: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(&[rows.len(), t.dim(1)]);
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(t.row(r));
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` on the scalar lane and the default lane at 1, 2 and 4 threads.
fn on_every_lane(f: impl Fn() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    for threads in [1, 2, 4] {
        par::with_threads(threads, || simd::force_scalar(&f))?;
        par::with_threads(threads, &f)?;
    }
    Ok(())
}

type Product = fn(&Tensor, &Tensor) -> Tensor;
type Slice = fn(&Tensor, usize, usize) -> Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any part of a product has the bits of that part of the full product:
    /// a subset of `A`'s rows, two `A` operands stacked, a column split of
    /// `B` on and off the 8-wide tile boundary; and rows where `dy` is
    /// exactly zero drop out of `xᵀ·dy` and `Σ_rows dy` without a trace.
    #[test]
    fn a_part_of_a_product_has_the_bits_of_the_full_product((m, k, n, seed) in product_dims()) {
        let a = operand(m, k, seed);
        let a2 = operand(m % 7 + 1, k, seed ^ 1);
        let stacked = Tensor::vstack(&[&a, &a2]);
        let rows = pick(m, seed ^ 2);
        let split = (seed >> 8) as usize % n;
        // `B` is `[k, n]` for `matmul` and `[n, k]` for `matmul_nt`; either
        // way the product's columns are `B`'s `0..n` in `slice`.
        let variants: [(&str, Product, Tensor, Slice); 2] = [
            ("matmul", Tensor::matmul, operand(k, n, seed ^ 3), cols),
            ("matmul_nt", Tensor::matmul_nt, operand(n, k, seed ^ 4), Tensor::rows),
        ];
        on_every_lane(|| {
            for (name, product, b, slice) in &variants {
                let full = product(&a, b);
                prop_assert_eq!(bits(&product(&gather(&a, &rows), b)), bits(&gather(&full, &rows)), "{} rows {:?}", name, rows);
                let both = Tensor::vstack(&[&full, &product(&a2, b)]);
                prop_assert_eq!(bits(&product(&stacked, b)), bits(&both), "{} stacked", name);
                for c in [split / 8 * 8, split] {
                    let halves = [product(&a, &slice(b, 0, c)), product(&a, &slice(b, c, n))];
                    let joined = Tensor::hstack(&[&halves[0], &halves[1]]);
                    prop_assert_eq!(bits(&joined), bits(&full), "{} split at {}", name, c);
                }
            }
            Ok(())
        })?;

        // `xᵀ·dy` over `m` rows of which only `rows` carry a gradient.
        let x = operand(m, k, seed ^ 5);
        let mut dy = Tensor::zeros(&[m, n]);
        let src = operand(m, n, seed ^ 6);
        for &r in &rows {
            dy.row_mut(r).copy_from_slice(src.row(r));
        }
        let (x_kept, dy_kept) = (gather(&x, &rows), gather(&dy, &rows));
        on_every_lane(|| {
            let (full, kept) = (x.matmul_tn(&dy), x_kept.matmul_tn(&dy_kept));
            prop_assert_eq!(bits(&kept), bits(&full), "matmul_tn keeping {:?}", rows);
            prop_assert_eq!(bits(&dy_kept.sum_rows()), bits(&dy.sum_rows()), "sum_rows");
            Ok(())
        })?;
    }
}

/// Columns `[start, end)` of `t`, copied.
fn cols(t: &Tensor, start: usize, end: usize) -> Tensor {
    t.view().col_slice(start, end).to_tensor()
}

/// `t`'s transpose, index by index.
fn transposed(t: &Tensor) -> Tensor {
    let (r, c) = (t.dim(0), t.dim(1));
    Tensor::from_fn(&[c, r], |i| t.data()[(i % r) * c + i / r])
}

/// Columns `[start, start + w)` of `t`, copied index by index.
fn cols_of(t: &Tensor, start: usize, w: usize) -> Tensor {
    let c = t.dim(1);
    Tensor::from_fn(&[t.dim(0), w], |i| t.data()[(i / w) * c + start + i % w])
}

/// `(m, k, n, seed)` as [`product_dims`], with `k = 107` (a head count
/// of rows) among the inner dimensions.
fn strided_dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    let k = prop_oneof![Just(1usize), Just(16), Just(64), Just(107), Just(300)];
    (1usize..=130, k, 1usize..=130, 0u64..u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A product read through strides has the bits of the same product of
    /// dense copies: `A` given transposed (`matmul_tn`), `B` given
    /// transposed (`matmul_nt`), and `A`, `B`, `Aᵀ` and `Bᵀ` as column
    /// slices of wider matrices at a random offset (one attention head's
    /// columns), on both lanes at 1, 2 and 4 threads.
    #[test]
    fn a_strided_product_has_the_bits_of_copy_then_multiply((m, k, n, seed) in strided_dims()) {
        let pad = (seed % 13) as usize + 1;
        let (oa, ob) = ((seed >> 8) as usize % (pad + 1), (seed >> 16) as usize % (pad + 1));
        let (a, b) = (operand(m, k, seed), operand(k, n, seed ^ 1));
        let (at, bt) = (operand(k, m, seed ^ 2), operand(n, k, seed ^ 3));
        let wide_a = operand(m, k + pad, seed ^ 4);
        let wide_b = operand(k, n + pad, seed ^ 5);
        let wide_at = operand(k, m + pad, seed ^ 6);
        let wide_bt = operand(n, k + pad, seed ^ 7);
        let (a_s, b_s) = (cols_of(&wide_a, oa, k), cols_of(&wide_b, ob, n));
        let (at_s, bt_s) = (cols_of(&wide_at, oa, m), cols_of(&wide_bt, ob, k));
        on_every_lane(|| {
            let tn = at.matmul_tn(&b);
            prop_assert_eq!(bits(&tn), bits(&transposed(&at).matmul(&b)), "matmul_tn");
            let nt = a.matmul_nt(&bt);
            prop_assert_eq!(bits(&nt), bits(&a.matmul(&transposed(&bt))), "matmul_nt");
            let sliced = wide_a.view().col_slice(oa, oa + k).matmul(b.view());
            prop_assert_eq!(bits(&sliced), bits(&a_s.matmul(&b)), "A a column slice at {}", oa);
            let sliced = a.view().matmul(wide_b.view().col_slice(ob, ob + n));
            prop_assert_eq!(bits(&sliced), bits(&a.matmul(&b_s)), "B a column slice at {}", ob);
            let heads = wide_at.view().col_slice(oa, oa + m).t().matmul(wide_b.view().col_slice(ob, ob + n));
            prop_assert_eq!(bits(&heads), bits(&transposed(&at_s).matmul(&b_s)), "Aᵀ and B slices");
            let packed = a.view().matmul(wide_bt.view().col_slice(ob, ob + k).t());
            prop_assert_eq!(bits(&packed), bits(&a.matmul(&transposed(&bt_s))), "Bᵀ a slice");
            Ok(())
        })?;
    }
}

/// The one transpose routine is the index-by-index transpose at every shape
/// with rows and columns in `0..=20`, 107 and 871 — whole 8×8 tiles, their
/// edges, and none — read densely or as a column slice (a row stride wider
/// than the row), on both lanes.
#[test]
fn transpose_is_the_index_by_index_transpose() {
    let sizes: Vec<usize> = (0..=20).chain([107, 871]).collect();
    for &r in &sizes {
        for &c in &sizes {
            let t = operand(r, c, (r * 1000 + c) as u64);
            let want = transposed(&t);
            let sliced = (c > 1).then(|| transposed(&cols_of(&t, 1, c - 1)));
            for scalar in [false, true] {
                let check = || {
                    assert_eq!(
                        bits(&t.transpose()),
                        bits(&want),
                        "[{r}, {c}] scalar {scalar}"
                    );
                    if let Some(sliced) = &sliced {
                        let got = t.view().col_slice(1, c).t().to_tensor();
                        assert_eq!(
                            bits(&got),
                            bits(sliced),
                            "[{r}, {c}] sliced, scalar {scalar}"
                        );
                    }
                };
                if scalar {
                    simd::force_scalar(check)
                } else {
                    check()
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// CSV round-trips on arbitrary content
// ---------------------------------------------------------------------

fn csv_field() -> impl Strategy<Value = String> {
    // Arbitrary printable content including the characters CSV must quote.
    proptest::string::string_regex("[ -~]{0,12}").expect("valid regex")
}

proptest! {
    #[test]
    fn csv_roundtrips_arbitrary_fields(
        rows in proptest::collection::vec(proptest::collection::vec(csv_field(), 3), 1..6)
    ) {
        let text = write_csv(&rows);
        let parsed = parse_csv(&text).expect("own output parses");
        prop_assert_eq!(parsed, rows);
    }
}

// ---------------------------------------------------------------------
// Tokenizer invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tokenizer_ids_are_always_in_vocab(text in "[a-z0-9 .,|:;]{0,40}") {
        let corpus = ["the quick brown fox 0 1 2 3 4 5 6 7 8 9 . , | : ;"];
        let tok = WordPieceTokenizer::new(WordPieceTrainer::new(300).train(corpus.iter().copied()));
        for id in tok.encode(&text) {
            prop_assert!(id < tok.vocab_size());
        }
    }

    #[test]
    fn decode_of_known_words_roundtrips(words in proptest::collection::vec("(fox|quick|brown|the)", 0..6)) {
        let corpus = ["the quick brown fox the quick brown fox"];
        let tok = WordPieceTokenizer::new(WordPieceTrainer::new(300).train(corpus.iter().copied()));
        let text = words.join(" ");
        prop_assert_eq!(tok.decode(&tok.encode(&text)), text);
    }
}

// ---------------------------------------------------------------------
// SQL engine invariants on arbitrary numeric tables
// ---------------------------------------------------------------------

fn numeric_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec(proptest::collection::vec(-1000i64..1000, 2), 1..8).prop_map(|rows| {
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|x| x.to_string()).collect())
            .collect();
        let refs: Vec<Vec<&str>> = data
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let slices: Vec<&[&str]> = refs.iter().map(Vec::as_slice).collect();
        Table::from_strings("prop", &["a", "b"], &slices)
    })
}

proptest! {
    #[test]
    fn sql_count_never_exceeds_rows(table in numeric_table(), threshold in -1000i64..1000) {
        let q = parse_query(&format!("SELECT COUNT a FROM t WHERE b > {threshold}")).expect("parses");
        let ans = execute(&q, &table).expect("executes");
        let count: usize = ans.denotation()[0].parse().expect("count is integer");
        prop_assert!(count <= table.n_rows());
    }

    #[test]
    fn sql_where_partition(table in numeric_table(), threshold in -1000i64..1000) {
        // rows(b > t) + rows(b <= t) == rows
        let gt = execute(&parse_query(&format!("SELECT a FROM t WHERE b > {threshold}")).expect("p"), &table).expect("e");
        let le = execute(&parse_query(&format!("SELECT a FROM t WHERE b <= {threshold}")).expect("p"), &table).expect("e");
        prop_assert_eq!(gt.values.len() + le.values.len(), table.n_rows());
    }

    #[test]
    fn sql_denotation_is_order_insensitive(table in numeric_table()) {
        let all = execute(&parse_query("SELECT a FROM t").expect("p"), &table).expect("e");
        let mut reversed = all.values.clone();
        reversed.reverse();
        let rev = Answer { values: reversed };
        prop_assert!(all.same_denotation(&rev));
    }
}

// ---------------------------------------------------------------------
// Masking invariants on arbitrary small tables
// ---------------------------------------------------------------------

fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{1,6}").expect("valid regex")
}

proptest! {
    #[test]
    fn mlm_masking_preserves_length_and_targets(
        cells in proptest::collection::vec(word(), 6),
        seed in 0u64..1000
    ) {
        let rows: Vec<&str> = cells.iter().map(String::as_str).collect();
        let table = Table::from_strings("m", &["x", "y", "z"], &[&rows[0..3], &rows[3..6]]);
        let tok = WordPieceTokenizer::new(
            WordPieceTrainer::new(500).train([cells.join(" ").as_str(), "x y z |"].into_iter()),
        );
        let encoded = RowMajorLinearizer.linearize(&table, "", &tok, &LinearizerOptions::default());
        let masked = mask_mlm(&encoded, &MlmConfig::bert(tok.vocab_size()), seed);
        prop_assert_eq!(masked.input_ids.len(), encoded.len());
        prop_assert!(masked.n_masked() >= 1);
        for (pos, &target) in masked.targets.iter().enumerate() {
            if target == MaskedExample::IGNORE {
                prop_assert_eq!(masked.input_ids[pos], encoded.ids()[pos]);
            } else {
                prop_assert_eq!(target, encoded.ids()[pos]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Model registry: the one name parser shared by CLI, wire, and META
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn model_names_round_trip_and_strangers_are_rejected(s in "[a-z0-9-]{0,16}") {
        use ntr::zoo::{EncoderSpec, ModelKind, QuantSpec};
        // Display -> FromStr is the identity on every registry kind…
        for kind in ModelKind::ALL {
            prop_assert_eq!(kind.to_string().parse::<ModelKind>(), Ok(kind));
        }
        for q in QuantSpec::ALL {
            prop_assert_eq!(q.to_string().parse::<QuantSpec>(), Ok(q));
        }
        // …and an arbitrary string parses iff it IS a registry name, with
        // the full menu in the error message otherwise.
        match s.parse::<ModelKind>() {
            Ok(kind) => prop_assert_eq!(kind.to_string(), s.clone()),
            Err(msg) => {
                prop_assert!(ModelKind::ALL.iter().all(|k| k.name() != s));
                for k in ModelKind::ALL {
                    prop_assert!(msg.contains(k.name()), "{}", msg);
                }
            }
        }
        // EncoderSpec's display embeds both round-trippable names.
        let spec = EncoderSpec::int8(ModelKind::RowStudent);
        prop_assert_eq!(spec.to_string(), "row-student@int8");
    }
}

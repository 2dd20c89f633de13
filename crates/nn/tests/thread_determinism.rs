//! End-to-end thread-count invariance: a full attention forward/backward and
//! an Adam step must produce bit-identical results whatever the pool size,
//! which is what makes `NTR_THREADS=1` reproduce multithreaded training runs
//! exactly. The transcendental kernels (GELU, the softmax family, the
//! cross-entropy gradient) are held to the same rule on odd lengths, where
//! every partition puts the 8-lane tail somewhere else — on whichever SIMD
//! lane the build and `NTR_SIMD` select.

use ntr_nn::init::SeededInit;
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::optim::Adam;
use ntr_nn::{EncoderLayer, Gelu, Layer, Linear, MultiHeadAttention};
use ntr_tensor::{par, Tensor};

fn attention_round_trip(threads: usize) -> (Tensor, Tensor) {
    par::with_threads(threads, || {
        let mut attn = MultiHeadAttention::new(64, 4, &mut SeededInit::new(7));
        let x = SeededInit::new(8).uniform(&[48, 64], -0.5, 0.5);
        let dy = SeededInit::new(9).uniform(&[48, 64], -1.0, 1.0);
        let y = attn.forward_self(&x, None);
        let dx = attn.backward_self(&dy);
        (y, dx)
    })
}

#[test]
fn attention_is_bit_identical_across_thread_counts() {
    let (y1, dx1) = attention_round_trip(1);
    for threads in [2usize, 3, 6] {
        let (y, dx) = attention_round_trip(threads);
        assert_eq!(y1.data(), y.data(), "forward differs at threads={threads}");
        assert_eq!(
            dx1.data(),
            dx.data(),
            "backward differs at threads={threads}"
        );
    }
}

fn adam_round_trip(threads: usize) -> Tensor {
    par::with_threads(threads, || {
        // Large enough to cross the optimizer's parallel threshold.
        let mut lin = Linear::new(256, 256, &mut SeededInit::new(10));
        let g = SeededInit::new(11).uniform(&[256, 256], -1.0, 1.0);
        let mut adam = Adam::new(1e-3).with_weight_decay(0.01);
        for _ in 0..3 {
            lin.zero_grad();
            lin.w.accumulate(&g);
            adam.step(&mut lin);
        }
        lin.w.value.clone()
    })
}

#[test]
fn adam_updates_are_bit_identical_across_thread_counts() {
    let w1 = adam_round_trip(1);
    for threads in [2usize, 5, 8] {
        let w = adam_round_trip(threads);
        assert_eq!(w1.data(), w.data(), "weights differ at threads={threads}");
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` at 1, 2 and 4 threads and asserts every output tensor has the
/// same bits each time.
fn assert_thread_invariant(what: &str, f: impl Fn() -> Vec<Tensor>) {
    let reference = par::with_threads(1, &f);
    for threads in [2usize, 4] {
        let got = par::with_threads(threads, &f);
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "{what}: output {i} differs at threads={threads}"
            );
        }
    }
}

#[test]
fn gelu_is_bit_identical_across_thread_counts() {
    // 301·257 floats: past the element-wise grain, odd in both dimensions.
    let x = SeededInit::new(12).uniform(&[301, 257], -6.0, 6.0);
    let dy = SeededInit::new(13).uniform(&[301, 257], -1.0, 1.0);
    assert_thread_invariant("gelu", || {
        let mut g = Gelu::default();
        let y = g.forward(&x);
        let approx = g.forward_approx(&x);
        let dx = g.backward(&dy);
        vec![y, approx, dx]
    });
}

#[test]
fn softmax_family_is_bit_identical_across_thread_counts() {
    let mut logits = SeededInit::new(14).uniform(&[101, 131], -8.0, 8.0);
    for r in 0..101 {
        for c in (0..131).filter(|c| (c + r) % 7 == 0) {
            logits.set(&[r, c], f32::NEG_INFINITY);
        }
    }
    let wide = SeededInit::new(15).uniform(&[37, 1013], -4.0, 4.0);
    let targets: Vec<usize> = (0..37).map(|i| (i * 53) % 1013).collect();
    assert_thread_invariant("softmax", || {
        let mut fused = logits.clone();
        fused.scale_mask_softmax_rows(0.25, None);
        let (loss, dlogits) = softmax_cross_entropy(&wide, &targets, None);
        vec![
            logits.softmax_rows(),
            logits.log_softmax_rows(),
            fused,
            Tensor::from_vec(vec![loss], &[1]),
            dlogits,
        ]
    });
}

#[test]
fn encoder_layer_is_bit_identical_across_thread_counts() {
    // 131 tokens: the heads fan out, and every row ends in a 3-lane tail.
    let x = SeededInit::new(16).uniform(&[131, 64], -0.5, 0.5);
    let dy = SeededInit::new(17).uniform(&[131, 64], -1.0, 1.0);
    assert_thread_invariant("encoder layer", || {
        let mut layer = EncoderLayer::new(64, 4, 128, 0.0, &mut SeededInit::new(18));
        let y = layer.forward(&x, None, true);
        let dx = layer.backward(&dy);
        vec![y, dx]
    });
}

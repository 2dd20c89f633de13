//! Training state held outside the model: an example's flat gradient
//! buffer ([`Grads`]) and its dropout streams, together one [`Cx`].

use crate::param::UNBOUND;
use crate::{Layer, Param};
use ntr_tensor::{grain, par, simd, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A model's gradients, one `f32` per parameter scalar, back to back in
/// [`Layer::visit_params`] order. [`Grads::new`] binds each parameter to
/// its offset, where a layer's backward then accumulates ([`Grads::add`]).
#[derive(Debug, Clone)]
pub struct Grads {
    data: Vec<f32>,
    layout: Arc<Layout>,
}

/// Where each parameter starts (then the total), and how many dropout
/// streams the model has.
#[derive(Debug)]
struct Layout {
    starts: Vec<usize>,
    streams: usize,
}

impl Grads {
    /// Zeroed gradients for `model`, binding each of its parameters to its
    /// offset and each of its dropouts to its stream index in one visit
    /// of each. Rebinding a model that was bound before changes nothing.
    pub fn new(model: &mut dyn Layer) -> Self {
        let mut starts = vec![0];
        model.visit_params(&mut |_, p| {
            p.at = starts[starts.len() - 1];
            starts.push(p.at + p.value.numel());
        });
        let mut streams = 0;
        model.visit_rng_state(&mut |_, d| {
            d.at = streams;
            streams += 1;
        });
        let data = vec![0.0; starts[starts.len() - 1]];
        let layout = Arc::new(Layout { starts, streams });
        Self { data, layout }
    }

    /// Zeroed gradients of the same layout.
    pub(crate) fn zeros_like(&self) -> Self {
        let data = vec![0.0; self.data.len()];
        let layout = self.layout.clone();
        Self { data, layout }
    }

    /// Sets every gradient to zero, keeping the buffer.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Whether `other` lays out the same parameters and streams.
    pub fn same_layout(&self, other: &Grads) -> bool {
        let (a, b) = (&self.layout, &other.layout);
        Arc::ptr_eq(a, b) || (a.starts == b.starts && a.streams == b.streams)
    }

    /// Every gradient scalar, in visit order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Every gradient scalar, mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Each parameter's gradient, in visit order.
    pub fn params(&self) -> impl Iterator<Item = &[f32]> {
        self.layout
            .starts
            .windows(2)
            .map(|w| &self.data[w[0]..w[1]])
    }

    /// `p`'s gradient; panics if `p` was never bound (see [`Grads::new`]).
    pub fn of(&self, p: &Param) -> &[f32] {
        &self.data[self.span(p)]
    }

    /// `p`'s gradient, mutably; panics if `p` was never bound.
    pub(crate) fn of_mut(&mut self, p: &Param) -> &mut [f32] {
        let span = self.span(p);
        &mut self.data[span]
    }

    /// Accumulates `g`, of `p`'s shape, into `p`'s gradient.
    pub fn add(&mut self, p: &Param, g: &Tensor) {
        assert_eq!(p.value.shape(), g.shape(), "gradient shape mismatch");
        let (g, on) = (g.data(), simd::active());
        let threads = grain::threads_for(grain::Work::StreamBytes(g.len().saturating_mul(12)));
        par::for_chunks(self.of_mut(p), 1, threads, |start, chunk| {
            simd::add_assign(on, chunk, &g[start..start + chunk.len()]);
        });
    }

    fn span(&self, p: &Param) -> std::ops::Range<usize> {
        assert!(
            p.at != UNBOUND,
            "a parameter of shape {:?} was never bound to a gradient buffer: \
             its model's visit_params does not reach it, or Grads::new never ran on it",
            p.value.shape()
        );
        p.at..p.at + p.value.numel()
    }
}

/// Adds the gradients of contexts of the master's layout into `master`,
/// context after context, and zeroes them: the sum depends on the
/// contexts' order alone. The training supervisor folds its examples with
/// it, TaBERT its row and column passes and bi-encoder retrieval its
/// sequences.
pub fn merge_grads(master: &mut Grads, sets: &mut [Cx]) {
    // Small blocks, aligned at each parameter's start, keep the master's
    // slice in L1 across the sets and skip a set's untouched (+0.0) rows,
    // such as most of an embedding table.
    const BLOCK: usize = 64;
    for set in sets.iter() {
        assert!(set.grads.same_layout(master), "gradient layout");
    }
    for w in master.layout.starts.windows(2) {
        for b in (w[0]..w[1]).step_by(BLOCK) {
            let block = b..(b + BLOCK).min(w[1]);
            for set in sets.iter_mut() {
                let src = &mut set.grads.data[block.clone()];
                if src.iter().fold(0, |bits, s| bits | s.to_bits()) != 0 {
                    for (g, s) in master.data[block.clone()].iter_mut().zip(src) {
                        *g += std::mem::take(s);
                    }
                }
            }
        }
    }
}

/// One example's training context: its [`Grads`] and one RNG per dropout
/// stream of the model (`Dropout` draws from its stream by the index
/// [`Grads::new`] bound). Layers train through `&self` and write here, so
/// any number of contexts train on one set of weights at once.
#[derive(Debug, Clone)]
pub struct Cx {
    /// The example's gradients.
    pub grads: Grads,
    streams: Vec<StdRng>,
}

impl Cx {
    /// A context for `model` (bound by [`Grads::new`]): zeroed gradients,
    /// and each stream where the model's dropout stands.
    pub fn new(model: &mut dyn Layer) -> Self {
        let grads = Grads::new(model);
        let mut streams = Vec::new();
        model.visit_rng_state(&mut |_, d| {
            let mut s = StdRng::seed_from_u64(0);
            s.set_state(d.state());
            streams.push(s);
        });
        Self { grads, streams }
    }

    /// A zeroed context of `grads`' layout whose streams are unseeded until
    /// [`Cx::set_streams`].
    pub fn like(grads: &Grads) -> Self {
        let streams = vec![StdRng::seed_from_u64(0); grads.layout.streams];
        let grads = grads.zeros_like();
        Self { grads, streams }
    }

    /// A zeroed context whose streams stand where this one's do: a pass
    /// that shares the example's weights and masks (TaBERT's rows and
    /// columns, retrieval's sequences).
    pub fn fork(&self) -> Self {
        let grads = self.grads.zeros_like();
        let streams = self.streams.clone();
        Self { grads, streams }
    }

    /// Sets stream `k` to `state(k)`, for every stream.
    pub fn set_streams(&mut self, mut state: impl FnMut(usize) -> [u64; 4]) {
        for (k, s) in self.streams.iter_mut().enumerate() {
            s.set_state(state(k));
        }
    }

    /// Where each stream stands, in stream order.
    pub fn stream_states(&self) -> impl Iterator<Item = [u64; 4]> + '_ {
        self.streams.iter().map(StdRng::state)
    }

    /// The stream a dropout bound to index `at` draws from.
    pub(crate) fn stream(&mut self, at: usize) -> &mut StdRng {
        assert!(
            at != UNBOUND,
            "a dropout was never bound to a stream: a layer's visit_rng_state does not reach it"
        );
        let n = self.streams.len();
        (self.streams.get_mut(at)).unwrap_or_else(|| {
            panic!("dropout stream {at} is not among this context's {n}: its model's visit_rng_state does not reach it")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SeededInit;
    use crate::Linear;

    #[test]
    fn binding_lays_parameters_out_in_visit_order() {
        let mut l = Linear::new(3, 2, &mut SeededInit::new(1));
        let mut g = Grads::new(&mut l);
        assert_eq!(g.data().len(), 8);
        g.add(&l.b, &Tensor::ones(&[2]));
        g.add(&l.b, &Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0]);
        assert_eq!(g.of(&l.b), &[2.0, 2.0]);
        let lens: Vec<usize> = g.params().map(<[f32]>::len).collect();
        assert_eq!(lens, [6, 2]);
        g.zero();
        assert!(g.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "a parameter of shape [2] was never bound")]
    fn an_unbound_parameter_panics_on_its_first_gradient_write() {
        let mut bound = Linear::new(3, 2, &mut SeededInit::new(1));
        let mut g = Grads::new(&mut bound);
        g.add(&Param::new(Tensor::zeros(&[2])), &Tensor::ones(&[2]));
    }

    #[test]
    fn merge_adds_in_set_order_and_zeroes_the_sets() {
        let mut l = Linear::new(3, 2, &mut SeededInit::new(1));
        let mut master = Grads::new(&mut l);
        let mut sets = vec![Cx::like(&master), Cx::like(&master)];
        sets[0].grads.add(&l.w, &Tensor::full(&[3, 2], 1.5));
        sets[1].grads.add(&l.b, &Tensor::ones(&[2]));
        merge_grads(&mut master, &mut sets);
        assert_eq!(master.data(), &[1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.0, 1.0]);
        assert!(sets
            .iter()
            .all(|s| s.grads.data().iter().all(|&x| x == 0.0)));
    }
}

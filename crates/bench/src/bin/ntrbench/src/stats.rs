//! Arithmetic the report rests on: percentiles, the median-of-three rule,
//! and the seeded generator behind every input and the open-loop schedule.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `xs` in place and returns its nearest-rank percentile.
pub fn percentile_of(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_unstable_by(f64::total_cmp);
    percentile(xs, p)
}

/// Median of an unsorted sample (nearest rank, so always a measured value).
pub fn median(xs: &[f64]) -> f64 {
    percentile_of(&mut xs.to_vec(), 0.5)
}

/// A metric measured once per sub-window: the reported value is the median
/// of the sub-window values and `spread` is `(max - min) / median`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub value: f64,
    pub spread: f64,
}

pub fn windowed(per_window: &[f64]) -> Windowed {
    let value = median(per_window);
    let max = per_window.iter().copied().fold(f64::MIN, f64::max);
    let min = per_window.iter().copied().fold(f64::MAX, f64::min);
    let spread = if value != 0.0 {
        (max - min) / value.abs()
    } else {
        0.0
    };
    Windowed { value, spread }
}

/// SplitMix64: small, seedable, and the same on every platform, so a seed
/// names one set of inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }
}

/// The traffic classes of the `mixed_open` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One of the pre-warmed keys: answered from the cache.
    Hot,
    /// `tapas` at f32 with a fresh context: a full encoder pass.
    TeacherMiss,
    /// `row-student` at int8 with a fresh context.
    StudentMiss,
    /// `{"cmd": "search"}`: a teacher encode, then the index probe.
    Search,
}

/// One open-loop arrival: when it is due (ns after the schedule starts)
/// and what it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub class: Class,
}

/// Poisson arrivals at `rate_per_s` over `horizon_ns`. Classes are dealt in
/// shuffled blocks of ten (3 hot, 5 teacher misses, 1 student miss, 1
/// search), so the shares are 30/50/10/10 over any stretch, not only on
/// average. A pure function of the seed: the server's speed cannot change
/// what is offered.
pub fn open_loop_schedule(seed: u64, rate_per_s: f64, horizon_ns: u64) -> Vec<Arrival> {
    use Class::{Hot, Search, StudentMiss, TeacherMiss};
    let mut rng = Rng::new(seed ^ 0x09E7_100B);
    let mut block = [
        Hot,
        Hot,
        Hot,
        TeacherMiss,
        TeacherMiss,
        TeacherMiss,
        TeacherMiss,
        TeacherMiss,
        StudentMiss,
        Search,
    ];
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let slot = out.len() % block.len();
        if slot == 0 {
            for i in (1..block.len()).rev() {
                block.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        t += -(1.0 - rng.unit()).ln() / rate_per_s * 1e9;
        if t >= horizon_ns as f64 {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            class: block[slot],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 19 samples: p95 needs 18.05 of them at or below, so it is the max.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 19.0);
    }

    #[test]
    fn median_of_three_and_spread() {
        let w = windowed(&[4.0, 5.0, 4.5]);
        assert_eq!(w.value, 4.5);
        assert!((w.spread - 1.0 / 4.5).abs() < 1e-12);
        // The median is a measured value, never an average of two.
        assert_eq!(windowed(&[1.0, 3.0]).value, 1.0);
        assert_eq!(windowed(&[2.0, 2.0, 2.0]).spread, 0.0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = open_loop_schedule(17, 200.0, 2_000_000_000);
        let b = open_loop_schedule(17, 200.0, 2_000_000_000);
        let c = open_loop_schedule(18, 200.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 2_000_000_000);
        // About 400 arrivals, three in every full block of ten hot.
        assert!((300..500).contains(&a.len()), "{} arrivals", a.len());
        for block in a.chunks_exact(10) {
            assert_eq!(block.iter().filter(|x| x.class == Class::Hot).count(), 3);
            assert_eq!(block.iter().filter(|x| x.class == Class::Search).count(), 1);
        }
    }
}

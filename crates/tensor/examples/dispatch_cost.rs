//! What one pool dispatch costs: a 2-chunk `par::map_tasks` of trivial
//! work, timed back to back and after 1 ms idle, when the workers have
//! parked. Prints the median and p90 of each, in microseconds:
//!
//! ```sh
//! cargo run --release -p ntr-tensor --example dispatch_cost
//! ```

use ntr_tensor::par;
use std::time::{Duration, Instant};

fn dispatch_us() -> f64 {
    let t = Instant::now();
    std::hint::black_box(par::map_tasks(2, 2, std::hint::black_box));
    t.elapsed().as_secs_f64() * 1e6
}

fn report(what: &str, mut us: Vec<f64>) {
    us.sort_by(f64::total_cmp);
    let at = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    println!(
        "{what:>15}: median {:6.1} us, p90 {:6.1} us over {} dispatches",
        at(0.5),
        at(0.9),
        us.len()
    );
}

fn main() {
    (0..200).for_each(|_| {
        dispatch_us(); // spawn and warm the workers
    });
    report("back to back", (0..2000).map(|_| dispatch_us()).collect());
    let idle = (0..500).map(|_| {
        std::thread::sleep(Duration::from_millis(1));
        dispatch_us()
    });
    report("after 1 ms idle", idle.collect());
}

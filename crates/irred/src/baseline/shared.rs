//! Shared-memory irregular-reduction strategies on the host machine.
//!
//! These are the standard techniques a modern OpenMP/Kokkos programmer
//! would reach for, used by `figs ablation` to put the phased
//! strategy's *native* runs in context:
//!
//! * [`serial_reduction`] — single-threaded loop (the baseline's
//!   baseline);
//! * [`atomic_reduction`] — one shared array updated with CAS loops;
//!   contention-free reads, every update pays an atomic RMW;
//! * [`replicated_reduction`] — each thread accumulates into a private
//!   copy, then the copies are merged in parallel; no atomics in the hot
//!   loop, `O(threads · n)` extra memory and a merge pass.
//!
//! All three compute the same values as [`crate::seq::seq_reduction`]
//! restricted to kernels without read-state updates (asserted).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::kernel::EdgeKernel;
use crate::phased::PhasedSpec;

fn run_kernel_range<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    range: std::ops::Range<usize>,
    mut sink: impl FnMut(usize, f64),
) {
    let m = spec.kernel.num_refs();
    let r_arrays = spec.kernel.num_arrays();
    assert_eq!(r_arrays, 1, "shared baselines support single-array groups");
    let mut out = vec![0.0f64; m];
    let mut elems = vec![0u32; m];
    let read: Vec<f64> = spec.kernel.init_read();
    for i in range {
        for (r, e) in elems.iter_mut().enumerate() {
            *e = spec.indirection[r][i];
        }
        out.fill(0.0);
        spec.kernel.contrib(&read, i, &elems, &mut out);
        for (r, &e) in elems.iter().enumerate() {
            sink(e as usize, out[r]);
        }
    }
}

/// Single-threaded reference; returns `(x, wall)`.
pub fn serial_reduction<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    sweeps: usize,
) -> (Vec<f64>, Duration) {
    assert!(!spec.kernel.updates_read_state());
    let n = spec.num_elements;
    let e = spec.num_iterations();
    let mut x = vec![0.0f64; n];
    let start = Instant::now();
    for _ in 0..sweeps {
        x.fill(0.0);
        run_kernel_range(spec, 0..e, |el, v| x[el] += v);
    }
    (x, start.elapsed())
}

/// CAS-based shared-array reduction on `threads` host threads.
pub fn atomic_reduction<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    threads: usize,
    sweeps: usize,
) -> (Vec<f64>, Duration) {
    assert!(!spec.kernel.updates_read_state());
    assert!(threads >= 1);
    let n = spec.num_elements;
    let e = spec.num_iterations();
    let x: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let start = Instant::now();
    for _ in 0..sweeps {
        for a in x.iter() {
            a.store(0f64.to_bits(), Ordering::Relaxed);
        }
        std::thread::scope(|scope| {
            for t in 0..threads {
                let x = Arc::clone(&x);
                let lo = e * t / threads;
                let hi = e * (t + 1) / threads;
                scope.spawn(move || {
                    run_kernel_range(spec, lo..hi, |el, v| {
                        let cell = &x[el];
                        let mut cur = cell.load(Ordering::Relaxed);
                        loop {
                            let new = (f64::from_bits(cur) + v).to_bits();
                            match cell.compare_exchange_weak(
                                cur,
                                new,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break,
                                Err(seen) => cur = seen,
                            }
                        }
                    });
                });
            }
        });
    }
    let wall = start.elapsed();
    let out = x
        .iter()
        .map(|a| f64::from_bits(a.load(Ordering::Relaxed)))
        .collect();
    (out, wall)
}

/// Replication-based reduction: private arrays merged after each sweep.
pub fn replicated_reduction<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    threads: usize,
    sweeps: usize,
) -> (Vec<f64>, Duration) {
    assert!(!spec.kernel.updates_read_state());
    assert!(threads >= 1);
    let n = spec.num_elements;
    let e = spec.num_iterations();
    let mut x = vec![0.0f64; n];
    let start = Instant::now();
    for _ in 0..sweeps {
        let mut privates: Vec<Vec<f64>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = e * t / threads;
                    let hi = e * (t + 1) / threads;
                    scope.spawn(move || {
                        let mut mine = vec![0.0f64; n];
                        run_kernel_range(spec, lo..hi, |el, v| mine[el] += v);
                        mine
                    })
                })
                .collect();
            for h in handles {
                privates.push(h.join().expect("worker panicked"));
            }
        });
        x.fill(0.0);
        for p in &privates {
            for (xa, pa) in x.iter_mut().zip(p) {
                *xa += pa;
            }
        }
    }
    (x, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WeightedPairKernel;

    fn spec(n: usize, e: usize, seed: u64) -> PhasedSpec<WeightedPairKernel> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new((0..e).map(|_| (next() % 100) as f64).collect()),
            }),
            num_elements: n,
            indirection: Arc::new(vec![
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
            ]),
        }
    }

    #[test]
    fn all_strategies_agree() {
        let s = spec(128, 2_000, 3);
        let (serial, _) = serial_reduction(&s, 2);
        let (atomic, _) = atomic_reduction(&s, 4, 2);
        let (repl, _) = replicated_reduction(&s, 4, 2);
        assert!(crate::approx_eq(&serial, &atomic, 1e-9));
        assert!(crate::approx_eq(&serial, &repl, 1e-9));
    }

    #[test]
    fn single_thread_degenerate() {
        let s = spec(32, 100, 5);
        let (serial, _) = serial_reduction(&s, 1);
        let (atomic, _) = atomic_reduction(&s, 1, 1);
        assert!(crate::approx_eq(&serial, &atomic, 1e-12));
    }
}

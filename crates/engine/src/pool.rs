//! Deterministic scoped-thread fan-out.

/// Runs `f` on every item on scoped OS threads, at most `max_threads` at
/// a time (`0` = all at once), and returns the results **in item order**
/// — the output is independent of thread scheduling. Panics in a job
/// propagate. This one fan-out advances a [`Solver`](crate::Solver)'s
/// in-process islands and runs the other methods' multi-seed ensembles.
///
/// ```
/// let squares = ff_engine::parallel_map(&mut [0, 1, 2, 3, 4], 2, |x| *x * *x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &mut [T], max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let cap = match max_threads {
        0 => items.len().max(1),
        cap => cap,
    };
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    for wave in items.chunks_mut(cap) {
        // A thread for a lone item buys no parallelism, and each
        // short-lived thread may leave glibc's allocator a fresh arena
        // holding its pages, so the process's resident memory would grow
        // with the call count and thread timing.
        if let [item] = wave {
            out.push(f(item));
            continue;
        }
        std::thread::scope(|scope| {
            let jobs: Vec<_> = wave.iter_mut().map(|x| scope.spawn(move || f(x))).collect();
            for job in jobs {
                out.push(job.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order_for_any_thread_cap() {
        let expected: Vec<usize> = (0..17).map(|i| i * 3).collect();
        for cap in [0, 1, 2, 5, 17, 64] {
            let mut items: Vec<usize> = (0..17).collect();
            let out = parallel_map(&mut items, cap, |i| {
                *i += 1;
                (*i - 1) * 3
            });
            assert_eq!(out, expected, "cap {cap}");
            assert_eq!(items, (1..18).collect::<Vec<_>>(), "cap {cap}");
        }
    }

    #[test]
    fn zero_jobs() {
        let out: Vec<u8> = parallel_map(&mut [0u8; 0], 4, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn a_lone_item_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        for (len, cap) in [(1, 0), (3, 1)] {
            let ids = parallel_map(&mut vec![(); len], cap, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == me), "{len} items, cap {cap}");
        }
    }

    #[test]
    fn actually_runs_concurrently_within_a_wave() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        parallel_map(&mut [(); 4], 4, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "no overlap observed");
    }
}

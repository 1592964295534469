//! The parallel execution substrate of the unpruned horizon sweep: a
//! zero-dependency scoped worker pool plus the [`SweepStrategy`] knob that
//! selects it.
//!
//! [`sweep_horizons`](crate::sweep_horizons) solves one independent WDP per
//! candidate horizon `T̂_g ∈ [T_0, T]` — the dominant
//! `O(I·T²(log T + I·J))` term of the paper — so it is embarrassingly
//! parallel. (`run_auction_with` prunes each horizon against the incumbent
//! of the smaller ones, so it runs sequentially.) The pool is built on
//! [`std::thread::scope`] with a shared atomic cursor (chunked round-robin
//! with dynamic stealing of the next index), so it needs no external crates
//! and no `unsafe`.
//!
//! **Determinism.** Parallel execution must be observationally identical to
//! sequential execution:
//!
//! * results are collected per index and merged in input order, so callers
//!   see the same `Vec` regardless of scheduling;
//! * telemetry emitted by workers is [captured](fl_telemetry::capture) and
//!   [replayed](fl_telemetry::replay) on the calling thread in input order,
//!   so span trees, counters and messages reproduce the sequential trace
//!   exactly (span wall-clock durations are the workers' own).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// How [`sweep_horizons`](crate::sweep_horizons) schedules the per-horizon
/// WDPs. [`run_auction_with`](crate::run_auction_with) ignores it: its
/// pruned sweep always runs on the calling thread.
///
/// The default ([`SweepStrategy::default`]) honours the `FL_THREADS`
/// environment variable and otherwise uses the machine's available
/// parallelism. Results are **bit-identical** across strategies: the merge
/// is always performed in ascending horizon order, and worker telemetry is
/// replayed in horizon order.
///
/// ```
/// use fl_auction::SweepStrategy;
///
/// assert_eq!(SweepStrategy::with_threads(1), SweepStrategy::Sequential);
/// assert_eq!(
///     SweepStrategy::with_threads(4),
///     SweepStrategy::Parallel { threads: 4 }
/// );
/// // Explicitly sequential, e.g. for pinned-trace tests:
/// let cfg = fl_auction::AuctionConfig::builder()
///     .sweep_strategy(SweepStrategy::Sequential)
///     .build()?;
/// assert_eq!(cfg.sweep_strategy().threads(), 1);
/// # Ok::<(), fl_auction::AuctionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepStrategy {
    /// Solve horizons one at a time on the calling thread (the seed
    /// behaviour; no worker threads, no telemetry capture).
    Sequential,
    /// Fan horizons out over `threads ≥ 2` scoped workers.
    Parallel {
        /// Number of worker threads (the calling thread only coordinates).
        threads: usize,
    },
}

impl SweepStrategy {
    /// Normalising constructor: `0` and `1` mean [`SweepStrategy::Sequential`],
    /// anything larger means [`SweepStrategy::Parallel`] with that many
    /// threads.
    pub fn with_threads(threads: usize) -> SweepStrategy {
        if threads <= 1 {
            SweepStrategy::Sequential
        } else {
            SweepStrategy::Parallel { threads }
        }
    }

    /// The machine default: [`std::thread::available_parallelism`] workers
    /// (sequential on single-core machines or when the count is unknown).
    /// The count is read from the OS once per process: every config build
    /// lands here, and the query reads cgroup files on Linux.
    pub fn auto() -> SweepStrategy {
        static CORES: OnceLock<usize> = OnceLock::new();
        let threads = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
        SweepStrategy::with_threads(threads)
    }

    /// Reads the `FL_THREADS` environment variable: `1` forces
    /// [`SweepStrategy::Sequential`], `n ≥ 2` forces that worker count, and
    /// unset/empty/invalid values fall back to [`SweepStrategy::auto`].
    pub fn from_env() -> SweepStrategy {
        SweepStrategy::parse(std::env::var("FL_THREADS").ok().as_deref())
    }

    /// Parses an `FL_THREADS`-style value ([`SweepStrategy::from_env`]
    /// without touching the environment, so it is unit-testable).
    pub fn parse(raw: Option<&str>) -> SweepStrategy {
        match raw.map(str::trim) {
            Some(s) if !s.is_empty() => match s.parse::<usize>() {
                Ok(n) => SweepStrategy::with_threads(n),
                Err(_) => SweepStrategy::auto(),
            },
            _ => SweepStrategy::auto(),
        }
    }

    /// The worker count this strategy runs with (1 for sequential).
    pub fn threads(self) -> usize {
        match self {
            SweepStrategy::Sequential => 1,
            SweepStrategy::Parallel { threads } => threads,
        }
    }
}

impl Default for SweepStrategy {
    /// Equivalent to [`SweepStrategy::from_env`].
    fn default() -> SweepStrategy {
        SweepStrategy::from_env()
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers and returns the
/// results in input order.
///
/// With one (effective) worker this runs inline on the calling thread —
/// byte-for-byte the sequential code path. Otherwise workers pull the next
/// unclaimed index from a shared atomic cursor (dynamic load balancing),
/// wrap each call in [`fl_telemetry::capture`] when telemetry is enabled,
/// and the calling thread replays every buffer in input order after the
/// scope joins. A panicking worker propagates its payload to the caller.
pub(crate) fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Copy + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(|&item| f(item)).collect();
    }
    let telemetry = fl_telemetry::enabled();
    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, R, Vec<fl_telemetry::CapturedEvent>)>> =
        thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&item) = items.get(index) else {
                                break;
                            };
                            if telemetry {
                                let (result, events) = fl_telemetry::capture(|| f(item));
                                out.push((index, result, events));
                            } else {
                                out.push((index, f(item), Vec::new()));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(out) => out,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
    let mut slots: Vec<Option<(R, Vec<fl_telemetry::CapturedEvent>)>> =
        (0..items.len()).map(|_| None).collect();
    for (index, result, events) in worker_outputs.into_iter().flatten() {
        slots[index] = Some((result, events));
    }
    slots
        .into_iter()
        .map(|slot| {
            let (result, events) = slot.expect("every index is claimed exactly once");
            fl_telemetry::replay(&events);
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_normalises_degenerate_thread_counts() {
        assert_eq!(SweepStrategy::with_threads(0), SweepStrategy::Sequential);
        assert_eq!(SweepStrategy::with_threads(1), SweepStrategy::Sequential);
        assert_eq!(
            SweepStrategy::with_threads(8),
            SweepStrategy::Parallel { threads: 8 }
        );
        assert_eq!(SweepStrategy::Sequential.threads(), 1);
        assert_eq!(SweepStrategy::Parallel { threads: 3 }.threads(), 3);
    }

    #[test]
    fn parse_covers_the_fl_threads_contract() {
        assert_eq!(SweepStrategy::parse(Some("1")), SweepStrategy::Sequential);
        assert_eq!(
            SweepStrategy::parse(Some(" 6 ")),
            SweepStrategy::Parallel { threads: 6 }
        );
        // Unset, empty and invalid all fall back to auto.
        let auto = SweepStrategy::auto();
        assert_eq!(SweepStrategy::parse(None), auto);
        assert_eq!(SweepStrategy::parse(Some("")), auto);
        assert_eq!(SweepStrategy::parse(Some("lots")), auto);
        assert_eq!(SweepStrategy::parse(Some("-2")), auto);
    }

    #[test]
    fn ordered_map_preserves_input_order() {
        let items: Vec<u32> = (0..67).collect();
        let sequential = ordered_map(&items, 1, |x| x * x);
        let parallel = ordered_map(&items, 4, |x| x * x);
        assert_eq!(sequential, parallel);
        assert_eq!(parallel[13], 169);
        assert!(ordered_map(&Vec::<u32>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn ordered_map_uses_at_most_items_len_workers() {
        // 2 items on 8 requested threads must not spawn 8 workers; just
        // check the results are right (the clamp is internal).
        assert_eq!(ordered_map(&[10u32, 20], 8, |x| x + 1), vec![11, 21]);
    }

    #[test]
    fn ordered_map_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            ordered_map(&[0u32, 1, 2, 3], 2, |x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}

//! `fl-telemetry` — structured tracing, metrics and per-phase profiling for
//! the `A_FL` auction → simulator → bench pipeline.
//!
//! Like `rand`/`proptest` in this workspace, the crate is a vendored
//! zero-dependency stand-in (the build has no registry access) for the
//! instrumentation stack a production deployment would use. It provides
//! three primitives and three sinks:
//!
//! * **Spans** — hierarchical wall-clock-timed regions. [`span!`] returns a
//!   RAII guard; guards nest through a thread-local stack, so
//!   `span!("afl_run")` > `span!("tg_candidate", tg = h)` >
//!   `span!("wdp_greedy")` reconstructs the per-phase profile of Alg. 1.
//! * **Metrics** — monotone [`counter!`]s, last-write [`gauge!`]s, and
//!   [`sample!`]d histograms whose snapshots carry p50/p90/p99 quantiles.
//! * **Messages** — levelled log events ([`error!`] … [`trace!`]) so
//!   library crates never write to stdio directly.
//!
//! # Sinks
//!
//! Instrumentation is inert until a [`Sink`] is installed; with none
//! installed every entry point is a branch on one relaxed atomic plus one
//! thread-local cell (measured < 5% on the `winner` micro-benchmark).
//!
//! * [`EnvLogger`] — human-readable stderr logging filtered by the
//!   `FL_LOG` environment variable (`off|error|warn|info|debug|trace`).
//! * [`Recorder`] — deterministic in-memory aggregation for tests and perf
//!   snapshots: counters, histogram quantiles, and the closed-span tree.
//! * [`JsonlSink`] — a JSON-lines exporter the bench binaries mirror into
//!   `results/telemetry/<run>.jsonl`.
//!
//! Sinks are either **global** ([`install_global`], seen by every thread —
//! what bench binaries use) or **local** ([`install_local`], seen only by
//! the installing thread — what parallel tests use to avoid
//! cross-contamination). Both return guards that uninstall on drop.
//!
//! For fan-out/fan-in parallelism there is a third mode: [`capture()`]
//! diverts a worker thread's events into an owned buffer and [`replay`]
//! re-emits them on the coordinating thread in a deterministic order, with
//! remapped span ids and re-parenting under the coordinator's open span —
//! this is how the parallel `A_FL` horizon sweep keeps its trace identical
//! to the sequential one.
//!
//! # Live observability
//!
//! The sinks above are deterministic and after-the-fact; long-lived
//! services need concurrent, always-on introspection instead. Two
//! standalone primitives (not sinks — they never touch the dispatch path
//! or a recorder's determinism) cover that:
//!
//! * [`LiveMetrics`] — counters and windowed histograms, with on-demand
//!   [`merge`]d snapshots that use the same nearest-rank quantiles.
//! * [`FlightRecorder`] — fixed-capacity rings of recent events, drained
//!   into one causally-ordered, wall-clock-stamped dump.
//!
//! Both keep their state in [`STRIPES`] lock stripes. A thread records
//! into the stripe it was dealt on first use, so concurrent threads mostly
//! take different locks, and every cap is per stripe: memory is bounded
//! by the stripe count, not by how many threads ever recorded.
//!
//! [`merge`]: LiveMetrics::merge
//!
//! # Example
//!
//! ```
//! use fl_telemetry::{counter, install_local, sample, span, Recorder};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::default());
//! let guard = install_local(recorder.clone());
//! {
//!     let _outer = span!("afl_run", clients = 3u32);
//!     let _inner = span!("qualify");
//!     counter!("qualify.accepted", 2);
//!     sample!("pool_depth", 4.0);
//! }
//! drop(guard);
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counters["qualify.accepted"], 2);
//! assert_eq!(snap.roots[0].name, "afl_run");
//! assert_eq!(snap.roots[0].children[0].name, "qualify");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::print_stdout)]

mod capture;
mod dispatch;
mod event;
pub mod flight;
pub mod frame;
pub mod json;
mod jsonl;
mod live;
mod logger;
mod quantile;
mod recorder;

pub use capture::{capture, replay, CapturedEvent};
pub use dispatch::{
    counter, enabled, gauge, install_global, install_local, message, sample, span, span_with,
    GlobalSinkGuard, LocalSinkGuard, SpanGuard,
};
pub use event::{Event, Field, Level, Sink, Value};
pub use flight::{FlightEvent, FlightRecorder};
pub use jsonl::JsonlSink;
pub use live::{LiveHist, LiveMetrics, LiveSnapshot};
pub use logger::EnvLogger;
pub use quantile::HistSummary;
pub use recorder::{PhaseStat, Recorder, Snapshot, SpanNode};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lock stripes per [`LiveMetrics`] and per [`FlightRecorder`]. Their
/// retention caps apply per stripe, so this factor bounds either one's
/// memory whatever the number of recording threads.
pub const STRIPES: usize = 8;

/// The calling thread's stripe in `0..STRIPES`: dealt round-robin across
/// the process on the thread's first record, then fixed for its life.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    MINE.with(|s| *s)
}

/// Locks one stripe, riding through poisoning: recording must keep
/// working even if some thread panicked mid-update, and every update
/// leaves a stripe valid at each step.
fn lock<T>(stripe: &Mutex<T>) -> MutexGuard<'_, T> {
    stripe.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens a timed span: `span!("name")` or `span!("name", key = value, …)`.
///
/// Returns a [`SpanGuard`]; the span closes (and its elapsed time is
/// reported to sinks) when the guard drops. Field values may be any type
/// with a [`Value`] conversion. When no sink is installed the guard is
/// inert and no field is even constructed.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span_with(
                $name,
                vec![$($crate::Field::new(stringify!($key), $value)),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Increments a monotone counter: `counter!("name")` adds 1,
/// `counter!("name", delta)` adds `delta` (any unsigned integer).
#[macro_export]
macro_rules! counter {
    ($name:expr $(,)?) => {
        $crate::counter($name, 1)
    };
    ($name:expr, $delta:expr $(,)?) => {
        $crate::counter($name, $delta as u64)
    };
}

/// Sets a gauge to its latest value: `gauge!("name", 0.98)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(,)?) => {
        $crate::gauge($name, $value as f64)
    };
}

/// Records one histogram observation: `sample!("name", 12.5)`.
#[macro_export]
macro_rules! sample {
    ($name:expr, $value:expr $(,)?) => {
        $crate::sample($name, $value as f64)
    };
}

/// Emits a levelled message with `format!` syntax:
/// `event!(Level::Warn, "round {t} under floor")`. The format arguments are
/// only evaluated when a sink is installed.
#[macro_export]
macro_rules! event {
    ($level:expr, $($arg:tt)*) => {
        if $crate::enabled() {
            $crate::message($level, &format!($($arg)*));
        }
    };
}

/// [`event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::event!($crate::Level::Error, $($arg)*) };
}

/// [`event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::event!($crate::Level::Warn, $($arg)*) };
}

/// [`event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::event!($crate::Level::Info, $($arg)*) };
}

/// [`event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::event!($crate::Level::Debug, $($arg)*) };
}

/// [`event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::event!($crate::Level::Trace, $($arg)*) };
}

//! `fl-certify` — the mechanism certifier: differential fuzzing of `A_FL`
//! against the exact solvers, with a shrinking minimiser and a committed
//! counterexample corpus.
//!
//! The auction stack makes strong claims — near-optimality with a
//! per-instance dual certificate, truthfulness, individual rationality —
//! and this crate is the machinery that *checks* them, instance by
//! instance, against ground truth:
//!
//! * [`gen`] draws small, deterministic instances from degenerate shape
//!   families (`K = 1`, single-bid clients, tight windows, all-tie prices,
//!   `T_0 == T`, monopolists) — every instance is a pure function of its
//!   seed.
//! * [`props`] runs the property engine: differential optimality against
//!   [`fl_exact`]'s two provers, Myerson-threshold truthfulness probes,
//!   loser monotonicity, payment identities, and all of `fl_auction`'s
//!   ILP/IR/certificate verifiers.
//! * [`oracle`] keeps the reference versions of the work `fl_auction`
//!   runs on faster structures: gate-by-gate qualification, the per-round
//!   `HashSet` feasibility check, the certificate's `ω` rescan, and the
//!   row-form full-scan greedy that builds its own dual certificate.
//! * [`replay`] certifies the `fl-flpd` journal-replay invariant: an
//!   epoch recovered from the service's write-ahead journal must be
//!   bit-identical to a fresh solve on the recorded bid set.
//! * [`shrink`] minimises any failure to a locally minimal core that still
//!   violates the same property code.
//! * [`corpus`] serialises counterexamples as replayable one-line JSON and
//!   manages the committed regression corpus under
//!   `crates/certify/corpus/`.
//!
//! The `certify` binary (`certify run | replay | minimise`) wires these
//! into CI; see the repository README for the triage workflow.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Library code reports through return values, never raw stdio; the
// `certify` binary is a separate crate root and prints freely.
#![warn(clippy::print_stdout)]
#![warn(clippy::print_stderr)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod props;
pub mod replay;
pub mod shrink;

pub use corpus::{corpus_dir, from_json, load_dir, to_json, FORMAT_VERSION};
pub use gen::{generate, CertBid, CertInstance, Shape, SplitMix64};
pub use props::{check, Report, Stats, Violation};
pub use replay::check_replay;
pub use shrink::minimise;

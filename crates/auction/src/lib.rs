//! `fl-auction` — a faithful implementation of the **truthful procurement
//! auction for federated learning** from Zhou et al., *"A Truthful
//! Procurement Auction for Incentivizing Heterogeneous Clients in Federated
//! Learning"* (ICDCS 2021).
//!
//! A cloud server needs `K` clients in every global iteration of a
//! federated-learning job; heterogeneous mobile clients each submit up to
//! `J` sealed bids — price, local accuracy, availability window and a
//! battery-limited round count. The mechanism, `A_FL`, must decide how many
//! global iterations to run (`T_g`, coupled to the winners' accuracies),
//! which bids to accept, when to schedule each winner, and what to pay —
//! minimising social cost while staying truthful and individually rational.
//!
//! # Architecture
//!
//! * [`Instance`] holds the configuration ([`AuctionConfig`]), client
//!   profiles and bids.
//! * [`run_auction`] executes Alg. 1: it enumerates the admissible horizons
//!   `T̂_g ∈ [T_0, T]`, serves each horizon's qualified bid set from the
//!   thresholds [`SweepPrecomp`] computes once per instance (the same set
//!   [`qualify()`] derives from scratch), solves each
//!   winner-determination problem with [`AWinner`] (Alg. 2, greedy over
//!   representative schedules) and the critical-value payment rule
//!   (Alg. 3), and returns the cheapest feasible [`AuctionOutcome`].
//! * Every `A_winner` run carries a [`DualCertificate`]: the dual variables
//!   of the relaxed compact-exponential ILP, giving the per-instance
//!   approximation bound `H_{T̂_g}·ω` of Lemma 5.
//! * Alternative WDP algorithms (the paper's benchmarks, the exact
//!   branch-and-bound in `fl-exact`) plug into the same outer loop through
//!   the [`WdpSolver`] trait; [`verify`] re-checks any solver's output
//!   against ILP (6) independently.
//! * [`run_auction`] visits the horizons in ascending order on the calling
//!   thread and skips any horizon whose cost lower bound exceeds the
//!   incumbent. The unpruned [`sweep_horizons`] (Fig. 7) runs on a
//!   zero-dependency scoped worker pool selected by [`SweepStrategy`]
//!   (default: `FL_THREADS` or the machine's available parallelism); its
//!   records are bit-identical across strategies. See `ARCHITECTURE.md`.
//!
//! # Quickstart
//!
//! ```
//! use fl_auction::{
//!     run_auction, AuctionConfig, Bid, ClientProfile, Instance, Round, Window,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = AuctionConfig::builder()
//!     .max_rounds(10)       // T: at most 10 global iterations
//!     .clients_per_round(2) // K: 2 clients must train in every iteration
//!     .round_time_limit(60.0)
//!     .build()?;
//! let mut instance = Instance::new(cfg);
//! for i in 0..5 {
//!     let client = instance.add_client(ClientProfile::new(5.0, 10.0)?);
//!     let bid = Bid::new(
//!         10.0 + i as f64,                    // claimed cost b_ij
//!         0.5,                                // local accuracy θ_ij
//!         Window::new(Round(1), Round(10)),   // availability [a_ij, d_ij]
//!         10,                                 // participation rounds c_ij
//!     )?;
//!     instance.add_bid(client, bid)?;
//! }
//! let outcome = run_auction(&instance)?;
//! println!(
//!     "T_g = {}, social cost = {}",
//!     outcome.horizon(),
//!     outcome.social_cost()
//! );
//! for w in outcome.solution().winners() {
//!     println!("{} serves {:?} for payment {}", w.bid_ref, w.schedule, w.payment);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Library code reports through `fl-telemetry` events, never raw stdio.
#![warn(clippy::print_stdout)]
#![warn(clippy::print_stderr)]

pub mod analysis;
mod auction;
mod bid;
pub mod columnar;
mod config;
pub mod coverage;
mod error;
pub mod io;
pub mod online;
mod parallel;
mod payment;
pub mod preprocess;
mod qualify;
pub mod recover;
mod schedule;
pub mod serial;
pub mod stats;
pub mod truthful;
mod types;
pub mod verify;
mod wdp;
mod winner;

pub use auction::{run_auction, run_auction_with, sweep_horizons, AuctionOutcome, HorizonOutcome};
pub use bid::{Bid, ClientProfile, Instance};
pub use columnar::{ColumnarBids, CoverageIndex};
pub use config::{AuctionConfig, AuctionConfigBuilder, LocalIterationModel, QualifyMode};
pub use coverage::Coverage;
pub use error::{AuctionError, WdpError};
pub use online::{DecisionReason, OnlineAuction, OnlineCounters, OnlineDecision, OnlineOutcome};
pub use parallel::SweepStrategy;
pub use payment::{payment, PaymentRule};
pub use preprocess::SweepPrecomp;
pub use qualify::{min_horizon, qualify, QualifiedBid};
pub use recover::{standby_pool, StandbyEntry, StandbyPool};
pub use schedule::{pick_schedule, pick_schedule_into, representative_schedule, SchedulePolicy};
pub use stats::{EconomicHealth, MechanismStats};
pub use types::{BidRef, ClientId, Round, Window};
pub use wdp::{DualCertificate, Wdp, WdpSolution, WdpSolver, WinnerEntry};
pub use winner::{AWinner, SelectionStep};

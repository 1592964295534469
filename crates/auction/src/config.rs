//! Server-side auction parameters and the local-iteration model.

use crate::error::AuctionError;
use crate::parallel::SweepStrategy;

/// How the number of local iterations `T_l(θ)` needed to reach local
/// accuracy `θ` is computed.
///
/// The paper's theory (Eq. 2) uses `T_l(θ) = η·log(1/θ)`; its simulations
/// (§VII-A) use the simplified `T_l(θ) = ⌊10·(1−θ)⌋`. Both are provided so
/// that analytic experiments and paper-faithful reproductions can pick the
/// matching model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalIterationModel {
    /// `T_l(θ) = η·log(1/θ)` (natural logarithm), Eq. (2).
    LogInverse {
        /// The positive constant `η`.
        eta: f64,
    },
    /// `T_l(θ) = ⌊scale·(1−θ)⌋`, the paper's simulation shortcut with
    /// `scale = 10`.
    Linear {
        /// The multiplier applied to `1−θ` before flooring.
        scale: f64,
    },
}

impl LocalIterationModel {
    /// The paper's simulation model, `T_l(θ) = ⌊10(1−θ)⌋`.
    pub fn paper() -> Self {
        LocalIterationModel::Linear { scale: 10.0 }
    }

    /// Number of local iterations required for local accuracy `theta`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `theta` is outside `(0, 1]`.
    pub fn local_iterations(self, theta: f64) -> f64 {
        debug_assert!(
            theta > 0.0 && theta <= 1.0,
            "θ must lie in (0, 1], got {theta}"
        );
        match self {
            LocalIterationModel::LogInverse { eta } => eta * (1.0 / theta).ln(),
            LocalIterationModel::Linear { scale } => (scale * (1.0 - theta)).floor(),
        }
    }
}

impl Default for LocalIterationModel {
    fn default() -> Self {
        LocalIterationModel::paper()
    }
}

/// Which reading of Alg. 1 line 6 is used to qualify bids for a fixed
/// `T̂_g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QualifyMode {
    /// The evident intent: the truncated window `[a, min(d, T̂_g)]` must
    /// contain at least `c` rounds. This is the default.
    #[default]
    Intent,
    /// The literal condition printed in the paper, `a + c ≤ T̂_g`, kept for
    /// the qualification ablation. It both off-by-ones the window and
    /// ignores `d_ij`, so it can admit bids whose own window is too short —
    /// those are additionally rejected to keep schedules well-defined.
    Literal,
}

/// Immutable parameters the cloud server announces before collecting bids.
///
/// Build one with [`AuctionConfig::builder`]:
///
/// ```
/// use fl_auction::AuctionConfig;
///
/// # fn main() -> Result<(), fl_auction::AuctionError> {
/// let cfg = AuctionConfig::builder()
///     .max_rounds(50)      // T
///     .clients_per_round(20) // K
///     .round_time_limit(60.0) // t_max
///     .build()?;
/// assert_eq!(cfg.max_rounds(), 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AuctionConfig {
    max_rounds: u32,
    clients_per_round: u32,
    round_time_limit: f64,
    local_model: LocalIterationModel,
    qualify_mode: QualifyMode,
    sweep_strategy: SweepStrategy,
}

/// Equality compares the **announced** auction parameters only. The
/// execution-side [`SweepStrategy`] is deliberately excluded: it cannot
/// change any outcome (sweeps are bit-identical across strategies), it is
/// not part of the paper's mechanism, and it is not serialised by
/// [`crate::io`] — so a config round-tripped through the text format
/// compares equal to the original.
impl PartialEq for AuctionConfig {
    fn eq(&self, other: &Self) -> bool {
        self.max_rounds == other.max_rounds
            && self.clients_per_round == other.clients_per_round
            && self.round_time_limit == other.round_time_limit
            && self.local_model == other.local_model
            && self.qualify_mode == other.qualify_mode
    }
}

impl AuctionConfig {
    /// Starts building a configuration. Defaults mirror the paper's
    /// simulation setup: `T = 50`, `K = 20`, `t_max = 60`, the linear
    /// local-iteration model, and intent-mode qualification.
    pub fn builder() -> AuctionConfigBuilder {
        AuctionConfigBuilder::default()
    }

    /// The paper's default evaluation configuration.
    pub fn paper_default() -> Self {
        AuctionConfig {
            max_rounds: 50,
            clients_per_round: 20,
            round_time_limit: 60.0,
            local_model: LocalIterationModel::paper(),
            qualify_mode: QualifyMode::Intent,
            sweep_strategy: SweepStrategy::from_env(),
        }
    }

    /// Maximum number of global iterations `T` the server will run.
    pub fn max_rounds(&self) -> u32 {
        self.max_rounds
    }

    /// Number of clients `K` required in every global iteration.
    pub fn clients_per_round(&self) -> u32 {
        self.clients_per_round
    }

    /// Wall-clock budget `t_max` for one global iteration.
    pub fn round_time_limit(&self) -> f64 {
        self.round_time_limit
    }

    /// The local-iteration model `T_l(·)`.
    pub fn local_model(&self) -> LocalIterationModel {
        self.local_model
    }

    /// The qualification reading in force.
    pub fn qualify_mode(&self) -> QualifyMode {
        self.qualify_mode
    }

    /// How the unpruned [`sweep_horizons`](crate::sweep_horizons) schedules
    /// its per-horizon WDPs (default: `FL_THREADS` or the machine's
    /// available parallelism — see [`SweepStrategy::from_env`]). The pruned
    /// [`run_auction_with`](crate::run_auction_with) sweep is always
    /// sequential and ignores it.
    pub fn sweep_strategy(&self) -> SweepStrategy {
        self.sweep_strategy
    }
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig::paper_default()
    }
}

/// Builder for [`AuctionConfig`]; see the type-level example.
#[derive(Debug, Clone)]
pub struct AuctionConfigBuilder {
    max_rounds: u32,
    clients_per_round: u32,
    round_time_limit: f64,
    local_model: LocalIterationModel,
    qualify_mode: QualifyMode,
    sweep_strategy: SweepStrategy,
}

impl Default for AuctionConfigBuilder {
    fn default() -> Self {
        let d = AuctionConfig::paper_default();
        AuctionConfigBuilder {
            max_rounds: d.max_rounds,
            clients_per_round: d.clients_per_round,
            round_time_limit: d.round_time_limit,
            local_model: d.local_model,
            qualify_mode: d.qualify_mode,
            sweep_strategy: d.sweep_strategy,
        }
    }
}

impl AuctionConfigBuilder {
    /// Sets `T`, the maximum number of global iterations.
    pub fn max_rounds(mut self, t: u32) -> Self {
        self.max_rounds = t;
        self
    }

    /// Sets `K`, the clients required per global iteration.
    pub fn clients_per_round(mut self, k: u32) -> Self {
        self.clients_per_round = k;
        self
    }

    /// Sets `t_max`, the per-round wall-clock limit.
    pub fn round_time_limit(mut self, t_max: f64) -> Self {
        self.round_time_limit = t_max;
        self
    }

    /// Sets the local-iteration model.
    pub fn local_model(mut self, model: LocalIterationModel) -> Self {
        self.local_model = model;
        self
    }

    /// Sets the qualification reading (default: [`QualifyMode::Intent`]).
    pub fn qualify_mode(mut self, mode: QualifyMode) -> Self {
        self.qualify_mode = mode;
        self
    }

    /// Sets how [`sweep_horizons`](crate::sweep_horizons) schedules its
    /// per-horizon WDPs (default: [`SweepStrategy::from_env`]). Purely an
    /// execution knob — sweep results are bit-identical across strategies,
    /// and `run_auction_with` always sweeps sequentially.
    pub fn sweep_strategy(mut self, strategy: SweepStrategy) -> Self {
        self.sweep_strategy = strategy;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] if `T = 0`, `K = 0`, the
    /// time limit is not positive and finite, or the local model's constant
    /// is not positive.
    pub fn build(self) -> Result<AuctionConfig, AuctionError> {
        if self.max_rounds == 0 {
            return Err(AuctionError::invalid("max_rounds (T) must be at least 1"));
        }
        if self.clients_per_round == 0 {
            return Err(AuctionError::invalid(
                "clients_per_round (K) must be at least 1",
            ));
        }
        if !(self.round_time_limit.is_finite() && self.round_time_limit > 0.0) {
            return Err(AuctionError::invalid(
                "round_time_limit (t_max) must be positive and finite",
            ));
        }
        let model_ok = match self.local_model {
            LocalIterationModel::LogInverse { eta } => eta.is_finite() && eta > 0.0,
            LocalIterationModel::Linear { scale } => scale.is_finite() && scale > 0.0,
        };
        if !model_ok {
            return Err(AuctionError::invalid(
                "local iteration model constant must be positive and finite",
            ));
        }
        Ok(AuctionConfig {
            max_rounds: self.max_rounds,
            clients_per_round: self.clients_per_round,
            round_time_limit: self.round_time_limit,
            local_model: self.local_model,
            qualify_mode: self.qualify_mode,
            // Normalise hand-built degenerate strategies (0/1 threads).
            sweep_strategy: SweepStrategy::with_threads(self.sweep_strategy.threads()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_vii() {
        let cfg = AuctionConfig::paper_default();
        assert_eq!(cfg.max_rounds(), 50);
        assert_eq!(cfg.clients_per_round(), 20);
        assert_eq!(cfg.round_time_limit(), 60.0);
        assert_eq!(
            cfg.local_model(),
            LocalIterationModel::Linear { scale: 10.0 }
        );
        assert_eq!(cfg.qualify_mode(), QualifyMode::Intent);
        assert_eq!(AuctionConfig::default(), cfg);
    }

    #[test]
    fn linear_model_matches_paper_examples() {
        let m = LocalIterationModel::paper();
        // θ = 0.3 → ⌊10·0.7⌋ = 7; θ = 0.8 → ⌊10·0.2⌋ = 2 — computed along
        // the model's own fp path (1 − θ), which differs from literal 0.7.
        assert_eq!(m.local_iterations(0.3), (10.0 * (1.0 - 0.3f64)).floor());
        assert_eq!(m.local_iterations(0.8), (10.0 * (1.0 - 0.8f64)).floor());
        assert_eq!(m.local_iterations(1.0), 0.0);
    }

    #[test]
    fn log_model_is_decreasing_in_theta() {
        let m = LocalIterationModel::LogInverse { eta: 3.0 };
        assert!(m.local_iterations(0.2) > m.local_iterations(0.5));
        assert!(m.local_iterations(0.5) > m.local_iterations(0.9));
        assert!((m.local_iterations(1.0)).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(AuctionConfig::builder().max_rounds(0).build().is_err());
        assert!(AuctionConfig::builder()
            .clients_per_round(0)
            .build()
            .is_err());
        assert!(AuctionConfig::builder()
            .round_time_limit(0.0)
            .build()
            .is_err());
        assert!(AuctionConfig::builder()
            .round_time_limit(f64::NAN)
            .build()
            .is_err());
        assert!(AuctionConfig::builder()
            .local_model(LocalIterationModel::LogInverse { eta: -1.0 })
            .build()
            .is_err());
    }

    #[test]
    fn sweep_strategy_is_configurable_and_excluded_from_equality() {
        let seq = AuctionConfig::builder()
            .sweep_strategy(SweepStrategy::Sequential)
            .build()
            .unwrap();
        assert_eq!(seq.sweep_strategy(), SweepStrategy::Sequential);
        let par = AuctionConfig::builder()
            .sweep_strategy(SweepStrategy::Parallel { threads: 4 })
            .build()
            .unwrap();
        assert_eq!(par.sweep_strategy(), SweepStrategy::Parallel { threads: 4 });
        // Degenerate hand-built strategies normalise to sequential.
        let one = AuctionConfig::builder()
            .sweep_strategy(SweepStrategy::Parallel { threads: 1 })
            .build()
            .unwrap();
        assert_eq!(one.sweep_strategy(), SweepStrategy::Sequential);
        // An execution knob, not an announced auction parameter.
        assert_eq!(seq, par);
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = AuctionConfig::builder()
            .max_rounds(10)
            .clients_per_round(2)
            .round_time_limit(30.0)
            .local_model(LocalIterationModel::LogInverse { eta: 2.0 })
            .qualify_mode(QualifyMode::Literal)
            .build()
            .unwrap();
        assert_eq!(cfg.max_rounds(), 10);
        assert_eq!(cfg.clients_per_round(), 2);
        assert_eq!(cfg.round_time_limit(), 30.0);
        assert_eq!(
            cfg.local_model(),
            LocalIterationModel::LogInverse { eta: 2.0 }
        );
        assert_eq!(cfg.qualify_mode(), QualifyMode::Literal);
    }
}

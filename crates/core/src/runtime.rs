//! Typed runtime configuration: the `SPMAP_*` environment knobs as a
//! value.
//!
//! The parallel runtime reads `SPMAP_THREADS` and `SPMAP_SHARDS`
//! through the sanctioned helpers in `spmap-par` (the
//! only crate the determinism lint allows to touch `std::env`).  A
//! programmatic caller — a service embedding, a test harness — should
//! not have to mutate its own process environment to size the runtime;
//! [`RuntimeConfig`] carries the same knobs as plain fields instead.
//!
//! **Precedence: explicit > environment > default.**  A `Some` field
//! always wins; a `None` field defers to the environment-derived value
//! at the point of use (exactly what the helper would have returned);
//! the environment itself falls back to machine defaults.  The
//! [`RuntimeConfig::from_env`] constructor snapshots the environment
//! into explicit values, pinning a service to its construction-time
//! runtime even if the process environment later changes.
//!
//! None of these knobs can change a mapping result — thread counts
//! and shard counts are bit-identical by the engine's
//! determinism regime (docs/DETERMINISM.md); checkpoint budgets trade
//! memory for replay length only.

/// Typed runtime knobs; `None` / `0` defer to the environment (see the
/// module docs for precedence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Engine worker threads per request (`SPMAP_THREADS`).
    pub threads: Option<usize>,
    /// Worker-pool shard count (`SPMAP_SHARDS`); also the default
    /// `max_inflight` of a service sized with zeros.
    pub shards: Option<usize>,
    /// Per-trail checkpoint byte budget for engines run under this
    /// config (`0` = [`spmap_model::DEFAULT_CHECKPOINT_BUDGET_BYTES`]).
    pub checkpoint_budget_bytes: usize,
}

impl RuntimeConfig {
    /// Snapshot the environment-derived runtime into explicit values
    /// (the sanctioned `SPMAP_*` parse helpers in `spmap-par`).  The
    /// result is pinned: later environment changes no longer affect a
    /// config built here.
    pub fn from_env() -> Self {
        Self {
            threads: Some(spmap_par::num_threads()),
            shards: Some(spmap_par::num_shards()),
            checkpoint_budget_bytes: spmap_model::DEFAULT_CHECKPOINT_BUDGET_BYTES,
        }
    }

    /// The effective worker thread count.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(spmap_par::num_threads)
    }

    /// The effective shard count.
    pub fn shards(&self) -> usize {
        self.shards.unwrap_or_else(spmap_par::num_shards)
    }

    /// The effective checkpoint budget in bytes.
    pub fn checkpoint_budget_bytes(&self) -> usize {
        if self.checkpoint_budget_bytes == 0 {
            spmap_model::DEFAULT_CHECKPOINT_BUDGET_BYTES
        } else {
            self.checkpoint_budget_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_fields_win_over_the_environment() {
        let cfg = RuntimeConfig {
            threads: Some(3),
            shards: Some(2),
            checkpoint_budget_bytes: 1 << 20,
        };
        assert_eq!(cfg.threads(), 3);
        assert_eq!(cfg.shards(), 2);
        assert_eq!(cfg.checkpoint_budget_bytes(), 1 << 20);
    }

    #[test]
    fn default_defers_and_from_env_pins() {
        let deferred = RuntimeConfig::default();
        let pinned = RuntimeConfig::from_env();
        // Whatever the environment says, the deferred accessors and the
        // pinned snapshot agree at the same instant.
        assert_eq!(deferred.threads(), pinned.threads());
        assert_eq!(deferred.shards(), pinned.shards());
        assert_eq!(
            deferred.checkpoint_budget_bytes(),
            spmap_model::DEFAULT_CHECKPOINT_BUDGET_BYTES
        );
        assert!(pinned.threads.is_some() && pinned.shards.is_some());
    }
}

//! Engine-wide fault injection.
//!
//! A crash leaves a clean prefix of the WAL on disk, then nothing; the
//! recovery tests model that by truncating the log. This module models what
//! a fault does to a *live* engine: a [`FaultRegistry`] is threaded through
//! the executor and the warehouse, and every interesting code path calls
//! [`FaultRegistry::hit`] with a static site name before doing its work.
//! When a [`FaultPlan`] is armed, exactly one such hit fires — either as a
//! typed [`FaultError`] (the path must propagate it as a `Result`) or as a
//! panic (the path must be unwind-safe) — and the chaos tests assert the
//! engine aborts the epoch cleanly and retries to convergence.
//!
//! Addressing is by **dynamic ordinal**: every hit increments a counter, so
//! ordinal `k` names the `k`-th fault-site crossing of a whole workload, a
//! stable coordinate under a deterministic (serial) execution. Sites can
//! also be armed by name (`nth` occurrence of that site), which is what the
//! CLI `chaos` command uses.
//!
//! The registry is instance-based (no globals): tests run concurrently in
//! one process, and each engine owns its own registry. When nothing is
//! armed and nothing is recording, a hit is a single relaxed atomic load.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How an armed fault manifests at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The site returns `Err(FaultError)`; the caller must propagate it.
    Error,
    /// The site panics; the caller must be unwind-safe.
    Panic,
}

/// Which hit of the workload fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The `k`-th fault-site crossing overall (0-based).
    Ordinal(u64),
    /// The `nth` crossing (0-based) of the named site.
    Site { name: String, nth: u64 },
}

/// One armed fault: where it fires and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub trigger: FaultTrigger,
    pub mode: FaultMode,
}

impl FaultPlan {
    pub fn ordinal(ordinal: u64, mode: FaultMode) -> FaultPlan {
        FaultPlan {
            trigger: FaultTrigger::Ordinal(ordinal),
            mode,
        }
    }

    pub fn site(name: impl Into<String>, nth: u64, mode: FaultMode) -> FaultPlan {
        FaultPlan {
            trigger: FaultTrigger::Site {
                name: name.into(),
                nth,
            },
            mode,
        }
    }
}

/// The typed error an armed [`FaultMode::Error`] site returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Static site name (e.g. `"wal:append"`).
    pub site: String,
    /// Dynamic ordinal at which the fault fired.
    pub ordinal: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}#{}", self.site, self.ordinal)
    }
}

impl std::error::Error for FaultError {}

/// A fault that fired (for post-mortem assertions in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    pub site: String,
    pub ordinal: u64,
    pub mode: FaultMode,
}

#[derive(Debug, Default)]
struct Inner {
    plan: Option<FaultPlan>,
    /// Per-site hit counts (for `FaultTrigger::Site` nth-matching).
    site_counts: Vec<(&'static str, u64)>,
    /// Site names in hit order, populated in record mode.
    recorded: Vec<&'static str>,
    fired: Option<FiredFault>,
}

/// Registry of fault-injection sites. See the module docs.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    /// True when armed or recording; the only state the fast path reads.
    active: AtomicBool,
    counter: AtomicU64,
    recording: AtomicBool,
    inner: Mutex<Inner>,
}

impl FaultRegistry {
    pub fn new() -> FaultRegistry {
        FaultRegistry::default()
    }

    /// A shared, permanently inert registry for callers that don't inject.
    pub fn none() -> &'static FaultRegistry {
        static NONE: OnceLock<FaultRegistry> = OnceLock::new();
        NONE.get_or_init(FaultRegistry::new)
    }

    /// Arm `plan`, resetting the ordinal counter and per-site counts so the
    /// next workload starts from ordinal 0.
    pub fn arm(&self, plan: FaultPlan) {
        let mut inner = self.lock();
        inner.plan = Some(plan);
        inner.site_counts.clear();
        inner.fired = None;
        self.counter.store(0, Ordering::SeqCst);
        self.recording.store(false, Ordering::SeqCst);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Disarm; already-fired information is retained for inspection.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.plan = None;
        inner.site_counts.clear();
        self.recording.store(false, Ordering::SeqCst);
        self.active.store(false, Ordering::SeqCst);
    }

    /// Start record mode: hits are logged (never fired) until
    /// [`take_recorded`](FaultRegistry::take_recorded).
    pub fn record(&self) {
        let mut inner = self.lock();
        inner.plan = None;
        inner.site_counts.clear();
        inner.recorded.clear();
        inner.fired = None;
        self.counter.store(0, Ordering::SeqCst);
        self.recording.store(true, Ordering::SeqCst);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Stop record mode and return the site names in hit order; index `k`
    /// is the site that ordinal `k` would fire at.
    pub fn take_recorded(&self) -> Vec<&'static str> {
        let mut inner = self.lock();
        let out = std::mem::take(&mut inner.recorded);
        self.recording.store(false, Ordering::SeqCst);
        self.active.store(false, Ordering::SeqCst);
        out
    }

    /// The fault that fired under the current/last plan, if any.
    pub fn fired(&self) -> Option<FiredFault> {
        self.lock().fired.clone()
    }

    /// Whether an armed plan is still waiting to fire.
    pub fn armed(&self) -> bool {
        let inner = self.lock();
        inner.plan.is_some() && inner.fired.is_none()
    }

    /// Cross a fault site. Inert unless armed or recording (one relaxed
    /// atomic load). Fires at most once per armed plan.
    pub fn hit(&self, site: &'static str) -> Result<(), FaultError> {
        if !self.active.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.hit_slow(site)
    }

    fn hit_slow(&self, site: &'static str) -> Result<(), FaultError> {
        let ordinal = self.counter.fetch_add(1, Ordering::SeqCst);
        if self.recording.load(Ordering::SeqCst) {
            self.lock().recorded.push(site);
            return Ok(());
        }
        let mode = {
            let mut inner = self.lock();
            let nth = {
                match inner.site_counts.iter_mut().find(|(s, _)| *s == site) {
                    Some((_, n)) => {
                        let nth = *n;
                        *n += 1;
                        nth
                    }
                    None => {
                        inner.site_counts.push((site, 1));
                        0
                    }
                }
            };
            let Some(plan) = inner.plan.as_ref() else {
                return Ok(());
            };
            if inner.fired.is_some() {
                return Ok(());
            }
            let matches = match &plan.trigger {
                FaultTrigger::Ordinal(k) => *k == ordinal,
                FaultTrigger::Site { name, nth: want } => name == site && *want == nth,
            };
            if !matches {
                return Ok(());
            }
            let mode = plan.mode;
            inner.fired = Some(FiredFault {
                site: site.to_string(),
                ordinal,
                mode,
            });
            mode
        };
        match mode {
            FaultMode::Error => Err(FaultError {
                site: site.to_string(),
                ordinal,
            }),
            FaultMode::Panic => panic!("injected panic at {site}#{ordinal}"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking hit poisons nothing we can't keep using: Inner holds
        // plain bookkeeping, and every mutation completes before a fire.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_registry_never_fires() {
        let f = FaultRegistry::new();
        for _ in 0..10 {
            assert!(f.hit("a").is_ok());
        }
        assert!(f.fired().is_none());
    }

    #[test]
    fn ordinal_arming_fires_exactly_once() {
        let f = FaultRegistry::new();
        f.arm(FaultPlan::ordinal(2, FaultMode::Error));
        assert!(f.hit("a").is_ok());
        assert!(f.hit("b").is_ok());
        let err = f.hit("c").unwrap_err();
        assert_eq!(err.site, "c");
        assert_eq!(err.ordinal, 2);
        // Later hits are inert: the plan fired.
        assert!(f.hit("d").is_ok());
        let fired = f.fired().unwrap();
        assert_eq!(fired.site, "c");
        assert_eq!(fired.mode, FaultMode::Error);
    }

    #[test]
    fn site_arming_counts_per_site_occurrences() {
        let f = FaultRegistry::new();
        f.arm(FaultPlan::site("b", 1, FaultMode::Error));
        assert!(f.hit("b").is_ok()); // b#0
        assert!(f.hit("a").is_ok());
        let err = f.hit("b").unwrap_err(); // b#1 fires
        assert_eq!(err.site, "b");
        assert_eq!(err.ordinal, 2);
    }

    #[test]
    fn panic_mode_panics() {
        let f = FaultRegistry::new();
        f.arm(FaultPlan::ordinal(0, FaultMode::Panic));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.hit("x")));
        assert!(r.is_err());
        assert_eq!(f.fired().unwrap().site, "x");
        // The registry stays usable after the unwind.
        assert!(f.hit("y").is_ok());
    }

    #[test]
    fn record_mode_logs_without_firing() {
        let f = FaultRegistry::new();
        f.record();
        assert!(f.hit("a").is_ok());
        assert!(f.hit("b").is_ok());
        assert!(f.hit("a").is_ok());
        assert_eq!(f.take_recorded(), vec!["a", "b", "a"]);
        // Record mode off: inert again.
        assert!(f.hit("z").is_ok());
        assert!(f.take_recorded().is_empty());
    }

    #[test]
    fn clear_disarms_pending_plan() {
        let f = FaultRegistry::new();
        f.arm(FaultPlan::ordinal(0, FaultMode::Error));
        assert!(f.armed());
        f.clear();
        assert!(!f.armed());
        assert!(f.hit("a").is_ok());
    }
}

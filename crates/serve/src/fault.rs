//! Deterministic replica fault and lifecycle plans.
//!
//! A [`FaultPlan`] is a fixed schedule of lifecycle events — crashes,
//! drains, restarts, rolling upgrades — that the cluster driver injects
//! into its event queue as a dedicated *fault lane* ([`super::cluster`]).
//! Because the plan is data (not callbacks) and the event queue orders
//! ties deterministically, the same plan against the same workload
//! replays the same interleaving bit-for-bit: a crash always lands
//! between the same two arrivals, so goodput dips and recovery times are
//! reproducible numbers rather than flaky observations.
//!
//! Ordering contract: fault events ride lane `u64::MAX`, so at an equal
//! timestamp every arrival (lane 0) and every replica tick fires *before*
//! the fault. A crash at `t` therefore never swallows an
//! arrival stamped `t` — the arrival routes first, then the crash
//! requeues it like any other resident.
//!
//! An empty plan ([`FaultPlan::none`]) pushes zero events and is the
//! identity: the driver's behaviour is bit-identical to a fault-free run
//! by construction (asserted in `tests/cluster_pipeline.rs`).

use qserve_tensor::rng::TensorRng;

/// What happens to the targeted replica when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Hard failure: the replica goes offline instantly, its KV pool
    /// (device *and* host tier) is lost, and every resident request —
    /// waiting, running, or swapped out — is requeued through the router
    /// with its prefill progress wiped (generated tokens are kept and
    /// honestly re-owed as recompute work).
    Crash,
    /// Stop admitting new work; residents run to completion. The replica
    /// stays online and its report still counts the tail it finishes.
    Drain,
    /// Bring a crashed or upgraded replica back: fresh scheduler, fresh
    /// page pool, clock advanced to the restart time, admission reopened.
    Restart,
    /// Drain, then once the last resident finishes go offline for
    /// `downtime_s`, then restart. With `rolling: true` the driver chains
    /// the same upgrade onto the next replica index when this one comes
    /// back — one replica is ever down at a time.
    Upgrade {
        /// Offline window between the last resident finishing and the
        /// replica rejoining, seconds.
        downtime_s: f64,
        /// Chain to replica `i + 1` on restart.
        rolling: bool,
    },
}

/// One scheduled lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Simulated time at which the event fires, seconds (must be ≥ 0).
    pub at_s: f64,
    /// Target replica index.
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of replica lifecycle events.
///
/// Build one with the combinators below, or [`FaultPlan::seeded`] for
/// property tests. Plans are plain data: cloning and replaying one is
/// exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds an arbitrary event.
    ///
    /// # Panics
    /// Panics if `fault.at_s` is negative or NaN — the event queue only
    /// accepts causal timestamps.
    pub fn with(mut self, fault: Fault) -> Self {
        assert!(
            fault.at_s >= 0.0,
            "fault time must be non-negative, got {}",
            fault.at_s
        );
        self.faults.push(fault);
        self
    }

    /// Schedules a hard crash of `replica` at `at_s`.
    pub fn crash_at(self, replica: usize, at_s: f64) -> Self {
        self.with(Fault { at_s, replica, kind: FaultKind::Crash })
    }

    /// Schedules a drain of `replica` at `at_s` (stop admission, finish
    /// residents).
    pub fn drain_at(self, replica: usize, at_s: f64) -> Self {
        self.with(Fault { at_s, replica, kind: FaultKind::Drain })
    }

    /// Schedules a restart of `replica` at `at_s` (fresh pool + scheduler,
    /// admission reopened; any parked requeued work is delivered).
    pub fn restart_at(self, replica: usize, at_s: f64) -> Self {
        self.with(Fault { at_s, replica, kind: FaultKind::Restart })
    }

    /// Schedules a rolling upgrade across a fleet of `n_replicas`,
    /// starting with replica 0 at `start_s`: each replica drains, sits out
    /// `downtime_s`, restarts, and hands the baton to the next index. The
    /// chain is driven by the cluster at run time (the restart time of
    /// replica `i` depends on when its residents finish), so only the
    /// first link is scheduled here.
    ///
    /// # Panics
    /// Panics if `n_replicas` is zero or `downtime_s` is negative.
    pub fn rolling_upgrade(self, n_replicas: usize, start_s: f64, downtime_s: f64) -> Self {
        assert!(n_replicas > 0, "a rolling upgrade needs at least one replica");
        assert!(
            downtime_s >= 0.0,
            "upgrade downtime must be non-negative, got {downtime_s}"
        );
        self.with(Fault {
            at_s: start_s,
            replica: 0,
            kind: FaultKind::Upgrade { downtime_s, rolling: true },
        })
    }

    /// A seeded random plan for property tests: up to `max_events`
    /// crash/drain/restart events across `replicas` replicas inside
    /// `[0, horizon_s)`. Crashes are always paired with a later restart of
    /// the same replica so random fleets keep capacity to finish requeued
    /// work. Same seed → same plan, bit for bit.
    ///
    /// # Panics
    /// Panics if `replicas` is zero or `horizon_s` is not positive.
    pub fn seeded(seed: u64, replicas: usize, horizon_s: f64, max_events: usize) -> Self {
        assert!(replicas > 0, "a fault plan needs at least one replica");
        assert!(horizon_s > 0.0, "horizon must be positive, got {horizon_s}");
        let mut rng = TensorRng::seed(seed);
        let mut plan = Self::none();
        let events = rng.index(max_events + 1);
        for _ in 0..events {
            let replica = rng.index(replicas);
            let at_s = f64::from(rng.uniform(0.0, horizon_s as f32 * 0.75));
            match rng.index(3) {
                0 => {
                    // Crash, then restart after a random cooldown so the
                    // requeued work has somewhere to land long-term.
                    let cooldown = f64::from(rng.uniform(0.05, horizon_s as f32 * 0.2));
                    plan = plan.crash_at(replica, at_s).restart_at(replica, at_s + cooldown);
                }
                1 => plan = plan.drain_at(replica, at_s),
                _ => {
                    let cooldown = f64::from(rng.uniform(0.05, horizon_s as f32 * 0.2));
                    plan = plan
                        .drain_at(replica, at_s)
                        .restart_at(replica, at_s + cooldown);
                }
            }
        }
        plan
    }
}

/// The per-replica lifecycle state machine — **the one code path** for
/// admission gating, liveness and provisioned-time accounting, shared by
/// plan-injected faults and the autoscaler alike. The cluster driver used
/// to flip these flags inline per fault kind; factoring the transitions
/// here means a scale-down drain literally *is* [`FaultPlan::drain_at`]'s
/// drain — the two cannot diverge.
///
/// Transitions mirror the PR-8 driver exactly (same flag order), so a
/// fault-free or static-plan run is bit-identical to the inline-flag driver
/// by construction.
///
/// Provisioned time (the fleet-cost number): a replica accrues GPU-seconds
/// while its *provisioned window* is open — from the moment it accepts work
/// until it has both stopped accepting and gone idle (or died). A standby
/// replica the autoscaler has not yet activated opens no window; a static
/// fleet's windows span the whole run, so its fleet cost is exactly
/// `replicas × makespan`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifecycle {
    /// Admission gate: a drained/crashed/upgrading replica stops receiving
    /// new work. Always implies `online` when true.
    accepting: bool,
    /// Liveness: an offline replica (crashed, or in its upgrade downtime)
    /// ticks nothing until a restart.
    online: bool,
    /// Times this replica came back from offline.
    restarts: usize,
    /// A pending upgrade: `(downtime_s, rolling)`. Set when the upgrade
    /// fault fires; consumed when the replica drains, sits out the
    /// downtime and restarts (chaining to the next replica when rolling).
    pending_upgrade: Option<(f64, bool)>,
    /// Closed provisioned time, seconds (GPU-seconds at 1 GPU).
    provisioned_s: f64,
    /// Start of the currently open provisioned window, if any.
    provisioned_since: Option<f64>,
}

impl Lifecycle {
    /// A fresh replica at time 0: `accepting` replicas open their
    /// provisioned window immediately; standby replicas (an autoscaler's
    /// reserve) are online but gated closed and cost nothing until
    /// activated.
    pub fn fresh(accepting: bool) -> Self {
        Self {
            accepting,
            online: true,
            restarts: 0,
            pending_upgrade: None,
            provisioned_s: 0.0,
            provisioned_since: accepting.then_some(0.0),
        }
    }

    /// Whether the replica currently accepts new work.
    pub fn accepting(&self) -> bool {
        self.accepting
    }

    /// Whether the replica is live (ticking) at all.
    pub fn online(&self) -> bool {
        self.online
    }

    /// Times this replica came back from offline.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// The pending upgrade `(downtime_s, rolling)`, if one is waiting for
    /// the replica to drain.
    pub fn pending_upgrade(&self) -> Option<(f64, bool)> {
        self.pending_upgrade
    }

    /// Closed provisioned time so far, seconds.
    pub fn provisioned_s(&self) -> f64 {
        self.provisioned_s
    }

    /// Start of the still-open provisioned window, if one is open (the
    /// report aggregator closes it at the makespan).
    pub fn provisioned_open_since(&self) -> Option<f64> {
        self.provisioned_since
    }

    fn open_window(&mut self, now: f64) {
        if self.provisioned_since.is_none() {
            self.provisioned_since = Some(now);
        }
    }

    fn close_window(&mut self, now: f64) {
        if let Some(since) = self.provisioned_since.take() {
            self.provisioned_s += (now - since).max(0.0);
        }
    }

    /// Stop accepting new work; residents run to completion. The shared
    /// drain transition behind both [`FaultPlan::drain_at`] and an
    /// autoscaler scale-down. No-op on an offline replica.
    pub fn drain(&mut self) {
        if self.online {
            self.accepting = false;
        }
    }

    /// Hard failure at `now`: offline, gated closed, any pending upgrade
    /// cancelled, provisioned window closed. Returns whether the replica
    /// was online — a crash on an already-dead replica is a no-op and the
    /// caller evicts nothing.
    pub fn crash(&mut self, now: f64) -> bool {
        if !self.online {
            return false;
        }
        self.accepting = false;
        self.online = false;
        self.pending_upgrade = None;
        self.close_window(now);
        true
    }

    /// An upgrade fault fired on a live replica: gate admission closed and
    /// remember the downtime for when the last resident finishes.
    pub fn begin_upgrade(&mut self, downtime_s: f64, rolling: bool) {
        self.accepting = false;
        self.pending_upgrade = Some((downtime_s, rolling));
    }

    /// The drained replica begins its upgrade downtime at `now`: offline,
    /// provisioned window closed. The pending upgrade stays set —
    /// [`Lifecycle::restart`] consumes it.
    pub fn go_offline(&mut self, now: f64) {
        self.online = false;
        self.close_window(now);
    }

    /// Restart at `now`. A still-online (drained or untouched) replica just
    /// re-opens admission; an offline replica comes back online and counts
    /// a restart. Either way the provisioned window re-opens. Returns the
    /// pending upgrade consumed by an offline restart, so the driver can
    /// chain a rolling wave.
    pub fn restart(&mut self, now: f64) -> Option<(f64, bool)> {
        let chained = if self.online {
            self.accepting = true;
            None
        } else {
            self.online = true;
            self.accepting = true;
            self.restarts += 1;
            self.pending_upgrade.take()
        };
        self.open_window(now);
        chained
    }

    /// A non-accepting replica has gone idle at `now`: its provisioned
    /// window closes (the GPU is released). No-op while still accepting —
    /// an idle-but-open replica is provisioned capacity, and that is the
    /// cost an autoscaler exists to shed.
    pub fn release_idle(&mut self, now: f64) {
        if !self.accepting {
            self.close_window(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity_shaped() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.faults().is_empty());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn combinators_schedule_in_insertion_order() {
        let plan = FaultPlan::none()
            .crash_at(1, 2.0)
            .drain_at(0, 3.5)
            .restart_at(1, 4.0);
        let kinds: Vec<_> = plan.faults().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec![FaultKind::Crash, FaultKind::Drain, FaultKind::Restart]);
        assert_eq!(plan.faults()[0].replica, 1);
        assert_eq!(plan.faults()[1].at_s.to_bits(), 3.5f64.to_bits());
    }

    #[test]
    fn rolling_upgrade_schedules_only_the_first_link() {
        let plan = FaultPlan::none().rolling_upgrade(4, 10.0, 0.5);
        assert_eq!(plan.faults().len(), 1);
        let f = plan.faults()[0];
        assert_eq!(f.replica, 0);
        assert_eq!(
            f.kind,
            FaultKind::Upgrade { downtime_s: 0.5, rolling: true }
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_causal() {
        let a = FaultPlan::seeded(7, 4, 30.0, 6);
        let b = FaultPlan::seeded(7, 4, 30.0, 6);
        assert_eq!(a, b, "same seed must give the same plan");
        for f in a.faults() {
            assert!(f.at_s >= 0.0);
            assert!(f.replica < 4);
        }
        let c = FaultPlan::seeded(8, 4, 30.0, 6);
        // Different seeds should (at minimum) not be forced equal.
        if a.faults().len() == c.faults().len() && !a.faults().is_empty() {
            // Plans may coincide by chance; just ensure construction ran.
            assert!(c.faults().iter().all(|f| f.replica < 4));
        }
    }

    #[test]
    fn seeded_crashes_pair_with_restarts() {
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, 3, 20.0, 8);
            let crashes = plan
                .faults()
                .iter()
                .filter(|f| f.kind == FaultKind::Crash)
                .count();
            let restarts = plan
                .faults()
                .iter()
                .filter(|f| f.kind == FaultKind::Restart)
                .count();
            assert!(
                restarts >= crashes,
                "every seeded crash needs a paired restart (seed {seed})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fault_time_is_rejected() {
        let _ = FaultPlan::none().crash_at(0, -1.0);
    }

    #[test]
    fn lifecycle_epochs_match_the_inline_driver() {
        // The transitions of the PR-8 inline flags (whose epoch counter
        // left with the replica tick events: a crash now clears the
        // replica's due key instead).
        let mut l = Lifecycle::fresh(true);
        assert!(l.accepting() && l.online());
        l.drain();
        assert!(!l.accepting() && l.online());
        assert_eq!(l.restart(1.0), None);
        assert!(l.accepting());
        assert_eq!(l.restarts(), 0, "online restart is admission-only");
        assert!(l.crash(2.0));
        assert!(!l.accepting() && !l.online());
        assert!(!l.crash(2.5), "crashing a dead replica is a no-op");
        assert_eq!(l.restart(3.0), None);
        assert!(l.online() && l.accepting());
        assert_eq!(l.restarts(), 1);
        l.begin_upgrade(0.5, true);
        assert!(!l.accepting());
        assert_eq!(l.pending_upgrade(), Some((0.5, true)));
        l.go_offline(4.0);
        assert!(!l.online());
        assert_eq!(l.restart(4.5), Some((0.5, true)), "offline restart consumes the upgrade");
        assert_eq!(l.restarts(), 2);
    }

    #[test]
    fn lifecycle_provisioned_windows_track_gpu_time() {
        // Active from 0, crashed at 10, restarted at 25, drained + idle at
        // 30: two closed windows of 10 and 5 seconds.
        let mut l = Lifecycle::fresh(true);
        assert_eq!(l.provisioned_open_since(), Some(0.0));
        l.crash(10.0);
        assert_eq!(l.provisioned_s().to_bits(), 10.0f64.to_bits());
        assert_eq!(l.provisioned_open_since(), None);
        l.restart(25.0);
        assert_eq!(l.provisioned_open_since(), Some(25.0));
        l.release_idle(28.0);
        assert_eq!(l.provisioned_open_since(), Some(25.0), "accepting ⇒ still provisioned");
        l.drain();
        l.release_idle(30.0);
        assert_eq!(l.provisioned_s().to_bits(), 15.0f64.to_bits());
        assert_eq!(l.provisioned_open_since(), None);
        // A standby replica costs nothing until activated.
        let mut s = Lifecycle::fresh(false);
        assert_eq!(s.provisioned_open_since(), None);
        s.restart(7.0);
        assert_eq!(s.provisioned_open_since(), Some(7.0));
    }
}
